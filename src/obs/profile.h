// QueryProfile: plan-level execution profiling (EXPLAIN ANALYZE).
//
// Where EvalStats answers "how much work did the query do", the profile
// answers "where": per rule, per plan step (atom), and per fixpoint round
// it records how often each step ran, how many rows it passed downstream,
// how the planner's estimate compared to reality, and how many derived
// tuples the dedup layers rejected. graphlog::Run fills one into
// QueryResponse::profile when QueryOptions::observability.profile is set.
//
// Determinism contract — the same split the trace (obs/trace.h) and
// metrics layers use:
//
//   * The LOGICAL sections (rule/step/round counters, labels, estimates)
//     are bit-identical across num_threads AND across the columnar join
//     path being on or off: the engine accumulates them per
//     (task, partition) and merges in partition order, and the counting
//     rules in eval/compiled_rule.h reproduce exactly the serial
//     execution's counts. ToJson(false) projects only these sections.
//   * The PHYSICAL section (per-step CSR-vs-row-path served counts) and
//     the TIMINGS section (per-rule wall-clock) describe how the work was
//     executed, not what was computed; both are emitted only by
//     ToJson(true) / ToText(true).
//
// Dedup accounting: every rule firing either emits a novel tuple or is
// rejected. `dup_in_head` counts firings whose head tuple already existed
// when the round started (deterministic: the head relation is frozen per
// batch); `dup_in_round` counts duplicates first derived earlier in the
// same round. The per-site split between the engine's partition-local
// `seen` filter and the merge-phase drop varies with num_threads, but
// their sum — what this struct records — does not.

#ifndef GRAPHLOG_OBS_PROFILE_H_
#define GRAPHLOG_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace graphlog::obs {

/// \brief Execution counters for one plan step (one body atom / builtin).
struct StepProfile {
  /// Deterministic step label, e.g. "probe edge(0)" or "antijoin !blocked".
  std::string op;
  /// Planner estimate of rows one execution of this step matches, from
  /// the cardinality oracle at compile time (0 = no estimate: builtins,
  /// or the oracle was disabled).
  uint64_t estimated_rows = 0;
  /// Times the step was entered (probes issued for scan/probe steps).
  uint64_t invocations = 0;
  /// Rows this step passed downstream (matches surviving its filters).
  uint64_t rows_out = 0;
  /// Of `invocations`, how many were served by a CSR snapshot instead of
  /// the row path. PHYSICAL: differs between columnar on/off by design,
  /// so it is excluded from the logical JSON projection.
  uint64_t csr_invocations = 0;

  /// \brief Mean rows per invocation — the "actual" EXPLAIN ANALYZE
  /// compares against estimated_rows.
  double ActualRows() const {
    return invocations == 0
               ? 0.0
               : static_cast<double>(rows_out) / static_cast<double>(invocations);
  }
};

/// \brief Execution counters for one rule of the query's rule universe.
struct RuleProfile {
  std::string rule;  ///< the rule's text
  std::string plan;  ///< the chosen join plan (CompiledRule::PlanToString)
  uint64_t firings = 0;       ///< satisfying assignments enumerated
  uint64_t rows_emitted = 0;  ///< novel tuples this rule inserted
  uint64_t dup_in_head = 0;   ///< firings rejected: tuple pre-dated the round
  uint64_t dup_in_round = 0;  ///< firings rejected: duplicate within the round
  std::vector<StepProfile> steps;  ///< parallel to the compiled plan
  /// TIMINGS: wall-clock spent executing this rule's join fan-out,
  /// summed across lanes. Excluded from ToJson(false)/ToText(false).
  uint64_t wall_ns = 0;
};

/// \brief One fixpoint round (or one-shot pass) of one stratum.
struct RoundProfile {
  int64_t graph = 0;    ///< query-graph index (0 for raw Datalog)
  int64_t stratum = 0;  ///< stratum index within the graph's program
  int64_t round = 0;    ///< round index within the stratum
  uint64_t delta_rows = 0;  ///< combined delta size at the round start
  uint64_t firings = 0;     ///< rule firings this round
  uint64_t derived = 0;     ///< novel tuples this round
};

/// \brief The full query profile: every rule (indexed like the provenance
/// rule universe, i.e. QueryStats::programs order) plus the round log.
struct QueryProfile {
  std::vector<RuleProfile> rules;
  std::vector<RoundProfile> rounds;

  bool empty() const { return rules.empty() && rounds.empty(); }

  /// \brief Appends one engine run's profile (rule indices shift by the
  /// current rule count — the API's rule_offset discipline — and its
  /// rounds are tagged with the next graph index).
  void AppendRun(const QueryProfile& run);

  /// \brief JSON export. include_timings=false is the deterministic
  /// logical projection: byte-identical across num_threads and columnar
  /// on/off. Export-only (no parser) — embed verbatim where needed.
  std::string ToJson(bool include_timings = true) const;

  /// \brief The EXPLAIN ANALYZE rendering: per rule, each plan step with
  /// estimated vs actual rows and the miss factor (actual/estimated),
  /// the dedup breakdown, and the per-round delta log.
  std::string ToText(bool include_timings = true) const;

 private:
  int64_t graphs_ = 0;  ///< runs appended so far (next graph index)
};

}  // namespace graphlog::obs

#endif  // GRAPHLOG_OBS_PROFILE_H_
