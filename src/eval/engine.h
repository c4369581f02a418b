// The stratified bottom-up evaluation engine.
//
// Evaluates a stratified Datalog program (negation + aggregates) against a
// Database, materializing every IDB predicate as a relation. Within each
// stratum, recursive rules run to fixpoint either naively (recompute
// everything per round) or semi-naively (differential: one occurrence of a
// recursive subgoal reads the previous round's delta). Aggregate rules are
// evaluated once per stratum — stratification guarantees their inputs are
// complete.

#ifndef GRAPHLOG_EVAL_ENGINE_H_
#define GRAPHLOG_EVAL_ENGINE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "datalog/ast.h"
#include "storage/database.h"

namespace graphlog::obs {
class Tracer;           // obs/trace.h
class MetricsRegistry;  // obs/metrics.h
struct QueryProfile;    // obs/profile.h
}

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::columnar {
class CsrCache;  // columnar/csr_cache.h
}

namespace graphlog::eval {

/// \brief Evaluation strategy for recursive strata.
enum class Strategy : uint8_t {
  kNaive,      ///< recompute all rules each round until no new tuples
  kSemiNaive,  ///< differential evaluation on deltas
};


class ProvenanceStore;  // eval/provenance.h

/// \brief Knobs for Evaluate().
struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  /// When set, the first derivation of every IDB tuple is recorded here
  /// (rule index + matched body facts); see eval/provenance.h.
  ProvenanceStore* provenance = nullptr;
  /// Order joins by estimated cost using the sizes of already-computed
  /// relations (rules are compiled per stratum, so lower-strata IDB sizes
  /// are real). Disable to get the syntactic bound-count ordering.
  bool cardinality_join_ordering = true;
  /// Safety valve for runaway recursion in tests; 0 = unlimited.
  uint64_t max_iterations = 0;
  /// Worker lanes for rule execution: 1 (default) is the serial path, 0
  /// resolves to hardware concurrency, N > 1 uses N lanes. Join plans
  /// partition their driver relation across lanes with per-partition
  /// derivation buffers merged in partition order, so relation contents,
  /// insertion order, provenance, and stats are bit-identical across all
  /// settings.
  unsigned num_threads = 1;
  /// When set, the engine records a span per stratification, stratum, and
  /// fixpoint round (delta sizes, rule firings, join-plan choice, per-lane
  /// busy times) plus run-level counters into this tracer. Null (the
  /// default) is the zero-overhead path: every instrumentation site is a
  /// single pointer test. See obs/trace.h.
  obs::Tracer* tracer = nullptr;
  /// When set, the engine folds its cumulative counters (`eval.runs`,
  /// `eval.rule_firings`, `eval.tuples_derived`, index maintenance) and
  /// per-stratum/per-round distributions (`eval.stratum_rounds`,
  /// `eval.delta_rows`) into this process-wide registry at the same sites
  /// the tracer instruments. Null (the default) costs one pointer test;
  /// updates are per-round/per-run, never per-tuple. See obs/metrics.h.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, the engine is governed: cancellation and the deadline are
  /// polled per pool work item and at every fixpoint-round boundary,
  /// resource budgets are checked at round boundaries (deterministic
  /// across num_threads), and armed fault-injection points fire. On a
  /// kCancelled / kDeadlineExceeded / kBudgetExceeded abort the engine
  /// rolls the Database back to its pre-run state (created relations
  /// removed, pre-existing ones truncated to their pre-run size) — no
  /// partially-merged rounds leak. With budget.return_partial, a
  /// rows/rounds/delta/bytes trip instead stops at the round boundary
  /// and returns the partial fixpoint with EvalStats::truncated set.
  /// Null (the default) costs one pointer test per site. See
  /// gov/governor.h.
  const gov::GovernorContext* governor = nullptr;
  /// Columnar join path: serve probes over binary (arity-2) relations
  /// from CSR adjacency snapshots (columnar/csr.h) instead of hash
  /// indexes, and skip building those hash indexes. CSR spans preserve
  /// posting-list (row insertion) order, so derived rows, insertion
  /// order, provenance, and all logical stats are bit-identical to the
  /// row path; only index_builds/index_appends differ (the physical
  /// index work the columnar path exists to avoid). Steps the CSR layout
  /// cannot serve (scans, wider relations) transparently stay on the
  /// row path.
  bool columnar = false;
  /// Cache of CSR snapshots reused across runs (invalidation by
  /// data_generation; see columnar/csr_cache.h). Null with columnar set
  /// means a fresh per-run cache — correct, but rebuilds CSRs every run.
  columnar::CsrCache* csr_cache = nullptr;
  /// When set, the engine fills a plan-level execution profile (EXPLAIN
  /// ANALYZE): per rule and per plan step, probes issued, rows matched,
  /// dedup-rejected rows, and per-fixpoint-round deltas, plus per-rule
  /// wall-clock in the profile's timings section. Logical counters follow
  /// the EvalStats merge discipline — accumulated per (task, partition)
  /// and folded in partition order — so they are bit-identical across
  /// num_threads and columnar on/off. The profile's rules vector is sized
  /// to the program's rule count. Null (the default) is the zero-overhead
  /// path. See obs/profile.h.
  obs::QueryProfile* profile = nullptr;
};

/// \brief Counters reported by an evaluation.
struct EvalStats {
  uint64_t iterations = 0;      ///< total fixpoint rounds across strata
  uint64_t rule_firings = 0;    ///< satisfying assignments enumerated
  uint64_t tuples_derived = 0;  ///< novel tuples inserted into IDBs
  uint64_t strata = 0;
  uint64_t index_builds = 0;    ///< full hash-index builds across relations
  uint64_t index_appends = 0;   ///< incremental index row appends
  /// Peak transient working set of the semi-naive loop: the largest total
  /// delta-relation row count (resp. estimated bytes, see
  /// Relation::MemoryBytes) observed at any round start. Deterministic
  /// across num_threads like every other field.
  uint64_t peak_delta_rows = 0;
  uint64_t peak_delta_bytes = 0;
  /// True when a governed run stopped early at a round boundary because a
  /// resource budget tripped with ResourceBudget::return_partial set. The
  /// materialized IDB relations then hold the partial fixpoint computed
  /// so far — deterministic (bit-identical rows and insertion order
  /// across num_threads) because rows/rounds/bytes budgets are checked
  /// against deterministic quantities at deterministic points.
  bool truncated = false;
  /// Which budget tripped, e.g. "max_rounds at eval.round (stratum 1,
  /// round 10)"; empty unless truncated.
  std::string truncated_by{};

  /// \brief Adds every counter of `other` into this one (peaks take the
  /// max — the merged value is the peak over the combined run). The single
  /// audited accumulation point for drivers that sum stats over multiple
  /// engine runs (e.g. one per query graph) — field-by-field addition at
  /// call sites silently dropped counters when new fields were added.
  void Merge(const EvalStats& other) {
    iterations += other.iterations;
    rule_firings += other.rule_firings;
    tuples_derived += other.tuples_derived;
    strata += other.strata;
    index_builds += other.index_builds;
    index_appends += other.index_appends;
    if (other.peak_delta_rows > peak_delta_rows) {
      peak_delta_rows = other.peak_delta_rows;
    }
    if (other.peak_delta_bytes > peak_delta_bytes) {
      peak_delta_bytes = other.peak_delta_bytes;
    }
    truncated |= other.truncated;
    if (truncated_by.empty()) truncated_by = other.truncated_by;
  }
};

/// \brief Evaluates `prog` against `db` (checking arity consistency,
/// safety, and stratifiability first). IDB relations are created or
/// extended in `db`. Returns evaluation statistics.
Result<EvalStats> Evaluate(const datalog::Program& prog,
                           storage::Database* db,
                           const EvalOptions& options = {});

/// \brief Convenience: parse + evaluate program text against `db`.
///
/// \deprecated For front-door use prefer graphlog::Run() with
/// QueryRequest::Datalog (graphlog/api.h), which adds tracing, metrics,
/// and EXPLAIN; this remains the engine-level entry the API builds on.
Result<EvalStats> EvaluateText(std::string_view program_text,
                               storage::Database* db,
                               const EvalOptions& options = {});

}  // namespace graphlog::eval

#endif  // GRAPHLOG_EVAL_ENGINE_H_
