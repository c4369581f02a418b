// The stratified bottom-up evaluation engine.
//
// Evaluates a stratified Datalog program (negation + aggregates) against a
// Database, materializing every IDB predicate as a relation. Within each
// stratum, recursive rules run to fixpoint either naively (recompute
// everything per round) or semi-naively (differential: one occurrence of a
// recursive subgoal reads the previous round's delta). Aggregate rules are
// evaluated once per stratum — stratification guarantees their inputs are
// complete.
//
// Section 6 of the paper asks implementations to reuse transitive-closure
// algorithms for closure literals. λ-translation (Def. 2.4) turns each
// closure literal into the rule pair p(X,Y) :- q(X,Y). p(X,Y) :- q(X,Z),
// p(Z,Y). The semi-naive engine evaluates each stratum's components in
// dependence order (PlanStratum) and serves every such pair with one
// tc::ColumnarTransitiveClosure call over its already-complete base q.

#ifndef GRAPHLOG_EVAL_ENGINE_H_
#define GRAPHLOG_EVAL_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "datalog/ast.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace graphlog::obs {
class Tracer;         // obs/trace.h
struct QueryProfile;  // obs/profile.h
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
  /// Worker lanes for rule execution: 1 (default) is the serial path, 0
  /// resolves to hardware concurrency, N > 1 uses N lanes. Join plans
  /// partition their driver relation across lanes with per-partition
  /// derivation buffers merged in partition order, so relation contents,
  /// insertion order, provenance, and stats are bit-identical across all
  /// settings.
  unsigned num_threads = 1;
  /// When set, the engine records a span per stratification, stratum, and
  /// fixpoint round (delta sizes, rule firings, join-plan choice, per-lane
  /// busy times) into this tracer. Null (the default) is the
  /// zero-overhead path: every instrumentation site is a single pointer
  /// test. See obs/trace.h.
  obs::Tracer* tracer = nullptr;
  /// When set, the engine folds `eval.runs`, every summed counter of
  /// kEvalCounters, and the per-stratum/per-round distributions
  /// (`eval.stratum_rounds`, and `eval.delta_rows` — each round's
  /// combined delta) into this process-wide registry. Null (the default)
  /// costs one pointer test; updates are per-round/per-run, never
  /// per-tuple. See obs/metrics.h.
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
  /// Total fixpoint rounds across strata; a served closure is one round.
  uint64_t iterations = 0;
  /// Satisfying assignments enumerated; a served closure adds the
  /// kernel's pair visits (tc::TcStats::pair_visits).
  uint64_t rule_firings = 0;
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

  /// \brief Folds `other` into this one, counter by counter as
  /// kEvalCounters says (sums add, peaks take the max — the merged value
  /// is the peak over the combined run). The single accumulation point
  /// for drivers that sum stats over multiple engine runs (e.g. one per
  /// query graph).
  void Merge(const EvalStats& other);
};

/// \brief Every counter of EvalStats, listed once. EvalStats::Merge, the
/// engine's `eval.*` registry export (EvalOptions::metrics) and the
/// slow-query record's stats are all derived from this list, so a new
/// counter needs only its field and one entry here.
inline constexpr obs::CounterField<EvalStats> kEvalCounters[] = {
    {"eval.iterations", &EvalStats::iterations},
    {"eval.rule_firings", &EvalStats::rule_firings},
    {"eval.tuples_derived", &EvalStats::tuples_derived},
    {"eval.strata", &EvalStats::strata},
    {"eval.index_builds", &EvalStats::index_builds},
    {"eval.index_appends", &EvalStats::index_appends},
    {"eval.peak_delta_rows", &EvalStats::peak_delta_rows,
     obs::CounterFold::kMax},
    {"eval.peak_delta_bytes", &EvalStats::peak_delta_bytes,
     obs::CounterFold::kMax},
};

inline void EvalStats::Merge(const EvalStats& other) {
  obs::FoldCounters(kEvalCounters, other, this);
  truncated |= other.truncated;
  if (truncated_by.empty()) truncated_by = other.truncated_by;
}

/// \brief The kernel that serves closure components, as EXPLAIN, the
/// profile and the trace name it.
inline constexpr char kTcKernelName[] = "tc::ColumnarTransitiveClosure";

/// \brief One evaluation unit of a stratum (see PlanStratum).
struct StratumGroup {
  /// Rule indices into the program, in program order.
  std::vector<int> rules;
  /// Set when the group is one unbound binary TC rule pair served by
  /// tc::ColumnarTransitiveClosure: the closure head p and its base q.
  Symbol tc_head = kNoSymbol;
  Symbol tc_base = kNoSymbol;

  bool served() const { return tc_head != kNoSymbol; }
};

/// \brief Splits the stratum `rules` of `prog` into evaluation groups.
///
/// A component of the stratum is served when it is one predicate p whose
/// rules datalog::MatchTcRules recognizes with n=1, w=0, and p's relation
/// in `db` is absent or empty (the fixpoint would extend existing rows).
/// Served components are ordered by the dependence graph's strongly
/// connected components (a deterministic topological order), and
/// consecutive unserved components merge into one semi-naive group. A
/// stratum with no served component — every stratum under
/// Strategy::kNaive — is one group holding `rules` unchanged.
std::vector<StratumGroup> PlanStratum(const datalog::Program& prog,
                                      const std::vector<int>& rules,
                                      const storage::Database& db,
                                      Strategy strategy);

/// \brief Evaluates `prog` against `db` (checking arity consistency,
/// safety, and stratifiability first). IDB relations are created or
/// extended in `db`. Returns evaluation statistics.
Result<EvalStats> Evaluate(const datalog::Program& prog,
                           storage::Database* db,
                           const EvalOptions& options = {});

/// \brief Extends a fixpoint of `prog` already materialized in `db` after
/// some base relations grew: `grown_from[p]` is the first row of base `p`
/// the materialized fixpoint has not seen (rows only ever append, so the
/// new rows are the suffix from there). The result is set-equal to a
/// cold Evaluate over the grown bases.
///
/// The same engine runs it, with every EvalOptions knob (lanes, governor,
/// tracer, metrics, profile, provenance): each group's rules that read a
/// grown or local predicate run semi-naively, their first round reading
/// the grown suffixes; rules reading neither are skipped; a head that
/// grows joins the grown set for the groups above from its pre-run size;
/// a served closure whose head is empty still goes to the TC kernel. A
/// governed abort truncates every head back to its pre-run size. Growth
/// reaching an aggregate or a negated subgoal fails with kInternal:
/// insertions there can retract derived tuples, so callers must rule it
/// out first (cache::ViewCatalog does).
Result<EvalStats> EvaluateGrowth(const datalog::Program& prog,
                                 storage::Database* db,
                                 const std::map<Symbol, size_t>& grown_from,
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
