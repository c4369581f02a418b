// Dedicated transitive-closure kernels.
//
// Section 6 of the paper: "implementations can benefit from the existing
// work on transitive closure computation and linear Datalog optimization".
// This module holds the round-based side of that substrate: three
// interchangeable fixpoint algorithms for the positive closure of a binary
// relation, the ablation bench_tc_ablation times and kNaive the oracle the
// tests check every other kernel against.
//
//   * kNaive      — iterate T := T ∪ T∘E until fixpoint, recomputing the
//                   full join each round (the naive Datalog evaluation).
//   * kSemiNaive  — differential: only join the last round's new pairs
//                   against E (what the Datalog engine does).
//   * kSquaring   — logarithmic rounds: T := T ∪ T∘T ("smart" TC, [Ull89]);
//                   few rounds, heavier joins.
//
// All three return identical relations; they differ only in cost shape.
// The per-source, multi-lane closure is ColumnarTransitiveClosure
// (tc/columnar_tc.h).

#ifndef GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_
#define GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_

#include <cstdint>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::tc {

/// \brief Algorithm selector for TransitiveClosure().
enum class TcAlgorithm : uint8_t {
  kNaive,
  kSemiNaive,
  kSquaring,
};

/// \brief Statistics of one closure computation.
struct TcStats {
  uint64_t rounds = 0;        ///< fixpoint rounds (columnar: sources)
  uint64_t pair_visits = 0;   ///< candidate pairs generated (incl. dups)
  /// True when a governed run stopped early at a round boundary because
  /// a resource budget tripped with ResourceBudget::return_partial set;
  /// the returned relation then holds the (deterministic) partial
  /// closure built so far.
  bool truncated = false;
};

/// \brief Computes the positive transitive closure of binary relation
/// `edges`. Fails with kInvalidArgument when arity != 2.
///
/// When `tracer` is set a "tc" span is recorded (algorithm, input/output
/// sizes, rounds, candidate pairs); when `metrics` is set the cumulative
/// kernel counters (`tc.invocations`, `tc.rounds`, `tc.pair_visits`) and
/// the `tc.output_pairs` distribution are folded into the registry. Null
/// for either costs one pointer test.
///
/// When `governor` is set the kernels poll cancellation/deadline and any
/// armed `tc.expand` fault at every round boundary and enforce the
/// resource budgets (max_rounds against fixpoint rounds, max_result_rows
/// against closure pairs, max_bytes against the closure's estimated
/// bytes). Budget trips either fail with
/// kBudgetExceeded or — with return_partial — stop at the boundary and
/// return the partial closure with TcStats::truncated set. All checks
/// compare deterministic quantities at deterministic points.
Result<storage::Relation> TransitiveClosure(
    const storage::Relation& edges, TcAlgorithm algorithm,
    TcStats* stats = nullptr, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr,
    const gov::GovernorContext* governor = nullptr);

}  // namespace graphlog::tc

#endif  // GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_
