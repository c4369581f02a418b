// Path summarization (Section 4 of the paper).
//
// Computes, for every pair of nodes (u, v) connected by a path in a
// weighted edge relation base(u, v, w), the aggregate
//
//     across-agg  over all paths p from u to v  of  along-agg of the
//     weights on p
//
// e.g. "the length of a shortest path" is (along=sum, across=min) and the
// critical-path computation of Figure 11 is (along=sum, across=max).
//
// Supported combinations:
//   along  ∈ {sum, count, min, max}
//   across ∈ {min, max}
//
// Implementation: per-source relaxation to fixpoint (Bellman-Ford style)
// in passes over the nodes in reverse DFS postorder that relax only nodes
// whose value improved, so a DAG settles in one pass that relaxes each
// reachable edge once. For bounded
// along-operators (min/max) the value lattice is finite and relaxation
// always converges. For sum/count, a cycle that keeps improving the
// objective (a negative cycle under across=min, any reachable cycle with
// improving weight under across=max) makes the query unbounded: a value
// still improving after n passes is reported as kCycleInPath — the
// scheduling use case expects a DAG.
//
// Governance: a full governor check at the `aggr.relax` point before each
// source, and a cancellation/deadline check every 1,024 relaxations, so a
// cancelled or timed-out summary stops mid-source and returns no rows.

#ifndef GRAPHLOG_AGGR_PATH_SUMMARY_H_
#define GRAPHLOG_AGGR_PATH_SUMMARY_H_

#include "common/result.h"
#include "datalog/ast.h"
#include "gov/governor.h"
#include "storage/relation.h"

namespace graphlog::aggr {

/// \brief Options for PathSummarize.
struct PathSummaryOptions {
  datalog::AggKind along = datalog::AggKind::kSum;
  datalog::AggKind across = datalog::AggKind::kMin;
  /// Column of the base relation holding the weight; the first two columns
  /// are the edge endpoints. Ignored when along == count.
  uint32_t weight_column = 2;
};

/// \brief Summarizes paths of `base` (arity >= 2; endpoints in columns
/// 0 and 1; numeric weights in `weight_column` unless along == count).
///
/// Returns a ternary relation (u, v, value) with one row per ordered pair
/// of distinct-or-equal nodes connected by a non-empty path. Weight values
/// are int or double; the result is double when any weight is double.
Result<storage::Relation> PathSummarize(
    const storage::Relation& base, const PathSummaryOptions& options,
    const gov::GovernorContext* governor = nullptr);

}  // namespace graphlog::aggr

#endif  // GRAPHLOG_AGGR_PATH_SUMMARY_H_
