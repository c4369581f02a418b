// Regular path query evaluation by automaton-graph product search.
//
// This is the [MW89]-style evaluator behind the Section 5 prototype's edge
// queries: instead of materializing closure relations through Datalog, it
// BFS-walks the product of the data graph and the query NFA. When an
// endpoint is fixed (the Figure 12 Rome -> Tokyo query) the search touches
// only the reachable part of the product — the asymptotic win the
// benchmark bench_fig12_prototype measures.
//
// Two evaluators share RpqOptions and RpqStats: EvalRpq walks the NFA
// product over the full path-expression fragment (filters, inverses) and
// is the oracle the tests check against and the base of the witness
// search; EvalRpqBitset is the plain-label kernel over the minimized DFA
// with bitset frontiers.

#ifndef GRAPHLOG_RPQ_RPQ_EVAL_H_
#define GRAPHLOG_RPQ_RPQ_EVAL_H_

#include <optional>

#include "common/result.h"
#include "graph/data_graph.h"
#include "graphlog/pre.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/nfa.h"
#include "storage/relation.h"

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::rpq {

/// \brief Endpoint restrictions for EvalRpq.
struct RpqOptions {
  /// When set, only paths starting at this node are searched.
  std::optional<Value> source;
  /// When set, only pairs ending at this node are reported.
  std::optional<Value> target;
  /// When set, the evaluator records an "rpq" span (automaton size,
  /// endpoint restrictions, product-search effort); null costs one
  /// pointer test. See obs/trace.h.
  obs::Tracer* tracer = nullptr;
  /// When set, the evaluator folds `rpq.invocations`,
  /// `rpq.product_states_visited`, and `rpq.edge_traversals` counters plus
  /// the `rpq.result_pairs` distribution into this registry at the same
  /// site the tracer's "rpq" span closes; null costs one pointer test.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, the product search is governed: the cancellation token is
  /// polled every product-state pop, and every ~256 pops the deadline,
  /// any armed `rpq.step` fault, and the max_result_rows / max_bytes
  /// budgets (against the result relation) are checked. A budget trip
  /// fails with kBudgetExceeded, or with return_partial stops the search
  /// and returns the pairs found so far with RpqStats::truncated set.
  /// The search is single-threaded and its order deterministic, so
  /// partial results are reproducible. Null costs one pointer test.
  /// (EvalRpqWitnesses is not governed — bound it via EvalRpq first.)
  const gov::GovernorContext* governor = nullptr;
};

/// \brief Search-effort counters.
struct RpqStats {
  uint64_t product_states_visited = 0;
  uint64_t edge_traversals = 0;
  /// True when a governed search stopped early on a return_partial
  /// budget trip; the returned relation holds the pairs found so far.
  bool truncated = false;
};

/// \brief Evaluates `expr` over `g`, returning the binary relation of
/// (source, target) node values connected by a matching path.
///
/// Zero-length matches (from `=`, `*`, `?`) relate every graph node to
/// itself, subject to the endpoint restrictions.
Result<storage::Relation> EvalRpq(const graph::DataGraph& g,
                                  const gl::PathExpr& expr,
                                  const RpqOptions& options = {},
                                  RpqStats* stats = nullptr);

/// \brief Convenience: parse the expression and evaluate.
Result<storage::Relation> EvalRpqText(const graph::DataGraph& g,
                                      std::string_view expr_text,
                                      SymbolTable* syms,
                                      const RpqOptions& options = {},
                                      RpqStats* stats = nullptr);

/// \brief Plain-label evaluation through the determinized + minimized
/// automaton (see rpq/dfa.h): per-DFA-label adjacency arrays built once
/// per evaluation, then per-source expansion of one node-bitset frontier
/// per DFA state (columnar/bitset.h) — each round ors whole adjacency
/// spans into the successor state's frontier instead of enqueuing
/// (node, state) pairs one at a time. Same result set as EvalRpq on the
/// plain-label fragment; rejects expressions with attribute filters
/// (kUnsupported). Row insertion order differs from EvalRpq's
/// (pairs surface in BFS-round, then ascending dense-node order).
/// Effort counters reflect this kernel's own work:
/// product_states_visited counts newly reached (node, state) bits and
/// edge_traversals counts label-matched adjacency entries only, so both
/// are typically far below the NFA walker's. Governance matches EvalRpq
/// (rpq.step polls inside frontier expansion; budgets against the result
/// relation, truncation stops the search keeping pairs found so far).
Result<storage::Relation> EvalRpqBitset(const graph::DataGraph& g,
                                        const gl::PathExpr& expr,
                                        const RpqOptions& options = {},
                                        RpqStats* stats = nullptr);

/// \brief One answer with a qualifying path: the data-graph edge indices
/// of a shortest matching path from `source` to `target`.
struct RpqWitness {
  Value source, target;
  std::vector<uint32_t> edge_ids;  ///< indices into DataGraph::edges()
};

/// \brief Like EvalRpq, but also returns one (BFS-shortest) qualifying
/// path per answer pair — the Section 5 prototype's "highlighting
/// qualifying paths directly on the database graph".
Result<std::vector<RpqWitness>> EvalRpqWitnesses(
    const graph::DataGraph& g, const gl::PathExpr& expr,
    const RpqOptions& options = {});

}  // namespace graphlog::rpq

#endif  // GRAPHLOG_RPQ_RPQ_EVAL_H_
