#include "rpq/rpq_eval.h"

#include <algorithm>
#include <deque>
#include <set>

#include "columnar/bitset.h"
#include "gov/governor.h"
#include "rpq/dfa.h"

namespace graphlog::rpq {

using graph::DataGraph;
using graph::Edge;
using graph::NodeId;
using storage::Relation;
using storage::Tuple;

namespace {

bool EdgeMatches(const Edge& e, const NfaTransition& t) {
  if (e.predicate != t.predicate) return false;
  if (t.filters.empty()) return true;
  if (t.filters.size() != e.args.size()) return false;
  for (size_t i = 0; i < t.filters.size(); ++i) {
    if (t.filters[i].has_value() && !(e.args[i] == *t.filters[i])) {
      return false;
    }
  }
  return true;
}

/// Governed-search state shared by every per-source product search of
/// one evaluation: a step counter so the periodic full check fires at a
/// bounded interval even across many small sources, plus the truncation
/// flag a return_partial budget trip raises.
struct GovState {
  const gov::GovernorContext* ctx = nullptr;
  uint64_t steps = 0;
  bool truncated = false;

  /// Per-pop poll: the cancellation token every step (one relaxed load),
  /// the full check — deadline, armed rpq.step faults, row/byte budgets
  /// against the result relation — every 256 steps. On a return_partial
  /// trip sets `truncated` and returns OK; the searches then stop and
  /// keep the pairs found so far.
  Status Poll(const Relation& out) {
    if (ctx == nullptr) return Status::OK();
    if (ctx->token.cancelled()) {
      return Status::Cancelled("query cancelled at rpq.step");
    }
    if ((++steps & 255u) != 0) return Status::OK();
    GRAPHLOG_RETURN_NOT_OK(ctx->Check("rpq.step"));
    const gov::ResourceBudget& b = ctx->budget;
    if (b.max_result_rows != 0 && out.size() > b.max_result_rows) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_result_rows", "rpq.step",
                                        out.size(), b.max_result_rows);
      }
      truncated = true;
    } else if (b.max_bytes != 0 && out.MemoryBytes() > b.max_bytes) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_bytes", "rpq.step",
                                        out.MemoryBytes(), b.max_bytes);
      }
      truncated = true;
    }
    return Status::OK();
  }
};

/// BFS over the (node, nfa-state) product from one source node.
Status SearchFrom(const DataGraph& g, const Nfa& nfa, NodeId source,
                  const std::optional<NodeId>& target, Relation* out,
                  RpqStats* stats, GovState* gstate) {
  const size_t ns = nfa.num_states();
  // visited[node * ns + state]
  std::vector<bool> visited(g.num_nodes() * ns, false);
  std::vector<bool> scratch(ns);

  std::deque<std::pair<NodeId, uint32_t>> queue;
  auto enqueue = [&](NodeId n, uint32_t state) {
    // Expand the epsilon closure of `state` at node n.
    std::vector<uint32_t> states{state};
    nfa.EpsilonClosure(&states, &scratch);
    for (uint32_t s : states) {
      size_t idx = static_cast<size_t>(n) * ns + s;
      if (!visited[idx]) {
        visited[idx] = true;
        queue.emplace_back(n, s);
      }
    }
  };

  enqueue(source, nfa.start());
  while (!queue.empty()) {
    if (gstate != nullptr) {
      GRAPHLOG_RETURN_NOT_OK(gstate->Poll(*out));
      if (gstate->truncated) return Status::OK();
    }
    auto [n, state] = queue.front();
    queue.pop_front();
    ++stats->product_states_visited;
    if (state == nfa.accept()) {
      if (!target.has_value() || n == *target) {
        out->Insert(Tuple{g.node_value(source), g.node_value(n)});
      }
      // Keep searching: other accepting nodes may lie further on.
    }
    for (const NfaTransition& t : nfa.TransitionsFrom(state)) {
      if (t.epsilon) continue;  // covered by closure at enqueue
      const auto& edge_ids = t.inverted ? g.InEdges(n) : g.OutEdges(n);
      for (uint32_t ei : edge_ids) {
        ++stats->edge_traversals;
        const Edge& e = g.edge(ei);
        if (!EdgeMatches(e, t)) continue;
        NodeId next = t.inverted ? e.from : e.to;
        enqueue(next, t.to);
      }
    }
  }
  return Status::OK();
}

/// Annotates the "rpq" span with automaton shape, endpoint restrictions,
/// and search effort, and folds the kernel counters into the metrics
/// registry, once the product search has finished.
void FinishRpqSpan(obs::SpanGuard& span, std::string_view automaton,
                   size_t automaton_states, const RpqOptions& options,
                   const RpqStats& stats, const Relation& out) {
  if (span.enabled()) {
    span.AddNote("automaton", automaton);
    span.AddAttr("automaton_states", static_cast<int64_t>(automaton_states));
    span.AddAttr("source_fixed", options.source.has_value() ? 1 : 0);
    span.AddAttr("target_fixed", options.target.has_value() ? 1 : 0);
    for (const auto& c : kRpqCounters) {
      span.AddAttr(c.field_name(), static_cast<int64_t>(stats.*c.field));
    }
    span.AddAttr("pairs", static_cast<int64_t>(out.size()));
  }
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    m.counter("rpq.invocations")->Increment();
    obs::ExportCounters(kRpqCounters, stats, &m);
    m.histogram("rpq.result_pairs")
        ->Observe(static_cast<int64_t>(out.size()));
  }
}

}  // namespace

Result<Relation> EvalRpq(const DataGraph& g, const gl::PathExpr& expr,
                         const RpqOptions& options, RpqStats* stats) {
  GRAPHLOG_ASSIGN_OR_RETURN(Nfa nfa, Nfa::Compile(expr));
  obs::SpanGuard span(options.tracer, "rpq");
  RpqStats local;
  if (stats == nullptr) stats = &local;
  GovState gstate{options.governor};
  // Up-front check so a pre-cancelled token, expired deadline, or armed
  // first-hit fault trips even when the search itself has no work.
  GRAPHLOG_RETURN_NOT_OK(gov::CheckPoint(options.governor, "rpq.step"));

  Relation out(2);
  auto finish = [&]() {
    stats->truncated = gstate.truncated;
    FinishRpqSpan(span, "nfa", nfa.num_states(), options, *stats, out);
  };
  std::optional<NodeId> target;
  if (options.target.has_value()) {
    NodeId t;
    if (!g.FindNode(*options.target, &t)) {  // unknown node
      finish();
      return out;
    }
    target = t;
  }

  if (options.source.has_value()) {
    NodeId s;
    if (g.FindNode(*options.source, &s)) {
      GRAPHLOG_RETURN_NOT_OK(
          SearchFrom(g, nfa, s, target, &out, stats, &gstate));
    }
    finish();
    return out;
  }
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    GRAPHLOG_RETURN_NOT_OK(SearchFrom(g, nfa, s, target, &out, stats,
                                      &gstate));
    if (gstate.truncated) break;
  }
  finish();
  return out;
}

Result<Relation> EvalRpqText(const DataGraph& g, std::string_view expr_text,
                             SymbolTable* syms, const RpqOptions& options,
                             RpqStats* stats) {
  GRAPHLOG_ASSIGN_OR_RETURN(gl::PathExpr expr,
                            gl::ParsePathExpr(expr_text, syms));
  return EvalRpq(g, expr, options, stats);
}

namespace {

/// BFS with parent pointers: reconstructs one shortest qualifying path
/// per reached accepting (node, state) pair.
void SearchWitnesses(const DataGraph& g, const Nfa& nfa, NodeId source,
                     const std::optional<NodeId>& target,
                     std::vector<RpqWitness>* out) {
  const size_t ns = nfa.num_states();
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  struct Parent {
    size_t prev = static_cast<size_t>(-1);  // product index
    uint32_t edge = kNone;                  // edge taken (kNone: epsilon)
  };
  std::vector<bool> visited(g.num_nodes() * ns, false);
  std::vector<Parent> parent(g.num_nodes() * ns);
  std::vector<bool> scratch(ns);
  std::set<NodeId> reported;

  std::deque<std::pair<NodeId, uint32_t>> queue;
  auto product = [&](NodeId n, uint32_t s) {
    return static_cast<size_t>(n) * ns + s;
  };
  auto enqueue = [&](NodeId n, uint32_t state, size_t prev, uint32_t edge) {
    // Expand the epsilon closure, recording epsilon parents.
    std::vector<uint32_t> states{state};
    nfa.EpsilonClosure(&states, &scratch);
    for (uint32_t s : states) {
      size_t idx = product(n, s);
      if (visited[idx]) continue;
      visited[idx] = true;
      // Closure-only states chain to the entry state via an edge-less
      // (epsilon) parent; the entry state records the traversed edge.
      parent[idx] =
          (s == state) ? Parent{prev, edge} : Parent{product(n, state), kNone};
      queue.emplace_back(n, s);
    }
  };

  enqueue(source, nfa.start(), static_cast<size_t>(-1), kNone);
  while (!queue.empty()) {
    auto [n, state] = queue.front();
    queue.pop_front();
    if (state == nfa.accept() && reported.insert(n).second) {
      if (!target.has_value() || n == *target) {
        RpqWitness w;
        w.source = g.node_value(source);
        w.target = g.node_value(n);
        size_t idx = product(n, state);
        while (idx != static_cast<size_t>(-1)) {
          const Parent& p = parent[idx];
          if (p.edge != kNone) w.edge_ids.push_back(p.edge);
          idx = p.prev;
        }
        std::reverse(w.edge_ids.begin(), w.edge_ids.end());
        out->push_back(std::move(w));
      }
    }
    for (const NfaTransition& t : nfa.TransitionsFrom(state)) {
      if (t.epsilon) continue;
      const auto& edge_ids = t.inverted ? g.InEdges(n) : g.OutEdges(n);
      for (uint32_t ei : edge_ids) {
        const Edge& e = g.edge(ei);
        if (!EdgeMatches(e, t)) continue;
        NodeId next = t.inverted ? e.from : e.to;
        enqueue(next, t.to, product(n, state), ei);
      }
    }
  }
}

}  // namespace

Result<std::vector<RpqWitness>> EvalRpqWitnesses(const DataGraph& g,
                                                 const gl::PathExpr& expr,
                                                 const RpqOptions& options) {
  GRAPHLOG_ASSIGN_OR_RETURN(Nfa nfa, Nfa::Compile(expr));
  std::vector<RpqWitness> out;
  std::optional<NodeId> target;
  if (options.target.has_value()) {
    NodeId t;
    if (!g.FindNode(*options.target, &t)) return out;
    target = t;
  }
  if (options.source.has_value()) {
    NodeId s;
    if (!g.FindNode(*options.source, &s)) return out;
    SearchWitnesses(g, nfa, s, target, &out);
    return out;
  }
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    SearchWitnesses(g, nfa, s, target, &out);
  }
  return out;
}

namespace {

using columnar::Bitset;

/// Per-label successor arrays: adj[li].targets[offsets[n]..offsets[n+1])
/// are the nodes one (alphabet[li])-edge away from n, direction already
/// folded in. Built once per evaluation; every per-source search then
/// only touches label-matched entries.
struct LabelAdj {
  std::vector<uint32_t> offsets;  // num_nodes + 1
  std::vector<uint32_t> targets;
};

std::vector<LabelAdj> BuildLabelAdjacency(const DataGraph& g,
                                          const Dfa& dfa) {
  const size_t n = g.num_nodes();
  std::vector<LabelAdj> adj(dfa.alphabet().size());
  for (size_t li = 0; li < dfa.alphabet().size(); ++li) {
    const DfaLabel& label = dfa.alphabet()[li];
    LabelAdj& a = adj[li];
    a.offsets.assign(n + 1, 0);
    for (const Edge& e : g.edges()) {
      if (e.predicate != label.predicate) continue;
      ++a.offsets[(label.inverted ? e.to : e.from) + 1];
    }
    for (size_t i = 0; i < n; ++i) a.offsets[i + 1] += a.offsets[i];
    a.targets.resize(a.offsets[n]);
    std::vector<uint32_t> cur(a.offsets.begin(), a.offsets.end() - 1);
    for (const Edge& e : g.edges()) {
      if (e.predicate != label.predicate) continue;
      const NodeId from = label.inverted ? e.to : e.from;
      const NodeId to = label.inverted ? e.from : e.to;
      a.targets[cur[from]++] = to;
    }
  }
  return adj;
}

/// One node-bitset per DFA state, three generations (reached, current
/// frontier, next wave), plus the per-source emitted set; all reused
/// across sources.
struct BitsetScratch {
  std::vector<Bitset> reached, frontier, next;
  Bitset emitted;
};

/// Bitset-frontier product search from one source node: each round, for
/// every (state q, label li) with a transition q -> q2, or the adjacency
/// spans of q's frontier nodes into q2's next wave; then the wave minus
/// reached becomes the new frontier. Newly reached nodes in accepting
/// states are emitted as they surface, so governed budget trips keep the
/// pairs found so far.
Status SearchFromBitset(const DataGraph& g, const Dfa& dfa,
                        const std::vector<LabelAdj>& adj, NodeId source,
                        const std::optional<NodeId>& target, Relation* out,
                        RpqStats* stats, GovState* gstate,
                        BitsetScratch* sc) {
  const size_t ns = dfa.num_states();
  for (size_t q = 0; q < ns; ++q) {
    sc->reached[q].Reset();
    sc->frontier[q].Reset();
  }
  sc->emitted.Reset();
  sc->reached[dfa.start()].Set(source);
  sc->frontier[dfa.start()].Set(source);
  ++stats->product_states_visited;
  // Result pairs bypass the hash-dedup Insert path: `emitted` makes a
  // node's first acceptance the only one per source, and sources differ
  // across calls, so every appended pair is provably new.
  auto emit = [&](NodeId n) {
    if (!sc->emitted.TestAndSet(n)) return;
    if (!target.has_value() || n == *target) {
      out->AppendUnique(Tuple{g.node_value(source), g.node_value(n)});
    }
  };
  if (dfa.IsAccepting(dfa.start())) emit(source);

  bool any = true;
  while (any) {
    for (size_t q = 0; q < ns; ++q) sc->next[q].Reset();
    Status poll_error = Status::OK();
    bool stop = false;
    for (size_t q = 0; q < ns && !stop; ++q) {
      if (!sc->frontier[q].Any()) continue;
      for (size_t li = 0; li < adj.size() && !stop; ++li) {
        const uint32_t q2 = dfa.Next(static_cast<uint32_t>(q), li);
        if (q2 == Dfa::kNoTransition) continue;
        const LabelAdj& a = adj[li];
        Bitset& dst = sc->next[q2];
        sc->frontier[q].ForEachSet([&](uint32_t u) {
          if (stop) return;
          if (gstate != nullptr) {
            Status st = gstate->Poll(*out);
            if (!st.ok() || gstate->truncated) {
              poll_error = std::move(st);
              stop = true;
              return;
            }
          }
          const uint32_t lo = a.offsets[u], hi = a.offsets[u + 1];
          stats->edge_traversals += hi - lo;
          for (uint32_t k = lo; k < hi; ++k) dst.Set(a.targets[k]);
        });
      }
    }
    if (!poll_error.ok()) return poll_error;
    if (stop) return Status::OK();  // truncated: keep pairs found so far
    any = false;
    for (size_t q = 0; q < ns; ++q) {
      if (sc->next[q].AndNot(sc->reached[q])) {
        sc->reached[q].OrWith(sc->next[q]);
        any = true;
        stats->product_states_visited += sc->next[q].Count();
        if (dfa.IsAccepting(static_cast<uint32_t>(q))) {
          sc->next[q].ForEachSet([&](uint32_t v) { emit(v); });
        }
      }
      std::swap(sc->frontier[q], sc->next[q]);
    }
  }
  return Status::OK();
}

}  // namespace

Result<Relation> EvalRpqBitset(const DataGraph& g, const gl::PathExpr& expr,
                               const RpqOptions& options, RpqStats* stats) {
  GRAPHLOG_ASSIGN_OR_RETURN(Nfa nfa, Nfa::Compile(expr));
  GRAPHLOG_ASSIGN_OR_RETURN(Dfa det, Dfa::Determinize(nfa));
  Dfa dfa = det.Minimize();
  obs::SpanGuard span(options.tracer, "rpq");
  RpqStats local;
  if (stats == nullptr) stats = &local;
  GovState gstate{options.governor};
  GRAPHLOG_RETURN_NOT_OK(gov::CheckPoint(options.governor, "rpq.step"));

  const std::vector<LabelAdj> adj = BuildLabelAdjacency(g, dfa);
  BitsetScratch sc;
  sc.reached.resize(dfa.num_states());
  sc.frontier.resize(dfa.num_states());
  sc.next.resize(dfa.num_states());
  for (size_t q = 0; q < dfa.num_states(); ++q) {
    sc.reached[q].ResetTo(g.num_nodes());
    sc.frontier[q].ResetTo(g.num_nodes());
    sc.next[q].ResetTo(g.num_nodes());
  }
  sc.emitted.ResetTo(g.num_nodes());

  Relation out(2);
  auto finish = [&]() {
    stats->truncated = gstate.truncated;
    FinishRpqSpan(span, "dfa-bitset", dfa.num_states(), options, *stats, out);
  };
  std::optional<NodeId> target;
  if (options.target.has_value()) {
    NodeId t;
    if (!g.FindNode(*options.target, &t)) {
      finish();
      return out;
    }
    target = t;
  }
  if (options.source.has_value()) {
    NodeId s;
    if (g.FindNode(*options.source, &s)) {
      GRAPHLOG_RETURN_NOT_OK(SearchFromBitset(g, dfa, adj, s, target, &out,
                                              stats, &gstate, &sc));
    }
    finish();
    return out;
  }
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    GRAPHLOG_RETURN_NOT_OK(SearchFromBitset(g, dfa, adj, s, target, &out,
                                            stats, &gstate, &sc));
    if (gstate.truncated) break;
  }
  finish();
  return out;
}

}  // namespace graphlog::rpq
