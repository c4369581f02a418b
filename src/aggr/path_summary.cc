#include "aggr/path_summary.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace graphlog::aggr {

using datalog::AggKind;
using storage::Relation;
using storage::Tuple;

namespace {

struct WeightedEdge {
  uint32_t from, to;
  double w;
};

double Extend(AggKind along, double path_value, double w) {
  switch (along) {
    case AggKind::kSum:
      return path_value + w;
    case AggKind::kCount:
      return path_value + 1.0;
    case AggKind::kMin:
      return std::min(path_value, w);
    case AggKind::kMax:
      return std::max(path_value, w);
    case AggKind::kAvg:
      return path_value;  // rejected earlier
  }
  return path_value;
}

double FirstStep(AggKind along, double w) {
  return along == AggKind::kCount ? 1.0 : w;
}

bool Better(AggKind across, double a, double b) {
  return across == AggKind::kMin ? a < b : a > b;
}

/// The nodes in reverse DFS postorder: a topological order of an acyclic
/// graph, and for any graph an order that sweeps mostly with the edges.
std::vector<uint32_t> ReversePostorder(
    const std::vector<std::vector<WeightedEdge>>& out_edges) {
  const size_t n = out_edges.size();
  std::vector<uint32_t> post;
  post.reserve(n);
  std::vector<bool> seen(n);
  std::vector<std::pair<uint32_t, size_t>> stack;  // (node, next edge)
  for (uint32_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      const uint32_t u = stack.back().first;
      const size_t k = stack.back().second++;
      if (k == out_edges[u].size()) {
        post.push_back(u);
        stack.pop_back();
      } else if (const uint32_t v = out_edges[u][k].to; !seen[v]) {
        seen[v] = true;
        stack.push_back({v, 0});
      }
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

}  // namespace

Result<Relation> PathSummarize(const Relation& base,
                               const PathSummaryOptions& options,
                               const gov::GovernorContext* governor) {
  if (options.across != AggKind::kMin && options.across != AggKind::kMax) {
    return Status::Unsupported("across-path aggregate must be min or max");
  }
  if (options.along == AggKind::kAvg) {
    return Status::Unsupported("avg along paths is not path-decomposable");
  }
  if (base.arity() < 2) {
    return Status::InvalidArgument("base relation must have arity >= 2");
  }
  bool needs_weight = options.along != AggKind::kCount;
  if (needs_weight && options.weight_column >= base.arity()) {
    return Status::InvalidArgument("weight column out of range");
  }

  // Intern nodes and build the edge list.
  std::unordered_map<Value, uint32_t, ValueHash> ids;
  std::vector<Value> values;
  auto intern = [&](const Value& v) {
    auto [it, inserted] = ids.emplace(v, static_cast<uint32_t>(values.size()));
    if (inserted) values.push_back(v);
    return it->second;
  };
  std::vector<WeightedEdge> edges;
  bool any_double = false;
  for (const Tuple& t : base.rows()) {
    double w = 0.0;
    if (needs_weight) {
      const Value& wv = t[options.weight_column];
      if (!wv.is_numeric()) {
        return Status::TypeError("non-numeric path weight");
      }
      if (wv.is_double()) any_double = true;
      w = wv.ToDouble();
    }
    edges.push_back(WeightedEdge{intern(t[0]), intern(t[1]), w});
  }
  size_t n = values.size();

  // Per-source relaxation. Group edges by source for locality.
  std::vector<std::vector<WeightedEdge>> out_edges(n);
  for (const WeightedEdge& e : edges) out_edges[e.from].push_back(e);

  bool unbounded_possible = options.along == AggKind::kSum ||
                            options.along == AggKind::kCount;

  // Relaxation passes sweep the nodes in reverse DFS postorder, a
  // topological order when the graph is acyclic, and relax only the nodes
  // improved since they were last relaxed (`dirty`). A node improved from
  // an earlier node is relaxed later in the same pass, one improved from a
  // later node in the next pass. So a DAG settles in one pass that relaxes
  // each reachable edge once, and a pass is at least one Bellman-Ford
  // round: without an improving cycle every value is final after n - 1
  // passes.
  const std::vector<uint32_t> order = ReversePostorder(out_edges);

  Relation result(3);
  std::vector<double> dist(n);
  std::vector<bool> has(n), dirty(n);
  uint64_t relaxations = 0;
  for (uint32_t s = 0; s < n; ++s) {
    GRAPHLOG_RETURN_NOT_OK(gov::CheckPoint(governor, "aggr.relax"));
    std::fill(has.begin(), has.end(), false);
    bool changed = false;
    auto improve = [&](uint32_t v, double value) {
      if (has[v] && !Better(options.across, value, dist[v])) return;
      dist[v] = value;
      has[v] = true;
      dirty[v] = true;
      changed = true;
    };
    // Single-edge paths out of s.
    for (const WeightedEdge& e : out_edges[s]) {
      improve(e.to, FirstStep(options.along, e.w));
    }
    // Relax to fixpoint. For sum/count, an improvement in pass n + 1
    // means an improving cycle -> the objective is unbounded.
    for (size_t pass = 1; changed; ++pass) {
      changed = false;
      for (uint32_t u : order) {
        if (!dirty[u]) continue;
        dirty[u] = false;
        for (const WeightedEdge& e : out_edges[u]) {
          if (governor != nullptr && (++relaxations & 1023u) == 0) {
            GRAPHLOG_RETURN_NOT_OK(governor->CheckInterrupts("aggr.relax"));
          }
          improve(e.to, Extend(options.along, dist[u], e.w));
        }
      }
      if (changed && unbounded_possible && pass > n) {
        return Status::CycleInPath(
            "path summarization is unbounded: an improving cycle is "
            "reachable (the along=sum/count objective requires an acyclic "
            "reachable subgraph)");
      }
    }
    for (uint32_t v = 0; v < n; ++v) {
      if (!has[v]) continue;
      Value val = (any_double || options.along == AggKind::kAvg)
                      ? Value::Double(dist[v])
                      : Value::Int(static_cast<int64_t>(dist[v]));
      result.AppendUnique(Tuple{values[s], values[v], val});
    }
  }
  return result;
}

}  // namespace graphlog::aggr
