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

  Relation result(3);
  std::vector<double> dist(n);
  std::vector<bool> has(n);
  uint64_t relaxations = 0;
  for (uint32_t s = 0; s < n; ++s) {
    GRAPHLOG_RETURN_NOT_OK(gov::CheckPoint(governor, "aggr.relax"));
    std::fill(has.begin(), has.end(), false);
    // Single-edge paths out of s.
    for (const WeightedEdge& e : out_edges[s]) {
      double v = FirstStep(options.along, e.w);
      if (!has[e.to] || Better(options.across, v, dist[e.to])) {
        dist[e.to] = v;
        has[e.to] = true;
      }
    }
    // Relax to fixpoint. For sum/count, improvement after n rounds means
    // an improving cycle -> the objective is unbounded.
    size_t round = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ++round;
      for (uint32_t u = 0; u < n; ++u) {
        if (!has[u]) continue;
        for (const WeightedEdge& e : out_edges[u]) {
          if (governor != nullptr && (++relaxations & 1023u) == 0) {
            GRAPHLOG_RETURN_NOT_OK(governor->CheckInterrupts("aggr.relax"));
          }
          double v = Extend(options.along, dist[u], e.w);
          if (!has[e.to] || Better(options.across, v, dist[e.to])) {
            dist[e.to] = v;
            has[e.to] = true;
            changed = true;
          }
        }
      }
      if (changed && unbounded_possible && round > n) {
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
      result.Insert(Tuple{values[s], values[v], val});
    }
  }
  return result;
}

}  // namespace graphlog::aggr
