#include "tc/transitive_closure.h"

#include <vector>

#include "gov/governor.h"

namespace graphlog::tc {

using storage::Relation;
using storage::Tuple;

namespace {

/// The kernels' shared round boundary: interrupts (cancellation,
/// deadline, armed tc.expand faults), then budgets against the closure
/// built so far. Sets *truncated and returns OK when the budget allows
/// partial results; the kernel then stops at the boundary.
Status TcRoundCheck(const gov::GovernorContext* governor, uint64_t rounds,
                    const Relation& tc, bool* truncated) {
  if (governor == nullptr) return Status::OK();
  GRAPHLOG_RETURN_NOT_OK(governor->Check("tc.expand"));
  const gov::ResourceBudget& b = governor->budget;
  if (!b.any()) return Status::OK();
  const char* tripped = nullptr;
  uint64_t observed = 0, limit = 0;
  if (b.max_rounds != 0 && rounds >= b.max_rounds) {
    tripped = "max_rounds";
    observed = rounds + 1;
    limit = b.max_rounds;
  } else if (b.max_result_rows != 0 && tc.size() > b.max_result_rows) {
    tripped = "max_result_rows";
    observed = tc.size();
    limit = b.max_result_rows;
  } else if (b.max_bytes != 0 && tc.MemoryBytes() > b.max_bytes) {
    tripped = "max_bytes";
    observed = tc.MemoryBytes();
    limit = b.max_bytes;
  }
  if (tripped == nullptr) return Status::OK();
  if (b.return_partial) {
    *truncated = true;
    return Status::OK();
  }
  return gov::BudgetExceededError(tripped, "tc.expand", observed, limit);
}

Result<Relation> NaiveTc(const Relation& edges, TcStats* stats,
                         const gov::GovernorContext* governor) {
  Relation tc(2);
  tc.InsertAll(edges);
  bool changed = true;
  bool truncated = false;
  uint64_t rounds = 0;
  const std::vector<uint32_t> cols = {0};
  while (changed) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    ++stats->rounds;
    changed = false;
    // Recompute T(x,y) :- T(x,z), E(z,y) over the FULL current closure.
    std::vector<Tuple> fresh;
    for (const Tuple& t : tc.rows()) {
      for (uint32_t i : edges.Probe(cols, Tuple{t[1]})) {
        ++stats->pair_visits;
        Tuple cand{t[0], edges.row(i)[1]};
        if (!tc.Contains(cand)) fresh.push_back(std::move(cand));
      }
    }
    for (Tuple& t : fresh) {
      if (tc.Insert(std::move(t))) changed = true;
    }
  }
  stats->truncated = truncated;
  return tc;
}

Result<Relation> SemiNaiveTc(const Relation& edges, TcStats* stats,
                             const gov::GovernorContext* governor) {
  Relation tc(2);
  Relation delta(2);
  tc.InsertAll(edges);
  delta.InsertAll(edges);
  bool truncated = false;
  uint64_t rounds = 0;
  const std::vector<uint32_t> cols = {0};
  while (!delta.empty()) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    ++stats->rounds;
    Relation next(2);
    for (const Tuple& t : delta.rows()) {
      for (uint32_t i : edges.Probe(cols, Tuple{t[1]})) {
        ++stats->pair_visits;
        Tuple cand{t[0], edges.row(i)[1]};
        if (!tc.Contains(cand)) next.Insert(std::move(cand));
      }
    }
    tc.InsertAll(next);
    delta = std::move(next);
  }
  stats->truncated = truncated;
  return tc;
}

Result<Relation> SquaringTc(const Relation& edges, TcStats* stats,
                            const gov::GovernorContext* governor) {
  Relation tc(2);
  tc.InsertAll(edges);
  const std::vector<uint32_t> cols = {0};
  bool changed = true;
  bool truncated = false;
  uint64_t rounds = 0;
  while (changed) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    ++stats->rounds;
    changed = false;
    // T := T ∪ T∘T — doubles the reachable path length each round.
    std::vector<Tuple> fresh;
    for (const Tuple& t : tc.rows()) {
      for (uint32_t i : tc.Probe(cols, Tuple{t[1]})) {
        ++stats->pair_visits;
        Tuple cand{t[0], tc.row(i)[1]};
        if (!tc.Contains(cand)) fresh.push_back(std::move(cand));
      }
    }
    for (Tuple& t : fresh) {
      if (tc.Insert(std::move(t))) changed = true;
    }
  }
  stats->truncated = truncated;
  return tc;
}

std::string_view AlgorithmName(TcAlgorithm algorithm) {
  switch (algorithm) {
    case TcAlgorithm::kNaive:
      return "naive";
    case TcAlgorithm::kSemiNaive:
      return "semi-naive";
    case TcAlgorithm::kSquaring:
      return "squaring";
  }
  return "unknown";
}

}  // namespace

Result<Relation> TransitiveClosure(const Relation& edges,
                                   TcAlgorithm algorithm, TcStats* stats,
                                   obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics,
                                   const gov::GovernorContext* governor) {
  if (edges.arity() != 2) {
    return Status::InvalidArgument(
        "transitive closure requires a binary relation");
  }
  obs::SpanGuard span(tracer, "tc");
  TcStats local;
  if (stats == nullptr) stats = &local;
  Relation closure(2);
  switch (algorithm) {
    case TcAlgorithm::kNaive: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, NaiveTc(edges, stats, governor));
      break;
    }
    case TcAlgorithm::kSemiNaive: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, SemiNaiveTc(edges, stats, governor));
      break;
    }
    case TcAlgorithm::kSquaring: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, SquaringTc(edges, stats, governor));
      break;
    }
    default:
      return Status::InvalidArgument("unknown TC algorithm");
  }
  if (span.enabled()) {
    span.AddNote("algorithm", AlgorithmName(algorithm));
    span.AddAttr("edges", static_cast<int64_t>(edges.size()));
    span.AddAttr("pairs", static_cast<int64_t>(closure.size()));
    for (const auto& c : kTcCounters) {
      span.AddAttr(c.field_name(), static_cast<int64_t>(stats->*c.field));
    }
  }
  if (metrics != nullptr) ExportTcMetrics(*stats, closure.size(), metrics);
  return closure;
}

void ExportTcMetrics(const TcStats& stats, size_t output_pairs,
                     obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->counter("tc.invocations")->Increment();
  obs::ExportCounters(kTcCounters, stats, metrics);
  metrics->histogram("tc.output_pairs")
      ->Observe(static_cast<int64_t>(output_pairs));
}

}  // namespace graphlog::tc
