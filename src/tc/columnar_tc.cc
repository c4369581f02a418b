#include "tc/columnar_tc.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "columnar/bitset.h"
#include "columnar/csr.h"
#include "columnar/csr_cache.h"
#include "exec/thread_pool.h"
#include "gov/governor.h"

namespace graphlog::tc {

using columnar::Bitset;
using columnar::Csr;
using storage::Relation;
using storage::Tuple;

void ExportTcMetrics(const TcStats& stats, size_t output_pairs,
                     obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->counter("tc.invocations")->Increment();
  obs::ExportCounters(kTcCounters, stats, metrics);
  metrics->histogram("tc.output_pairs")
      ->Observe(static_cast<int64_t>(output_pairs));
}

Result<Relation> ColumnarTransitiveClosure(
    const Relation& edges, unsigned num_threads,
    obs::MetricsRegistry* metrics, const gov::GovernorContext* governor,
    TcStats* stats, columnar::CsrCache* cache, exec::ThreadPool* pool) {
  if (edges.arity() != 2) {
    return Status::InvalidArgument(
        "transitive closure requires a binary relation");
  }
  TcStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  columnar::CsrCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  GRAPHLOG_ASSIGN_OR_RETURN(std::shared_ptr<const Csr> csr,
                            cache->Get(edges, metrics, governor));
  const uint32_t n = csr->num_nodes();

  const gov::ResourceBudget no_budget;
  const gov::ResourceBudget& budget =
      governor != nullptr ? governor->budget : no_budget;
  // Both budgets become one row cap: the closure holds no index, so each
  // of its rows costs Relation::RowBytes(2). The cap stops the fan-out as
  // soon as the sources finished so far hold more pairs than it allows:
  // the full closure then holds more too, so the outcome is the same for
  // every lane count. A strict budget fails there; return_partial stops
  // claiming sources. Sources are claimed in index order, so every source
  // below the last one claimed still completes, and those hold the
  // prefix the merge keeps. Either way no more than the cap is merged.
  constexpr uint64_t kNoCap = UINT64_MAX;
  uint64_t row_cap = kNoCap;
  bool capped_by_bytes = false;
  if (budget.max_result_rows != 0) row_cap = budget.max_result_rows;
  if (budget.max_bytes != 0 &&
      budget.max_bytes / Relation::RowBytes(2) < row_cap) {
    row_cap = budget.max_bytes / Relation::RowBytes(2);
    capped_by_bytes = true;
  }
  std::atomic<uint64_t> pairs_found{0};
  std::atomic<bool> over_budget{false};

  // Governed fan-out: one BFS per source, first failing source (in
  // source order) wins, lanes drain once the stop flag is up, token
  // polled inside the expansion.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status lane_error = Status::OK();
  size_t err_src = n;
  auto record_error = [&](size_t s, Status st) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (s < err_src) {
      err_src = s;
      lane_error = std::move(st);
    }
    failed.store(true, std::memory_order_relaxed);
    stop.store(true, std::memory_order_relaxed);
  };
  const std::atomic<bool>* cancel =
      governor != nullptr ? governor->token.flag() : nullptr;
  std::vector<std::vector<uint32_t>> reach(n);
  {
    std::optional<exec::ThreadPool> own_pool;
    if (pool == nullptr) {
      pool = &own_pool.emplace(
          exec::ThreadPool::ResolveParallelism(num_threads));
    }
    // Per-worker scratch bitsets, reused across sources.
    struct Scratch {
      Bitset visited, frontier, next;
    };
    std::vector<Scratch> scratch(pool->parallelism());
    for (Scratch& sc : scratch) {
      sc.visited.ResetTo(n);
      sc.frontier.ResetTo(n);
      sc.next.ResetTo(n);
    }
    pool->ParallelFor(
        n,
        [&](unsigned wid, size_t s) {
          if (governor != nullptr) {
            if (failed.load(std::memory_order_relaxed)) return;
            Status st = governor->Check("tc.expand");
            if (!st.ok()) {
              record_error(s, std::move(st));
              return;
            }
          }
          Scratch& sc = scratch[wid];
          sc.visited.Reset();
          sc.frontier.Reset();
          for (uint32_t v : csr->Sorted(static_cast<uint32_t>(s))) {
            sc.frontier.Set(v);
          }
          size_t expansions = 0;
          // frontier &~ visited = the genuinely new wave; or its spans
          // into next; repeat until the wave is empty.
          while (sc.frontier.AndNot(sc.visited)) {
            sc.visited.OrWith(sc.frontier);
            sc.next.Reset();
            bool aborted = false;
            sc.frontier.ForEachSet([&](uint32_t u) {
              if (aborted) return;
              if (cancel != nullptr && (++expansions & 1023u) == 0 &&
                  cancel->load(std::memory_order_relaxed)) {
                record_error(s,
                             Status::Cancelled(
                                 "query cancelled at tc.expand"));
                aborted = true;
                return;
              }
              for (uint32_t v : csr->Sorted(u)) sc.next.Set(v);
            });
            if (aborted) return;
            std::swap(sc.frontier, sc.next);
          }
          std::vector<uint32_t>& local = reach[s];
          local.reserve(sc.visited.Count());
          sc.visited.ForEachSet([&](uint32_t v) { local.push_back(v); });
          if (row_cap != kNoCap &&
              pairs_found.fetch_add(local.size(),
                                    std::memory_order_relaxed) +
                      local.size() >
                  row_cap) {
            over_budget.store(true, std::memory_order_relaxed);
            if (!budget.return_partial) {
              // Observed at the first row past the cap: a count that does
              // not depend on which sources happened to finish first.
              record_error(
                  s, capped_by_bytes
                         ? gov::BudgetExceededError(
                               "max_bytes", "tc.expand",
                               (row_cap + 1) * Relation::RowBytes(2),
                               budget.max_bytes)
                         : gov::BudgetExceededError("max_result_rows",
                                                    "tc.expand", row_cap + 1,
                                                    row_cap));
            }
            stop.store(true, std::memory_order_relaxed);
          }
        },
        governor != nullptr ? &stop : nullptr);
  }
  if (err_src < n) return lane_error;

  // The merge keeps every pair, or under a tripped return_partial cap
  // the first `row_cap` pairs in source order.
  const bool truncated = over_budget.load(std::memory_order_relaxed);
  if (!truncated) row_cap = kNoCap;
  stats->rounds = n;
  stats->pair_visits = 0;  // pairs of the sources the merge reads
  stats->truncated = truncated;
  Relation tc(2);
  // Each (source, reached) pair is unique by construction — sources are
  // distinct and each source's reach set holds distinct nodes — so the
  // merge bulk-loads past the dedup set entirely. The serial merge polls
  // the cancellation token every 1,024 pairs, like the expansion.
  size_t merged = 0;
  for (uint32_t s = 0; s < n && merged < row_cap; ++s) {
    const Value& vs = csr->values[s];
    stats->pair_visits += reach[s].size();
    for (uint32_t v : reach[s]) {
      if (merged == row_cap) break;
      if ((++merged & 1023u) == 0 && cancel != nullptr &&
          cancel->load(std::memory_order_relaxed)) {
        return Status::Cancelled("query cancelled at tc.expand");
      }
      tc.AppendUnique(Tuple{vs, csr->values[v]});
    }
  }
  if (governor != nullptr) {
    GRAPHLOG_RETURN_NOT_OK(governor->CheckInterrupts("tc.expand"));
  }
  ExportTcMetrics(*stats, tc.size(), metrics);
  return tc;
}

}  // namespace graphlog::tc
