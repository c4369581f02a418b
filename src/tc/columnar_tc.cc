#include "tc/columnar_tc.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
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

Result<Relation> ColumnarTransitiveClosure(
    const Relation& edges, unsigned num_threads,
    obs::MetricsRegistry* metrics, const gov::GovernorContext* governor,
    TcStats* stats, columnar::CsrCache* cache) {
  if (edges.arity() != 2) {
    return Status::InvalidArgument(
        "transitive closure requires a binary relation");
  }
  const unsigned lanes = exec::ThreadPool::ResolveParallelism(num_threads);

  columnar::CsrCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  GRAPHLOG_ASSIGN_OR_RETURN(std::shared_ptr<const Csr> csr,
                            cache->Get(edges, metrics, governor));
  const uint32_t n = csr->num_nodes();

  // Governed fan-out: one BFS per source, first failing source (in
  // source order) wins, lanes drain once the stop flag is up, token
  // polled inside the expansion.
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  Status lane_error = Status::OK();
  size_t err_src = n;
  auto record_error = [&](size_t s, Status st) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (s < err_src) {
      err_src = s;
      lane_error = std::move(st);
    }
    stop.store(true, std::memory_order_relaxed);
  };
  const std::atomic<bool>* cancel =
      governor != nullptr ? governor->token.flag() : nullptr;
  std::vector<std::vector<uint32_t>> reach(n);
  {
    exec::ThreadPool pool(lanes);
    // Per-worker scratch bitsets, reused across sources.
    struct Scratch {
      Bitset visited, frontier, next;
    };
    std::vector<Scratch> scratch(pool.parallelism());
    for (Scratch& sc : scratch) {
      sc.visited.ResetTo(n);
      sc.frontier.ResetTo(n);
      sc.next.ResetTo(n);
    }
    pool.ParallelFor(
        n,
        [&](unsigned wid, size_t s) {
          if (governor != nullptr) {
            if (stop.load(std::memory_order_relaxed)) return;
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
        },
        governor != nullptr ? &stop : nullptr);
  }
  if (err_src < n) return lane_error;

  size_t total = 0;
  for (const auto& local : reach) total += local.size();
  Relation tc(2);
  tc.Reserve(total);
  // Each (source, reached) pair is unique by construction — sources are
  // distinct and each source's reach set holds distinct nodes — so the
  // merge bulk-loads past the dedup set entirely.
  for (uint32_t s = 0; s < n; ++s) {
    const Value& vs = csr->values[s];
    for (uint32_t v : reach[s]) {
      tc.AppendUnique(Tuple{vs, csr->values[v]});
    }
  }
  TcStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->rounds = n;
  stats->pair_visits = total;
  // Budgets on the merged closure: the deterministic boundary of the
  // kernel. `row_cap` is the number of rows the tripped budgets keep,
  // starting at the whole closure, so a cap of 0 truncates everything.
  if (governor != nullptr) {
    GRAPHLOG_RETURN_NOT_OK(governor->CheckInterrupts("tc.expand"));
    const gov::ResourceBudget& b = governor->budget;
    uint64_t row_cap = tc.size();
    if (b.max_result_rows != 0 && tc.size() > b.max_result_rows) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_result_rows", "tc.expand",
                                        tc.size(), b.max_result_rows);
      }
      row_cap = b.max_result_rows;
    }
    if (b.max_bytes != 0 && tc.MemoryBytes() > b.max_bytes) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_bytes", "tc.expand",
                                        tc.MemoryBytes(), b.max_bytes);
      }
      // Rounding the per-row estimate up keeps the cap below the
      // closure's size whenever the byte budget trips.
      uint64_t per_row = (tc.MemoryBytes() + tc.size() - 1) / tc.size();
      row_cap = std::min<uint64_t>(row_cap, b.max_bytes / per_row);
    }
    if (row_cap < tc.size()) {
      tc.TruncateTo(row_cap);
      stats->truncated = true;
    }
  }
  ExportTcMetrics(*stats, tc.size(), metrics);
  return tc;
}

}  // namespace graphlog::tc
