// Governor cost model: what governing a query costs when nothing trips,
// and how fast a cancel lands when something must be stopped.
//
//  * BM_EvalGovernorOverhead/{mode}: linear TC through the engine with
//    mode 0 = no governor (the null-pointer baseline), 1 = governor
//    attached but idle (token + per-round checks only), 2 = governor with
//    every budget armed high enough never to trip (the full round-boundary
//    accounting). The 0-vs-1 and 0-vs-2 deltas are the acceptance gate:
//    governed-but-untripped must sit within noise of ungoverned.
//  * BM_ParallelTcGovernorOverhead/{governed}: the same ablation on the
//    4-lane columnar TC fan-out (tc/columnar_tc.h), where the per-source
//    check rides the pool lanes.
//  * BM_ParallelTcCancelLatency: manual-time measurement of the headline
//    robustness number — the wall-clock gap between CancellationToken::
//    Cancel() on a large in-flight 4-lane closure and the kernel
//    returning kCancelled. Bounded by one BFS poll interval per lane, so
//    it should sit orders of magnitude under the closure's runtime.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "eval/engine.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

constexpr char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

/// Governor whose budgets are armed but can never trip at this scale.
gov::GovernorContext UntrippableGovernor() {
  gov::GovernorContext g;
  g.budget.max_result_rows = 1'000'000'000;
  g.budget.max_delta_rows = 1'000'000'000;
  g.budget.max_rounds = 1'000'000'000;
  g.budget.max_bytes = 1ull << 40;
  return g;
}

/// mode: 0 = ungoverned, 1 = idle governor, 2 = budgets armed (untripped).
void BM_EvalGovernorOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  gov::GovernorContext idle;
  gov::GovernorContext armed = UntrippableGovernor();
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db;
    CheckOk(workload::RandomDigraph(300, 900, 42, &db), "digraph");
    eval::EvalOptions opts;
    if (mode == 1) opts.governor = &idle;
    if (mode == 2) opts.governor = &armed;
    state.ResumeTiming();
    auto r = eval::EvaluateText(kLinearTc, &db, opts);
    CheckOk(r.status(), "linear tc");
    benchmark::DoNotOptimize(r->tuples_derived);
  }
}
BENCHMARK(BM_EvalGovernorOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("mode")
    ->Unit(benchmark::kMillisecond);

void BM_ParallelTcGovernorOverhead(benchmark::State& state) {
  const bool governed = state.range(0) != 0;
  storage::Database db;
  CheckOk(workload::RandomDigraph(600, 2400, 7, &db), "digraph");
  const storage::Relation& edges = *db.Find("edge");
  gov::GovernorContext armed = UntrippableGovernor();
  for (auto _ : state) {
    auto r = tc::ColumnarTransitiveClosure(edges, 4, nullptr,
                                           governed ? &armed : nullptr);
    CheckOk(r.status(), "columnar tc");
    benchmark::DoNotOptimize(r->size());
  }
}
BENCHMARK(BM_ParallelTcGovernorOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("governed")
    ->Unit(benchmark::kMillisecond);

/// Manual time: from Cancel() to the evaluator's return. The worker is
/// launched per iteration and cancelled a moment after it starts; the
/// closure itself takes far longer than the cancel delay, so nearly every
/// iteration measures a genuine mid-flight abort (the `cancelled` counter
/// reports the fraction).
void BM_ParallelTcCancelLatency(benchmark::State& state) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(1200, 6000, 99, &db), "digraph");
  const storage::Relation& edges = *db.Find("edge");
  int64_t cancelled = 0, total = 0;
  for (auto _ : state) {
    gov::GovernorContext g;
    gov::CancellationToken token = g.token;
    std::atomic<bool> started{false};
    Status result = Status::OK();
    std::thread worker([&] {
      started.store(true, std::memory_order_release);
      result = tc::ColumnarTransitiveClosure(edges, 4, nullptr, &g).status();
    });
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto t0 = std::chrono::steady_clock::now();
    token.Cancel();
    worker.join();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    ++total;
    if (result.code() == StatusCode::kCancelled) ++cancelled;
  }
  state.counters["cancelled_fraction"] =
      total == 0 ? 0.0 : static_cast<double>(cancelled) / total;
}
BENCHMARK(BM_ParallelTcCancelLatency)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void Report() {
  bench::Banner(
      "Query governor: cancellation latency and untripped overhead",
      "an idle or armed-but-untripped governor costs pointer tests and "
      "round-boundary arithmetic (within noise); a cancel lands in "
      "poll-interval time, orders of magnitude under the query runtime");

  // Sanity: the governed paths actually engage at this scale.
  storage::Database db;
  CheckOk(workload::RandomDigraph(300, 900, 42, &db), "digraph");
  gov::GovernorContext g = UntrippableGovernor();
  eval::EvalOptions opts;
  opts.governor = &g;
  eval::EvalStats stats = CheckOk(eval::EvaluateText(kLinearTc, &db, opts),
                                  "governed linear tc");
  std::printf("governed run: %llu tuples, %llu rounds, truncated=%d\n",
              static_cast<unsigned long long>(stats.tuples_derived),
              static_cast<unsigned long long>(stats.iterations),
              stats.truncated ? 1 : 0);

  gov::GovernorContext capped;
  capped.budget.max_rounds = 3;
  capped.budget.return_partial = true;
  storage::Database db2;
  CheckOk(workload::RandomDigraph(300, 900, 42, &db2), "digraph");
  eval::EvalOptions opts2;
  opts2.governor = &capped;
  eval::EvalStats partial = CheckOk(
      eval::EvaluateText(kLinearTc, &db2, opts2), "capped linear tc");
  std::printf("capped run (max_rounds=3, partial): %llu tuples, "
              "truncated=%d (%s)\n",
              static_cast<unsigned long long>(partial.tuples_derived),
              partial.truncated ? 1 : 0, partial.truncated_by.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
