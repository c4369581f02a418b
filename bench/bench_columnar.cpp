// Columnar ablation: the semi-naive engine with eval.columnar off vs on.
//
// The columnar layer (src/columnar/) is a pure constant-factor
// optimisation — same rows, same provenance, same stats — so the claim
// this bench checks is quantitative: the cost of serving the engine's
// probes from CSR adjacency spans instead of hash-index rows, on the
// linear-closure GraphLog program over bench_scaling's graph (CSR build
// cost included: the engine snapshots EDBs per batch).
//
// The Report() section cross-checks bit-identical rows and stats and
// prints the median speedup at the largest size; the google-benchmark
// timings show the shape across sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "eval/engine.h"
#include "storage/database.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

// bench_scaling's graph, seed included.
storage::Database MakeScalingGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 3 * n, 7, &db), "scaling graph");
  return db;
}

const char* kClosureProgram =
    "t(X, Y) :- edge(X, Y).\n"
    "t(X, Y) :- edge(X, Z), t(Z, Y).\n";

double MedianMs(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

template <typename F>
double TimeMs(F&& f) {
  auto t0 = std::chrono::steady_clock::now();
  f();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void Report() {
  bench::Banner(
      "Columnar ablation — CSR probes vs the row path in the engine",
      "identical rows and stats; CSR probes move only the probe term, "
      "so the speedup stays near 1x while dedup dominates");
  // The linear-closure program at the largest bench_scaling size. Fresh
  // database per run (the program materializes t), timing only the
  // evaluation.
  constexpr int kReps = 5;
  const int n = 256;
  std::vector<double> row_ms, col_ms;
  bool match = true;
  for (int i = 0; i < kReps; ++i) {
    eval::EvalStats row_stats, col_stats;
    storage::Database row_db = MakeScalingGraph(n);
    row_ms.push_back(TimeMs([&] {
      row_stats =
          CheckOk(eval::EvaluateText(kClosureProgram, &row_db), "row eval");
    }));
    storage::Database col_db = MakeScalingGraph(n);
    eval::EvalOptions opts;
    opts.columnar = true;
    col_ms.push_back(TimeMs([&] {
      col_stats = CheckOk(eval::EvaluateText(kClosureProgram, &col_db, opts),
                          "columnar eval");
    }));
    if (row_db.Find("t")->rows() != col_db.Find("t")->rows() ||
        row_stats.rule_firings != col_stats.rule_firings ||
        row_stats.tuples_derived != col_stats.tuples_derived) {
      match = false;
    }
  }
  double row = MedianMs(row_ms), col = MedianMs(col_ms);
  std::printf(
      "engine  n=%-4d row %8.2f ms | columnar %8.2f ms | %5.2fx  %s\n\n", n,
      row, col, row / col, match ? "(MATCH)" : "(MISMATCH!)");
}

// --- timed benchmark: strategy 0 = row path, 1 = columnar path ---

void BM_EngineClosure(benchmark::State& state) {
  int strategy = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  eval::EvalOptions opts;
  opts.columnar = strategy == 1;
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db = MakeScalingGraph(n);
    state.ResumeTiming();
    auto s = CheckOk(eval::EvaluateText(kClosureProgram, &db, opts), "eval");
    benchmark::DoNotOptimize(s.tuples_derived);
  }
  state.SetLabel(std::string(strategy == 0 ? "row" : "columnar") +
                 " n=" + std::to_string(n));
}
BENCHMARK(BM_EngineClosure)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 256})
    ->Args({1, 256})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
