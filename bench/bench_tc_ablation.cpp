// TC ablation: the Section 6 claim that GraphLog implementations can
// "benefit from the existing work on transitive closure computation".
//
// Times the columnar per-source BFS kernel (tc/columnar_tc.h, one lane),
// which the engine serves every unbound binary TC pair with, against the
// engine's own fixpoint over the same closure on three graph shapes:
//   * naive  — Strategy::kNaive over the right-linear pair (the oracle);
//   * semi   — the semi-naive fixpoint over the left-linear pair, which
//              the kernel does not serve.
// Shapes:
//   * chain  — maximal diameter: the fixpoints need O(n) rounds;
//              per-source BFS wins outright.
//   * random — small diameter: round counts are low, constant factors
//              dominate.
//   * tree   — closure size n log n; per-source BFS shines.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

enum Shape { kChain = 0, kRandom = 1, kTree = 2 };

storage::Database MakeGraph(Shape shape, int n) {
  storage::Database db;
  switch (shape) {
    case kChain:
      CheckOk(workload::Chain(n, &db), "chain");
      break;
    case kRandom:
      CheckOk(workload::RandomDigraph(n, 3 * n, 42, &db), "random");
      break;
    case kTree:
      // depth so that node count ~ n for a binary tree
      int depth = 1;
      while ((2 << depth) < n) ++depth;
      CheckOk(workload::KaryTree(2, depth, &db), "tree");
      break;
  }
  return db;
}

const char* ShapeName(Shape s) {
  switch (s) {
    case kChain:
      return "chain";
    case kRandom:
      return "random";
    case kTree:
      return "tree";
  }
  return "?";
}

// Arms 0-1 are the engine's fixpoints; 2 is the columnar kernel on one
// lane.
constexpr int kColumnar = 2;
const char* kKernelNames[] = {"naive", "semi", "columnar"};

/// The closure by `kernel`; `rounds` (nullable) gets the fixpoint's rounds
/// or, for the kernel, the sources it expanded.
storage::Relation Close(const storage::Relation& e, int kernel,
                        uint64_t* rounds = nullptr) {
  if (kernel == kColumnar) {
    tc::TcStats stats;
    storage::Relation closure = CheckOk(
        tc::ColumnarTransitiveClosure(e, 1, nullptr, nullptr, &stats),
        "columnar closure");
    if (rounds != nullptr) *rounds = stats.rounds;
    return closure;
  }
  eval::EvalStats stats;
  storage::Relation closure = bench::FixpointClosure(
      e, kernel == 0 ? eval::Strategy::kNaive : eval::Strategy::kSemiNaive,
      &stats);
  if (rounds != nullptr) *rounds = stats.iterations;
  return closure;
}

void Report() {
  bench::Banner("TC ablation — engine fixpoints vs the columnar kernel",
                "semi-naive beats naive; per-source BFS avoids join "
                "machinery entirely");
  std::printf("%-8s %6s | %10s %10s %10s  (rounds; columnar: sources)\n",
              "shape", "n", "naive", "semi", "columnar");
  for (Shape shape : {kChain, kRandom, kTree}) {
    int n = 128;
    storage::Database db = MakeGraph(shape, n);
    const storage::Relation& e = *db.Find("edge");
    uint64_t rounds[3] = {0, 0, 0};
    storage::Relation oracle = Close(e, 0, &rounds[0]);
    bool match = true;
    for (int k = 1; k < 3; ++k) {
      if (!Close(e, k, &rounds[k]).SetEquals(oracle)) match = false;
    }
    std::printf("%-8s %6zu | %10llu %10llu %10llu  %s\n", ShapeName(shape),
                e.size(), static_cast<unsigned long long>(rounds[0]),
                static_cast<unsigned long long>(rounds[1]),
                static_cast<unsigned long long>(rounds[2]),
                match ? "(MATCH)" : "(MISMATCH!)");
  }
  std::printf("\n");
}

void BM_Tc(benchmark::State& state) {
  Shape shape = static_cast<Shape>(state.range(0));
  int kernel = static_cast<int>(state.range(1));
  int n = static_cast<int>(state.range(2));
  storage::Database db = MakeGraph(shape, n);
  const storage::Relation& e = *db.Find("edge");
  size_t closure_size = 0;
  for (auto _ : state) {
    closure_size = Close(e, kernel).size();
    benchmark::DoNotOptimize(closure_size);
  }
  state.SetLabel(std::string(ShapeName(shape)) + "/" + kKernelNames[kernel] +
                 "/closure=" + std::to_string(closure_size));
}
void TcArgs(benchmark::internal::Benchmark* b) {
  for (int shape : {kChain, kRandom, kTree}) {
    for (int kernel = 0; kernel < 3; ++kernel) {
      for (int n : {64, 256}) {
        b->Args({shape, kernel, n});
      }
    }
  }
}
BENCHMARK(BM_Tc)->Apply(TcArgs);

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
