// TC ablation: the Section 6 claim that GraphLog implementations can
// "benefit from the existing work on transitive closure computation".
//
// Compares the three round-based closure algorithms with the columnar
// per-source BFS kernel (tc/columnar_tc.h, one lane) on three graph
// shapes:
//   * chain  — maximal diameter: semi-naive needs O(n) rounds, squaring
//              O(log n); per-source BFS wins outright.
//   * random — small diameter: round counts converge, constant factors
//              dominate.
//   * tree   — closure size n log n; per-source BFS shines.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
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

// Kernels 0-2 are the TcAlgorithm values; 3 is the columnar kernel on one
// lane.
constexpr int kColumnar = 3;
const char* kKernelNames[] = {"naive", "semi", "squaring", "columnar"};

storage::Relation Close(const storage::Relation& e, int kernel,
                        tc::TcStats* stats = nullptr) {
  if (kernel == kColumnar) {
    return CheckOk(
        tc::ColumnarTransitiveClosure(e, 1, nullptr, nullptr, stats),
        "columnar closure");
  }
  return CheckOk(
      tc::TransitiveClosure(e, static_cast<tc::TcAlgorithm>(kernel), stats),
      "closure");
}

void Report() {
  bench::Banner("TC ablation — naive vs semi-naive vs squaring vs columnar",
                "semi-naive beats naive; squaring needs O(log diameter) "
                "rounds; per-source BFS avoids join machinery entirely");
  std::printf("%-8s %6s | %10s %10s %10s %10s  (rounds; columnar: sources)\n",
              "shape", "n", "naive", "semi", "squaring", "columnar");
  for (Shape shape : {kChain, kRandom, kTree}) {
    int n = 128;
    storage::Database db = MakeGraph(shape, n);
    const storage::Relation& e = *db.Find("edge");
    tc::TcStats s[4];
    storage::Relation oracle = Close(e, 0, &s[0]);
    bool match = true;
    for (int k = 1; k < 4; ++k) {
      if (!Close(e, k, &s[k]).SetEquals(oracle)) match = false;
    }
    std::printf("%-8s %6zu | %10llu %10llu %10llu %10llu  %s\n",
                ShapeName(shape), e.size(),
                static_cast<unsigned long long>(s[0].rounds),
                static_cast<unsigned long long>(s[1].rounds),
                static_cast<unsigned long long>(s[2].rounds),
                static_cast<unsigned long long>(s[3].rounds),
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
    for (int kernel = 0; kernel < 4; ++kernel) {
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
