// Parallel-evaluation claim: "GraphLog is in QNC, hence amenable to
// efficient parallel implementations" (Section 6).
//
// Times the columnar transitive closure (tc/columnar_tc.h) as lanes grow;
// lane count 1 is the sequential baseline. Each source's bitset BFS runs
// on one lane, but the merge of the per-source results is serial, and on
// this graph the merge dominates: the curve is flat rather than
// near-linear. The report cross-checks the closure against the kNaive
// oracle and the 4-lane insertion order against the single-lane one.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench/bench_util.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

storage::Database MakeGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 4 * n, 123, &db), "random digraph");
  return db;
}

void Report() {
  bench::Banner("Parallel TC — the Section 6 QNC claim, operationally",
                "per-source closure partitions across lanes; results "
                "identical to the kNaive oracle at every lane count");
  storage::Database db = MakeGraph(200);
  const storage::Relation& e = *db.Find("edge");
  auto naive = CheckOk(tc::TransitiveClosure(e, tc::TcAlgorithm::kNaive),
                       "naive");
  auto one = CheckOk(tc::ColumnarTransitiveClosure(e, 1), "1 lane");
  auto four = CheckOk(tc::ColumnarTransitiveClosure(e, 4), "4 lanes");
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());
  std::printf("closure size: naive=%zu 1-lane=%zu 4-lane=%zu %s\n\n",
              naive.size(), one.size(), four.size(),
              naive.SetEquals(four) && one.rows() == four.rows()
                  ? "(MATCH)"
                  : "(MISMATCH!)");
}

void BM_ParallelTc(benchmark::State& state) {
  unsigned threads = static_cast<unsigned>(state.range(0));
  storage::Database db = MakeGraph(400);
  const storage::Relation& e = *db.Find("edge");
  for (auto _ : state) {
    auto tc = CheckOk(tc::ColumnarTransitiveClosure(e, threads), "closure");
    benchmark::DoNotOptimize(tc.size());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_ParallelTc)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
