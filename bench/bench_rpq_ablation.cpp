// RPQ ablation: three strategies for the Section 5 prototype's edge
// queries.
//
//   NFA product   — Thompson automaton, epsilon closures on the fly
//                   (rpq::EvalRpq),
//   DFA bitset    — determinized + minimized automaton, one node-bitset
//                   frontier per state (rpq::EvalRpqBitset),
//   Datalog       — lambda translation + semi-naive engine.
//
// Expected shape: the automaton strategies beat the Datalog translation
// for all-pairs evaluation on larger graphs (no join machinery, no
// auxiliary relation materialization); the DFA kernel beats NFA, most
// when the expression has union/epsilon redundancy; all three agree
// exactly.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "rpq/dfa.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

struct Workload {
  const char* name;
  const char* expr;
};

const Workload kWorkloads[] = {
    {"closure", "p+"},
    {"union-closure", "(p | q)+"},
    {"redundant-union", "(p | p p | p p p)+"},
    {"composition", "p q+ p"},
};

storage::Database MakeGraph(int n, uint64_t seed) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 3 * n, seed, &db, "p"), "gen p");
  CheckOk(workload::RandomDigraph(n, 2 * n, seed + 9, &db, "q"), "gen q");
  return db;
}

void Report() {
  bench::Banner("RPQ ablation — NFA vs DFA bitset vs Datalog translation",
                "all three strategies agree; automaton product search "
                "avoids materializing closure relations");
  storage::Database db = MakeGraph(30, 4);
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  std::printf("%-18s %10s %10s %10s %8s\n", "expression", "nfa-states",
              "dfa-states", "min-states", "answers");
  for (const Workload& w : kWorkloads) {
    auto expr =
        CheckOk(gl::ParsePathExpr(w.expr, &db.symbols()), "parse");
    auto nfa = CheckOk(rpq::Nfa::Compile(expr), "nfa");
    auto dfa = CheckOk(rpq::Dfa::Determinize(nfa), "dfa");
    auto min = dfa.Minimize();
    auto answers = CheckOk(rpq::EvalRpq(g, expr), "eval");
    auto answers_dfa = CheckOk(rpq::EvalRpqBitset(g, expr), "eval bitset");
    std::printf("%-18s %10zu %10zu %10zu %8zu %s\n", w.expr,
                nfa.num_states(), dfa.num_states(), min.num_states(),
                answers.size(),
                answers.SetEquals(answers_dfa) ? "(MATCH)" : "(MISMATCH!)");
  }
  std::printf("\n");
}

void BM_Rpq(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(0)];
  // strategy: 0 nfa, 1 bitset, 2 datalog
  int strategy = static_cast<int>(state.range(1));
  int n = static_cast<int>(state.range(2));
  storage::Database db = MakeGraph(n, 4);
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  auto expr = CheckOk(gl::ParsePathExpr(w.expr, &db.symbols()), "parse");
  std::string query = std::string("query rq { edge X -> Y : ") + w.expr +
                      "; distinguished X -> Y : rq; }";
  for (auto _ : state) {
    switch (strategy) {
      case 0: {
        auto r = CheckOk(rpq::EvalRpq(g, expr), "nfa eval");
        benchmark::DoNotOptimize(r.size());
        break;
      }
      case 1: {
        auto r = CheckOk(rpq::EvalRpqBitset(g, expr), "bitset eval");
        benchmark::DoNotOptimize(r.size());
        break;
      }
      case 2: {
        state.PauseTiming();
        storage::Database fresh = MakeGraph(n, 4);
        state.ResumeTiming();
        auto r = CheckOk(bench::EvalGraphLogText(query, &fresh), "datalog");
        benchmark::DoNotOptimize(r.result_tuples);
        break;
      }
    }
  }
  const char* names[] = {"nfa", "bitset", "datalog"};
  state.SetLabel(std::string(w.name) + "/" + names[strategy]);
}
void RpqArgs(benchmark::internal::Benchmark* b) {
  for (int w = 0; w < 4; ++w) {
    for (int s = 0; s < 3; ++s) {
      b->Args({w, s, 60});
    }
  }
}
BENCHMARK(BM_Rpq)->Apply(RpqArgs);

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
