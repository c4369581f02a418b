// Tracing- and metrics-overhead ablation for the observability layer.
//
// The same queries evaluated through graphlog::Run with tracing off (the
// default: every instrumentation site is one null-pointer test), tracing
// on (span tree + metrics recorded), and the metrics registry attached
// (process-wide counters folded at the same sites). The disabled delta is
// the acceptance gate — it must stay under a few percent; the enabled
// costs show what a trace or a registry actually buys and costs.
//
//  * BM_GraphLogQuery/{tracing,metrics}: the Figure 4 two-graph query
//    over the Figure 1 flights — the figure-regression workload.
//  * BM_DatalogLinearTc/{tracing,metrics}: linear TC on a random digraph,
//    many fixpoint rounds -> many round spans / histogram samples.
//  * BM_DatalogNonlinearTc/{tracing,metrics}: nonlinear TC — heavier
//    rounds, so per-round overhead is better amortized.
//  * BM_ExplainOnly: parse + translate + stratify + plan, no execution.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "graphlog/api.h"
#include "storage/database.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

constexpr char kFigure4Query[] =
    "query feasible {\n"
    "  edge F1 -> A1 : arrival;\n"
    "  edge F2 -> D2 : departure;\n"
    "  edge A1 -> D2 : <;\n"
    "  edge F1 -> C : to;\n"
    "  edge F2 -> C : from;\n"
    "  distinguished F1 -> F2 : feasible;\n"
    "}\n"
    "query stop-connected {\n"
    "  edge C1 -> C2 : (-from) feasible+ to;\n"
    "  distinguished C1 -> C2 : stop-connected;\n"
    "}\n";

constexpr char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

constexpr char kNonlinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n";

/// state.range(0) == 1 turns tracing on; state.range(1) == 1 attaches a
/// process-wide metrics registry.
void BM_GraphLogQuery(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  const bool metrics = state.range(1) != 0;
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db;
    CheckOk(workload::Figure1Flights(&db), "figure 1 flights");
    QueryRequest req = QueryRequest::GraphLog(kFigure4Query);
    req.options.observability.tracing = tracing;
    if (metrics) req.options.observability.metrics = &registry;
    state.ResumeTiming();
    auto r = Run(req, &db);
    CheckOk(r.status(), "figure 4 query");
    benchmark::DoNotOptimize(r->trace);
  }
}
BENCHMARK(BM_GraphLogQuery)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->ArgNames({"tracing", "metrics"})
    ->Unit(benchmark::kMicrosecond);

void RunDatalogTc(benchmark::State& state, const char* program, int n,
                  int m) {
  const bool tracing = state.range(0) != 0;
  const bool metrics = state.range(1) != 0;
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db;
    CheckOk(workload::RandomDigraph(n, m, 42, &db), "random digraph");
    QueryRequest req = QueryRequest::Datalog(program);
    req.options.observability.tracing = tracing;
    if (metrics) req.options.observability.metrics = &registry;
    state.ResumeTiming();
    auto r = Run(req, &db);
    CheckOk(r.status(), "datalog tc");
    benchmark::DoNotOptimize(r->stats.datalog.tuples_derived);
  }
}

void BM_DatalogLinearTc(benchmark::State& state) {
  RunDatalogTc(state, kLinearTc, 300, 1200);
}
BENCHMARK(BM_DatalogLinearTc)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->ArgNames({"tracing", "metrics"})
    ->Unit(benchmark::kMillisecond);

void BM_DatalogNonlinearTc(benchmark::State& state) {
  RunDatalogTc(state, kNonlinearTc, 150, 600);
}
BENCHMARK(BM_DatalogNonlinearTc)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->ArgNames({"tracing", "metrics"})
    ->Unit(benchmark::kMillisecond);

void BM_ExplainOnly(benchmark::State& state) {
  storage::Database db;
  CheckOk(workload::Figure1Flights(&db), "figure 1 flights");
  for (auto _ : state) {
    QueryRequest req = QueryRequest::GraphLog(kFigure4Query);
    req.options.observability.explain = true;
    req.options.observability.explain_only = true;
    auto r = Run(req, &db);
    CheckOk(r.status(), "explain");
    benchmark::DoNotOptimize(r->explain);
  }
}
BENCHMARK(BM_ExplainOnly)->Unit(benchmark::kMicrosecond);

void Report() {
  bench::Banner(
      "Observability overhead ablation",
      "tracing off (default null-tracer path) vs on, same queries; the "
      "off-vs-baseline delta is the zero-overhead claim");

  // Sanity: the traced run records the expected artifacts.
  storage::Database db;
  CheckOk(workload::Figure1Flights(&db), "figure 1 flights");
  obs::MetricsRegistry registry;
  QueryRequest req = QueryRequest::GraphLog(kFigure4Query);
  req.options.observability.tracing = true;
  req.options.observability.explain = true;
  req.options.observability.metrics = &registry;
  auto r = Run(req, &db);
  CheckOk(r.status(), "traced figure 4 query");
  obs::MetricsSnapshot snap = registry.Snapshot();
  std::printf("traced run: %zu root spans, %llu rule firings, explain %zu "
              "bytes, deterministic export %zu bytes\n",
              r->trace.spans.size(),
              static_cast<unsigned long long>(r->stats.datalog.rule_firings),
              r->explain.size(),
              r->trace.ToJson(/*include_timings=*/false).size());
  std::printf("registry: %zu counters, %zu gauges, %zu histograms, "
              "deterministic export %zu bytes\n",
              snap.counters.size(), snap.gauges.size(),
              snap.histograms.size(),
              snap.ToJson(/*include_timings=*/false).size());
}

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
