// The src/server subsystem: concurrent multi-session serving.
//
// Expected shape: with 1 writer mixed into N client threads, throughput
// holds (readers run against pinned snapshots and never serialize on the
// writer) and tail latency stays bounded by single-query cost.
// BM_RunDirectPipeline times one single-caller query through
// graphlog::Run, the pipeline every session runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "graphlog/api.h"
#include "storage/database.h"
#include "storage/io.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

const char* kTcQuery =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

/// Seeds the server with a random digraph via one committed batch.
void SeedServer(Server* server, int nodes) {
  storage::Database scratch;
  CheckOk(workload::RandomDigraph(nodes, 3 * nodes, /*seed=*/7, &scratch),
          "digraph");
  CheckOk(server->Apply(WriteBatch().Facts(storage::DumpFacts(scratch)))
              .status(),
          "seed commit");
}

struct MixResult {
  double elapsed_s = 0;
  size_t ops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// One client thread: a session looping `ops` operations — mostly reads
/// (TC over the pinned snapshot), a refresh every few rounds, and, on the
/// designated writer thread, a one-edge commit per round.
MixResult RunMixedWorkload(Server* server, int threads, int ops_per_thread) {
  std::vector<std::vector<double>> lat_us(threads);
  std::atomic<int> write_seq{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto session = CheckOk(server->OpenSession(), "open session");
      lat_us[t].reserve(ops_per_thread);
      for (int i = 0; i < ops_per_thread; ++i) {
        const auto op0 = std::chrono::steady_clock::now();
        if (t == 0 && i % 10 == 9) {
          // The writer lane: commit one fresh edge (10% of its ops).
          int n = write_seq.fetch_add(1, std::memory_order_relaxed);
          CheckOk(session
                      ->Apply(WriteBatch().Insert(
                          "edge", {"w" + std::to_string(n),
                                   "w" + std::to_string(n + 1)}))
                      .status(),
                  "commit");
        } else {
          if (i % 5 == 4) CheckOk(session->Refresh(), "refresh");
          auto resp = CheckOk(session->Run(QueryRequest::GraphLog(kTcQuery)),
                              "read");
          benchmark::DoNotOptimize(resp.stats.result_tuples);
        }
        lat_us[t].push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - op0)
                                .count());
      }
    });
  }
  for (auto& c : clients) c.join();
  MixResult out;
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::vector<double> all;
  for (auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.ops = all.size();
  if (!all.empty()) {
    out.p50_us = all[all.size() / 2];
    out.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return out;
}

void Report() {
  bench::Banner(
      "Server/Session: concurrent mixed read/write serving",
      "N reader sessions over pinned snapshots sustain throughput while a "
      "writer commits; results stay bit-identical to quiesced runs");

  // Cross-check first: a session answer must equal a quiesced
  // single-threaded run over a copy of its snapshot.
  {
    Server server;
    SeedServer(&server, 96);
    auto session = CheckOk(server.OpenSession(), "open");
    const std::string facts = storage::DumpFacts(session->database());
    CheckOk(session->Run(QueryRequest::GraphLog(kTcQuery)).status(), "read");
    storage::Database quiesced;
    CheckOk(storage::LoadFacts(facts, &quiesced).status(), "copy");
    CheckOk(graphlog::Run(QueryRequest::GraphLog(kTcQuery), &quiesced)
                .status(),
            "quiesced");
    const size_t got = session->database().Find("t")->size();
    const size_t want = quiesced.Find("t")->size();
    if (got != want) {
      std::fprintf(stderr, "FATAL: session diverged from quiesced run\n");
      std::abort();
    }
    std::printf("  MATCH session == quiesced single-threaded run (%zu tuples)\n\n",
                got);
  }

  std::printf("  mixed workload: 90%% snapshot reads / 10%% commits on the "
              "writer lane, 40 ops per client\n");
  std::printf("  %-8s %12s %12s %12s\n", "clients", "ops/s", "p50(us)",
              "p99(us)");
  for (int threads : {1, 4, 8}) {
    Server server;
    SeedServer(&server, 96);
    MixResult r = RunMixedWorkload(&server, threads, 40);
    std::printf("  %-8d %12.0f %12.0f %12.0f\n", threads,
                static_cast<double>(r.ops) / r.elapsed_s, r.p50_us, r.p99_us);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// One single-caller query through graphlog::Run.

// Each iteration evaluates against a fresh database: the translation
// gensyms a helper relation per run, so reusing one database makes
// later iterations slower and biases lanes that pick different
// iteration counts. The rebuild happens outside the timed region.

void BM_RunDirectPipeline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db;
    CheckOk(workload::RandomDigraph(64, 192, /*seed=*/7, &db), "digraph");
    state.ResumeTiming();
    auto r = CheckOk(graphlog::Run(QueryRequest::GraphLog(kTcQuery), &db),
                     "eval");
    benchmark::DoNotOptimize(r.stats.result_tuples);
  }
}
BENCHMARK(BM_RunDirectPipeline);

// ---------------------------------------------------------------------------
// Mixed-workload throughput across client-thread counts (the serving
// claim; items processed = client operations).

void BM_ServerMixedWorkload(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int ops_per_client = (bench::kMixSamples + threads - 1) / threads;
  for (auto _ : state) {
    state.PauseTiming();
    Server server;
    SeedServer(&server, 64);
    state.ResumeTiming();
    MixResult r = RunMixedWorkload(&server, threads, ops_per_client);
    state.counters["p99_us"] = r.p99_us;
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(r.ops));
  }
}
// Wall-clock time: the work runs on the client threads, so the main
// thread's CPU time would overstate items_per_second.
BENCHMARK(BM_ServerMixedWorkload)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Snapshot mechanics at ingest scale: session open (materialization),
// commit (publish) and refresh cost against database size. The argument
// is the number of seeded `edge` rows (3 per node).

void BM_SessionOpen(benchmark::State& state) {
  Server server;
  SeedServer(&server, static_cast<int>(state.range(0) / 3));
  for (auto _ : state) {
    auto session = CheckOk(server.OpenSession(), "open");
    benchmark::DoNotOptimize(session->epoch());
  }
}
BENCHMARK(BM_SessionOpen)->Arg(6000)->Arg(24000);

void BM_CommitPublish(benchmark::State& state) {
  Server server;
  SeedServer(&server, static_cast<int>(state.range(0) / 3));
  int n = 0;
  for (auto _ : state) {
    CheckOk(server
                .Apply(WriteBatch().Insert(
                    "edge",
                    {"c" + std::to_string(n), "c" + std::to_string(n + 1)}))
                .status(),
            "commit");
    ++n;
  }
}
BENCHMARK(BM_CommitPublish)->Arg(6000)->Arg(24000);

/// A long-lived session catching up with one 8-fact commit that interns
/// fresh node names (the ingest workload's write), after a bound query
/// built an index over `edge`. Only the Refresh is timed.
void BM_SessionRefresh(benchmark::State& state) {
  Server server;
  SeedServer(&server, static_cast<int>(state.range(0) / 3));
  auto session = CheckOk(server.OpenSession(), "open");
  QueryRequest req = QueryRequest::GraphLog(
      "query reach { edge \"n1\" -> Y : edge+; "
      "distinguished \"n1\" -> Y : reach; }");
  req.options.translation.specialize_bound_closures = true;
  CheckOk(session->Run(req).status(), "read");
  int n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WriteBatch batch;
    for (int i = 0; i < 8; ++i, ++n) {
      batch.Insert("edge", {"f" + std::to_string(n), "n" + std::to_string(i)});
    }
    CheckOk(server.Apply(batch).status(), "commit");
    state.ResumeTiming();
    CheckOk(session->Refresh(), "refresh");
    benchmark::DoNotOptimize(session->epoch());
  }
}
BENCHMARK(BM_SessionRefresh)->Arg(6000)->Arg(24000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  Report();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
