// The src/net subsystem: framed TCP serving on loopback.
//
// Expected shape: the wire adds a fixed per-request cost (frame
// encode/decode + CRC + a loopback round trip) on top of in-process
// session serving — compare BM_NetQueryRoundTrip here against
// bench_server's BM_RunDirectPipeline. Throughput scales with client
// count until the engine saturates, tail latency stays bounded, and
// under admission pressure the server sheds deterministically with
// kOverloaded instead of queueing without bound.

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
#include "net/client.h"
#include "net/net_server.h"
#include "storage/database.h"
#include "storage/io.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

const char* kTcQuery =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

net::WireQuery TcWireQuery() {
  net::WireQuery q;
  q.text = kTcQuery;
  return q;
}

/// Seeds the server with a random digraph via one committed batch.
void SeedServer(Server* server, int nodes) {
  storage::Database scratch;
  CheckOk(workload::RandomDigraph(nodes, 3 * nodes, /*seed=*/7, &scratch),
          "digraph");
  CheckOk(server->Apply(WriteBatch().Facts(storage::DumpFacts(scratch)))
              .status(),
          "seed commit");
}

/// A served engine plus a connected client, set up outside any timed
/// region.
struct Loopback {
  Server server;
  std::unique_ptr<net::NetServer> net;
  std::unique_ptr<net::Client> client;

  explicit Loopback(int nodes, net::NetServerOptions opts = {}) {
    SeedServer(&server, nodes);
    net = CheckOk(net::NetServer::Start(&server, opts), "serve");
    client = CheckOk(net::Client::Connect("127.0.0.1", net->port()),
                     "connect");
    CheckOk(client->OpenSession().status(), "open session");
  }
};

struct MixResult {
  double elapsed_s = 0;
  size_t ops = 0;
  size_t shed = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// N TCP clients, each its own connection + session: 90% remote TC
/// queries, 10% one-edge commits on the designated writer client.
/// kOverloaded responses count as shed, not as failures.
MixResult RunMixedClients(uint16_t port, int threads, int ops_per_thread) {
  std::vector<std::vector<double>> lat_us(threads);
  std::atomic<int> write_seq{0};
  std::atomic<size_t> shed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto client =
          CheckOk(net::Client::Connect("127.0.0.1", port), "connect");
      CheckOk(client->OpenSession().status(), "open session");
      lat_us[t].reserve(ops_per_thread);
      for (int i = 0; i < ops_per_thread; ++i) {
        const auto op0 = std::chrono::steady_clock::now();
        if (t == 0 && i % 10 == 9) {
          int n = write_seq.fetch_add(1, std::memory_order_relaxed);
          const Status st =
              client
                  ->Apply(WriteBatch().Insert(
                      "edge", {"w" + std::to_string(n),
                               "w" + std::to_string(n + 1)}))
                  .status();
          if (!st.ok()) {
            if (st.code() != StatusCode::kOverloaded) {
              CheckOk(st, "remote commit");
            }
            shed.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (i % 5 == 4) CheckOk(client->Refresh().status(), "refresh");
          auto resp = client->Run(TcWireQuery());
          if (!resp.ok()) {
            if (resp.status().code() != StatusCode::kOverloaded) {
              CheckOk(resp.status(), "remote read");
            }
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            benchmark::DoNotOptimize(resp->result_tuples);
          }
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
  out.shed = shed.load();
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
      "Network front end: loopback TCP serving vs in-process sessions",
      "remote answers are bit-identical to in-process ones; the wire adds "
      "a fixed per-request cost; overload sheds deterministically");

  // Cross-check first: the relation a remote query materializes must be
  // byte-identical to the one an in-process session materializes for the
  // same query over the same snapshot.
  {
    Loopback lb(96);
    CheckOk(lb.client->Run(TcWireQuery()).status(), "remote read");
    const std::string remote =
        CheckOk(lb.client->FetchRelation("t"), "fetch");
    auto session = CheckOk(lb.server.OpenSession(), "open local");
    CheckOk(session->Run(QueryRequest::GraphLog(kTcQuery)).status(),
            "local read");
    const std::string local = session->database().RelationToString(
        session->database().symbols().Lookup("t"));
    if (remote != local) {
      std::fprintf(stderr, "FATAL: remote result diverged from in-process\n");
      std::abort();
    }
    std::printf("  MATCH remote == in-process session (%zu bytes of "
                "relation text)\n\n",
                remote.size());
  }

  // Loopback latency/throughput by client count (compare the same table
  // in bench_server for the in-process ceiling).
  std::printf("  loopback mixed workload: 90%% remote reads / 10%% remote "
              "commits on the writer client, 40 ops per client\n");
  std::printf("  %-8s %12s %12s %12s\n", "clients", "ops/s", "p50(us)",
              "p99(us)");
  for (int threads : {1, 4, 8, 16}) {
    Loopback lb(96, {.max_connections = 64});
    MixResult r = RunMixedClients(lb.net->port(), threads, 40);
    std::printf("  %-8d %12.0f %12.0f %12.0f\n", threads,
                static_cast<double>(r.ops) / r.elapsed_s, r.p50_us, r.p99_us);
  }
  std::printf("\n");

  // Overload lane: with one query slot, concurrent clients are shed with
  // kOverloaded + retry advice instead of queueing; every op terminates.
  {
    net::NetServerOptions opts;
    opts.max_inflight_queries = 1;
    opts.retry_after_ms = 5;
    Loopback lb(96, opts);
    MixResult r = RunMixedClients(lb.net->port(), 8, 20);
    std::printf("  overload lane (max_inflight_queries=1, 8 clients): "
                "%zu served, %zu shed with kOverloaded, %zu rejected "
                "total at the server\n\n",
                r.ops - r.shed, r.shed, lb.net->rejected());
  }
}

// ---------------------------------------------------------------------------
// Per-request wire overhead: the cheapest possible round trip (a ping is
// pure framing + loopback), then a real remote query and a remote commit.

void BM_NetPing(benchmark::State& state) {
  Loopback lb(64);
  // A single loopback ping is a handful of microseconds — far inside
  // scheduler jitter on a loaded box. Batch a round of them per
  // iteration so the timed unit is stable enough for regression checks.
  constexpr int kPingsPerIteration = 128;
  for (auto _ : state) {
    for (int i = 0; i < kPingsPerIteration; ++i) {
      CheckOk(lb.client->Ping(), "ping");
    }
  }
  state.SetItemsProcessed(state.iterations() * kPingsPerIteration);
}
BENCHMARK(BM_NetPing);

void BM_NetQueryRoundTrip(benchmark::State& state) {
  Loopback lb(64);
  for (auto _ : state) {
    auto r = CheckOk(lb.client->Run(TcWireQuery()), "remote read");
    benchmark::DoNotOptimize(r.result_tuples);
  }
}
BENCHMARK(BM_NetQueryRoundTrip);

void BM_NetApply(benchmark::State& state) {
  Loopback lb(64);
  int n = 0;
  for (auto _ : state) {
    CheckOk(lb.client
                ->Apply(WriteBatch().Insert(
                    "edge",
                    {"c" + std::to_string(n), "c" + std::to_string(n + 1)}))
                .status(),
            "remote commit");
    ++n;
  }
}
BENCHMARK(BM_NetApply);

// ---------------------------------------------------------------------------
// Loopback mixed-workload throughput across client counts (items
// processed = client operations; compare BM_ServerMixedWorkload).

void BM_NetMixedWorkload(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int ops_per_client = (bench::kMixSamples + threads - 1) / threads;
  for (auto _ : state) {
    state.PauseTiming();
    auto lb = std::make_unique<Loopback>(64, net::NetServerOptions{
                                                 .max_connections = 64});
    state.ResumeTiming();
    MixResult r = RunMixedClients(lb->net->port(), threads, ops_per_client);
    state.counters["p99_us"] = r.p99_us;
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(r.ops));
    state.PauseTiming();
    lb.reset();
    state.ResumeTiming();
  }
}
// Wall-clock time: the work runs on the client and server threads, so the
// main thread's CPU time would overstate items_per_second.
BENCHMARK(BM_NetMixedWorkload)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  Report();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
