// graphlogd: the standalone GraphLog server daemon.
//
// Owns one Server (in-memory, or durable when --dir is given), wraps it
// in a NetServer, and serves the framed wire protocol until SIGINT/
// SIGTERM. Remote clients (net/client.h, or the shell's `.connect`)
// open sessions against it with the exact in-process Session semantics.
//
// Usage:
//   graphlogd [--port N] [--dir PATH] [--fsync always|group|off]
//             [--facts FILE] [--bind-any]
//             [--max-connections N] [--max-inflight N]
//             [--retry-after-ms N] [--deadline-ms N] [--max-rows N]
//
//   --port N            listen port (default 4242; 0 = ephemeral)
//   --dir PATH          durable mode: WAL + checkpoints under PATH
//   --fsync POLICY      durable mode fsync policy (default always)
//   --facts FILE        seed the database from a fact file at startup
//   --bind-any          bind 0.0.0.0 instead of loopback
//   --max-connections N admission: concurrent connections (default 64)
//   --max-inflight N    admission: queries in flight, 0 = unlimited
//   --retry-after-ms N  retry advice on kOverloaded sheds (default 100)
//   --deadline-ms N     default per-request deadline, 0 = none
//   --max-rows N        default per-request result-row budget, 0 = none

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "durability/fsync_policy.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "storage/io.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--dir PATH] [--fsync always|group|off]\n"
      "          [--facts FILE] [--bind-any] [--max-connections N]\n"
      "          [--max-inflight N] [--retry-after-ms N] [--deadline-ms N]\n"
      "          [--max-rows N]\n",
      argv0);
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphlog;
#ifdef M_MXFAST
  // A closed session frees its materialized results as many small blocks.
  // glibc parks those in per-arena fastbins until some later large free
  // consolidates them all at once, which lands on the next connection's
  // first query (connections reuse the exited threads' arenas). Without
  // fastbins the blocks coalesce as they are freed, inside the close.
  mallopt(M_MXFAST, 0);
#endif

  uint64_t port = 4242;
  std::string dir;
  std::string facts_file;
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kAlways;
  net::NetServerOptions nopts;
  nopts.max_connections = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](uint64_t* out) {
      if (i + 1 >= argc || !ParseUint(argv[++i], out)) {
        std::fprintf(stderr, "%s: %s needs an unsigned integer\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
    };
    if (arg == "--port") {
      next(&port);
      if (port > 65535) {
        std::fprintf(stderr, "%s: --port out of range\n", argv[0]);
        return 2;
      }
    } else if (arg == "--dir") {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        return 2;
      }
      dir = argv[++i];
    } else if (arg == "--fsync") {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        return 2;
      }
      auto parsed = durability::ParseFsyncPolicy(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[0],
                     parsed.status().ToString().c_str());
        return 2;
      }
      fsync = *parsed;
    } else if (arg == "--facts") {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        return 2;
      }
      facts_file = argv[++i];
    } else if (arg == "--bind-any") {
      nopts.bind_any = true;
    } else if (arg == "--max-connections") {
      uint64_t v = 0;
      next(&v);
      nopts.max_connections = v;
    } else if (arg == "--max-inflight") {
      uint64_t v = 0;
      next(&v);
      nopts.max_inflight_queries = v;
    } else if (arg == "--retry-after-ms") {
      uint64_t v = 0;
      next(&v);
      nopts.retry_after_ms = static_cast<uint32_t>(v);
    } else if (arg == "--deadline-ms") {
      next(&nopts.default_deadline_ms);
    } else if (arg == "--max-rows") {
      next(&nopts.default_budget.max_result_rows);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  obs::MetricsRegistry metrics;
  nopts.metrics = &metrics;
  nopts.port = static_cast<uint16_t>(port);

  ServerOptions sopts;
  sopts.metrics = &metrics;

  std::unique_ptr<Server> server;
  if (!dir.empty()) {
    DurabilityOptions dur;
    dur.fsync = fsync;
    auto opened = Server::Open(dir, sopts, dur);
    if (!opened.ok()) {
      std::fprintf(stderr, "graphlogd: cannot open '%s': %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    server = std::move(*opened);
    std::fprintf(stderr, "graphlogd: durable store at %s (fsync=%s), epoch %llu\n",
                 dir.c_str(), std::string(durability::FsyncPolicyName(fsync)).c_str(),
                 static_cast<unsigned long long>(server->epoch()));
  } else {
    server = std::make_unique<Server>(sopts);
  }

  if (!facts_file.empty()) {
    WriteBatch seed;
    seed.LoadFile(facts_file);
    auto applied = server->Apply(seed);
    if (!applied.ok()) {
      std::fprintf(stderr, "graphlogd: cannot seed from '%s': %s\n",
                   facts_file.c_str(), applied.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "graphlogd: seeded %llu facts from %s\n",
                 static_cast<unsigned long long>(*applied),
                 facts_file.c_str());
  }

  auto net = net::NetServer::Start(server.get(), nopts);
  if (!net.ok()) {
    std::fprintf(stderr, "graphlogd: cannot listen: %s\n",
                 net.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "graphlogd: listening on %s:%u\n",
               nopts.bind_any ? "0.0.0.0" : "127.0.0.1", (*net)->port());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "graphlogd: shutting down\n");
  (*net)->Stop();
  return 0;
}
