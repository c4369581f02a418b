// graphlog_e2e: the end-to-end graphlogd benchmark's load generator.
//
// For each workload it writes the seed fact file, spawns graphlogd on it,
// drives the workload's closed-loop op streams through net::Client from
// up to 4 threads, checks the answers, and reports:
//
//   * end-to-end metrics, measured with tracing off: the set
//     BENCHMARK.json bounds, plus the ingest-only commit and recovery
//     metrics and the error ratio (bounds.json);
//   * with --trace 1, the per-layer metrics of a separate traced
//     in-process replay of the same op streams (replay.h).
//
// Output: a provenance header (`# key value`), one
// `<workload>.<metric> <value> <unit>` line per metric, optionally the
// full result as JSON (--out), and as the last line a JSON summary
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// a correctness gate fails and 2 when the run cannot complete. Usually
// started through run.sh, which builds it and passes --graphlogd and
// --workdir.

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/daemon.h"
#include "bench/e2e/measure.h"
#include "bench/e2e/replay.h"
#include "bench/e2e/workloads.h"
#include "graphlog/api.h"
#include "net/client.h"
#include "storage/io.h"

namespace graphlog::e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupSpawns = 5;
constexpr size_t kGateThreads = 4;
constexpr int kPings = 200;
constexpr double kSmokeScale = 1.0 / 50;

struct Options {
  std::vector<std::string> workloads;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string graphlogd;
  std::string workdir;
  std::string rev = "unknown";
  std::string dirty = "unknown";
  std::string source_sha256 = "unknown";
};

using Provenance = std::vector<std::pair<std::string, std::string>>;

struct WorkloadResult {
  std::string name;
  Provenance provenance;
  std::vector<Metric> end_to_end;  ///< the BENCHMARK.json end_to_end set
  std::vector<Metric> specific;    ///< bounds.json workload_metrics
  std::vector<Metric> layers;      ///< BENCHMARK.json per_layer (--trace 1)
  std::vector<std::string> gate_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string trace_file;
};

// ---------------------------------------------------------------------------
// Client threads

/// What one client thread saw.
struct ThreadOutcome {
  std::vector<double> query_ms;
  std::vector<double> commit_ms;
  std::vector<uint32_t> acked;    ///< batches acknowledged
  std::vector<uint32_t> unacked;  ///< batches sent without an ack
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors other than kOverloaded
  uint64_t shed = 0;    ///< kOverloaded rejections
  std::string first_error;

  void Fail(const Status& st) {
    ++(st.code() == StatusCode::kOverloaded ? shed : failed);
    if (first_error.empty()) first_error = st.ToString();
  }
};

double MsSince(double t0) { return (NowS() - t0) * 1000.0; }

/// A connection with an open session.
class Conn {
 public:
  explicit Conn(uint16_t port) : port_(port) {}

  Status Open() {
    client_.reset();
    GRAPHLOG_ASSIGN_OR_RETURN(client_,
                              net::Client::Connect("127.0.0.1", port_));
    return client_->OpenSession().status();
  }
  /// A fresh session, on this connection or (when asked, or after a
  /// failure) on a new one.
  Status Reopen(bool reconnect) {
    if (reconnect || !healthy()) return Open();
    GRAPHLOG_RETURN_NOT_OK(client_->CloseSession());
    return client_->OpenSession().status();
  }
  bool healthy() const { return client_ != nullptr && client_->connected(); }
  net::Client& client() { return *client_; }

 private:
  uint16_t port_;
  std::unique_ptr<net::Client> client_;
};

Status Commit(net::Client& c, const Op& op) {
  WriteBatch b;
  for (const EdgeFact& f : op.facts) b.Insert("edge", {f.first, f.second});
  return c.Apply(b).status();
}

void RunOp(const Workload& w, const Op& op, Conn* conn, ThreadOutcome* out) {
  ++out->attempted;
  Status st;
  if (op.reopen || !conn->healthy()) {
    st = conn->Reopen(w.reconnect_on_reopen);
    if (!st.ok()) {
      out->Fail(st);
      return;
    }
  }
  const double t0 = NowS();
  if (op.kind == Op::kCommit) {
    st = Commit(conn->client(), op);
    if (st.ok()) {
      out->commit_ms.push_back(MsSince(t0));
      out->acked.push_back(op.batch);
    } else {
      out->unacked.push_back(op.batch);
    }
  } else {
    // Ingest readers see the latest commits: Refresh, then query; the
    // pair is one read.
    if (w.refresh_before_query) st = conn->client().Refresh().status();
    if (st.ok()) st = conn->client().Run(w.Query(op.text)).status();
    if (st.ok()) out->query_ms.push_back(MsSince(t0));
  }
  if (!st.ok()) out->Fail(st);
}

/// Runs one op stream in a closed loop: each op waits for its reply.
void RunThread(const Workload& w, const ThreadPlan& plan, uint16_t port,
               Pacer* pacer, const std::atomic<bool>* go,
               std::atomic<int>* ready, ThreadOutcome* out) {
  Conn conn(port);
  (void)conn.Open();  // a failed open shows up as failed ops
  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  for (const Op& op : plan.ops) {
    pacer->Start(op.kind);
    RunOp(w, op, &conn, out);
    pacer->Done(op.kind);
  }
}

/// Runs every plan on its own thread, released together once all are
/// connected; `wall_s` is the time from release until the last thread
/// finished.
std::vector<ThreadOutcome> RunPhase(const Workload& w, uint16_t port,
                                    double* wall_s) {
  std::vector<ThreadOutcome> outs(w.threads.size());
  Pacer pacer(w);
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> ts;
  for (size_t i = 0; i < w.threads.size(); ++i) {
    ts.emplace_back(RunThread, std::cref(w), std::cref(w.threads[i]), port,
                    &pacer, &go, &ready, &outs[i]);
  }
  while (ready.load() < static_cast<int>(ts.size())) std::this_thread::yield();
  const double t0 = NowS();
  go.store(true, std::memory_order_release);
  for (std::thread& t : ts) t.join();
  *wall_s = NowS() - t0;
  return outs;
}

// ---------------------------------------------------------------------------
// Daemon lifecycle

std::vector<std::string> DaemonArgs(const Workload& w, const std::string& dir,
                                    bool seeded) {
  std::vector<std::string> args = {"--port", "0"};
  if (seeded) args.insert(args.end(), {"--facts", w.facts_path});
  if (w.durable) args.insert(args.end(), {"--dir", dir, "--fsync", "always"});
  return args;
}

/// Spawns the seeded daemon kSetupSpawns times (each durable one on a
/// fresh directory) and keeps the last; `setup_s` gets every readiness
/// time.
Result<std::unique_ptr<Daemon>> SetUp(const Workload& w, const Options& o,
                                      const std::string& dir,
                                      std::vector<double>* setup_s) {
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetupSpawns; ++i) {
    if (d != nullptr) d->Kill();
    fs::remove_all(dir);
    double ready = 0;
    GRAPHLOG_ASSIGN_OR_RETURN(
        d, Daemon::Start(o.graphlogd, DaemonArgs(w, dir, true), &ready));
    setup_s->push_back(ready);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Correctness gates

/// Reruns one sampled query on `conn` on a fresh session (a session's
/// relation keeps the rows of its earlier queries), and compares the
/// distinguished relations with graphlog::Run on a fresh Database loaded
/// from the same fact file, on 1 thread and the row path: byte-equal with
/// the workload's translation, where only transport and thread count
/// differ, and row-equal with bound-closure specialization off.
/// (RelationToString sorts its rows, so both compare rendered text.)
void CheckGateQuery(const Workload& w, const std::string& text, Conn* conn,
                    std::vector<std::string>* failures) {
  Status st = conn->Reopen(false);
  if (st.ok()) st = conn->client().Run(w.Query(text)).status();
  if (!st.ok()) {
    failures->push_back("gate query failed remotely: " + st.ToString());
    return;
  }
  std::map<std::string, std::string> remote;
  for (const std::string& rel : w.distinguished) {
    Result<std::string> r = conn->client().FetchRelation(rel);
    remote[rel] = r.ok() ? *r : "";
  }
  std::vector<bool> references = {w.specialize_bound_closures};
  if (w.specialize_bound_closures) references.push_back(false);
  for (bool magic : references) {
    storage::Database db;
    QueryRequest req = QueryRequest::GraphLog(text);
    req.options.translation.specialize_bound_closures = magic;
    st = storage::LoadFactsFile(w.facts_path, &db).status();
    if (st.ok()) st = graphlog::Run(req, &db).status();
    if (!st.ok()) {
      failures->push_back("reference run failed: " + st.ToString());
      continue;
    }
    for (const std::string& rel : w.distinguished) {
      const std::string local = db.RelationToString(db.symbols().Lookup(rel));
      if (local != remote[rel]) {
        failures->push_back(
            rel + " differs from the " +
            (magic == w.specialize_bound_closures ? "same-options"
                                                  : "magic-off") +
            " reference (" + std::to_string(remote[rel].size()) + " vs " +
            std::to_string(local.size()) + " bytes) for: " + text);
      }
    }
  }
}

/// Checks every sampled query (CheckGateQuery), split over kGateThreads
/// threads with a fresh connection each: the magic-off references
/// recompute whole closures, which on lookup took most of a run's time
/// outside the timed phase.
void QueryGate(const Workload& w, uint16_t port,
               std::vector<std::string>* failures) {
  std::vector<std::vector<std::string>> found(kGateThreads);
  std::vector<std::thread> ts;
  for (size_t t = 0; t < kGateThreads; ++t) {
    ts.emplace_back([&, t] {
      Conn conn(port);
      for (size_t i = t; i < w.gate_queries.size(); i += kGateThreads) {
        CheckGateQuery(w, w.gate_queries[i], &conn, &found[t]);
      }
    });
  }
  for (std::thread& t : ts) t.join();
  for (const std::vector<std::string>& f : found) {
    failures->insert(failures->end(), f.begin(), f.end());
  }
}

std::set<std::string> Lines(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.insert(line + "\n");
  return out;
}

Result<std::set<std::string>> RemoteEdges(uint16_t port) {
  Conn conn(port);
  GRAPHLOG_RETURN_NOT_OK(conn.Open());
  GRAPHLOG_ASSIGN_OR_RETURN(std::string text,
                            conn.client().FetchRelation("edge"));
  return Lines(text);
}

/// Seed edges plus every acknowledged batch of `outs`, as rendered lines.
Result<std::set<std::string>> AckedEdges(
    const Workload& w, const std::vector<const ThreadOutcome*>& outs,
    const std::vector<uint32_t>& writer_of) {
  storage::Database db;
  GRAPHLOG_RETURN_NOT_OK(storage::LoadFactsFile(w.facts_path, &db).status());
  std::set<std::string> lines =
      Lines(db.RelationToString(db.symbols().Lookup("edge")));
  for (size_t i = 0; i < outs.size(); ++i) {
    for (uint32_t b : outs[i]->acked) {
      for (const EdgeFact& f : IngestBatch(w.seed, writer_of[i], b).facts) {
        lines.insert(EdgeLine(f));
      }
    }
  }
  return lines;
}

/// ingest: after the timed phase the writers keep committing and the
/// daemon is SIGKILLed once a seed-chosen number of crash-phase commits
/// were acknowledged; it then restarts on the same --dir. Every
/// acknowledged batch must survive, and each batch in flight at the kill
/// must be wholly present or wholly absent. SIGKILL leaves the OS page
/// cache intact, so this proves "acknowledged => in the WAL file", not
/// "on the device".
Status CrashAndRecover(const Workload& w, const Options& o,
                       const std::string& dir,
                       const std::vector<ThreadOutcome>& timed,
                       std::unique_ptr<Daemon>* d, double* recovery_s,
                       std::vector<std::string>* failures) {
  const uint64_t kill_after = 5 + w.crash_seed % 26;
  std::vector<uint32_t> writer_of;
  std::vector<uint32_t> first_batch;
  for (const ThreadPlan& p : w.threads) {
    if (p.role != ThreadPlan::kWriter) continue;
    writer_of.push_back(p.writer_index);
    first_batch.push_back(static_cast<uint32_t>(p.ops.size()));
  }
  std::vector<ThreadOutcome> crash(writer_of.size());
  std::atomic<uint64_t> acked{0};
  std::atomic<int> running{static_cast<int>(writer_of.size())};
  std::vector<std::thread> ts;
  const uint16_t port = (*d)->port();
  for (size_t i = 0; i < writer_of.size(); ++i) {
    ts.emplace_back([&, i] {
      Conn conn(port);
      Status st = conn.Open();
      for (uint32_t b = first_batch[i]; st.ok(); ++b) {
        st = Commit(conn.client(), IngestBatch(w.seed, writer_of[i], b));
        if (st.ok()) {
          crash[i].acked.push_back(b);
          acked.fetch_add(1);
        } else {
          crash[i].unacked.push_back(b);
        }
      }
      running.fetch_sub(1);
    });
  }
  while (acked.load() < kill_after && running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double t_kill = NowS();
  (*d)->Kill();
  for (std::thread& t : ts) t.join();
  if (acked.load() < kill_after) {
    failures->push_back("crash phase: writers stopped before the kill");
  }

  double ready = 0;
  GRAPHLOG_ASSIGN_OR_RETURN(
      *d, Daemon::Start(o.graphlogd, DaemonArgs(w, dir, false), &ready));
  *recovery_s = NowS() - t_kill;

  std::vector<const ThreadOutcome*> all;
  std::vector<uint32_t> all_writers;
  size_t wi = 0;
  for (size_t i = 0; i < w.threads.size(); ++i) {
    if (w.threads[i].role != ThreadPlan::kWriter) continue;
    all.push_back(&timed[i]);
    all.push_back(&crash[wi]);
    all_writers.push_back(w.threads[i].writer_index);
    all_writers.push_back(writer_of[wi]);
    ++wi;
  }
  GRAPHLOG_ASSIGN_OR_RETURN(std::set<std::string> allowed,
                            AckedEdges(w, all, all_writers));
  GRAPHLOG_ASSIGN_OR_RETURN(std::set<std::string> got,
                            RemoteEdges((*d)->port()));
  size_t missing = 0;
  for (const std::string& line : allowed) missing += got.count(line) == 0;
  if (missing > 0) {
    failures->push_back("recovery lost " + std::to_string(missing) +
                        " acknowledged facts");
  }
  for (size_t i = 0; i < crash.size(); ++i) {
    for (uint32_t b : crash[i].unacked) {
      size_t present = 0;
      const Op op = IngestBatch(w.seed, writer_of[i], b);
      for (const EdgeFact& f : op.facts) {
        const std::string line = EdgeLine(f);
        present += got.count(line);
        allowed.insert(line);
      }
      if (present != 0 && present != op.facts.size()) {
        failures->push_back("unacknowledged batch partially recovered: " +
                            std::to_string(present) + " of " +
                            std::to_string(op.facts.size()) + " facts");
      }
    }
  }
  size_t unexpected = 0;
  for (const std::string& line : got) unexpected += allowed.count(line) == 0;
  if (unexpected > 0) {
    failures->push_back("recovery produced " + std::to_string(unexpected) +
                        " facts nobody committed");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One workload, end to end

std::string FsType(const std::string& path) {
  struct statfs s;
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string Join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += (out.empty() ? "" : " ") + s;
  return out;
}

Provenance WorkloadProvenance(const Workload& w, const std::string& dir) {
  std::string counts;
  for (const ThreadPlan& p : w.threads) {
    counts += std::string(counts.empty() ? "" : " ") +
              (p.role == ThreadPlan::kWriter ? "w" : "r") +
              std::to_string(p.ops.size());
  }
  return {
      {"ops", std::to_string(w.Planned(Op::kQuery) + w.Planned(Op::kCommit)) +
                  " (per thread: " + counts + ")"},
      {"seed_facts", std::to_string(w.seed_facts)},
      {"graphlogd_flags", Join(DaemonArgs(w, dir, true))},
      {"fsync", w.durable ? "always" : "none (in-memory server)"},
      {"query_threads", std::to_string(w.num_threads)},
  };
}

/// The tail of `ms` at the percentile its planned sample count supports.
Metric TailMetric(const char* name, const std::vector<double>& ms,
                  size_t planned) {
  const double p = TailPercentile(planned);
  char note[64];
  std::snprintf(note, sizeof(note), "p%g of %zu samples", p, ms.size());
  return {name, Percentile(ms, p), "ms", note};
}

Result<WorkloadResult> RunEndToEnd(const Workload& w, const Options& o,
                                   WireObservations* wire) {
  WorkloadResult r;
  r.name = w.name;
  const std::string dir = o.workdir + "/" + w.name + ".store";
  r.provenance = WorkloadProvenance(w, dir);
  std::vector<double> setup_s;
  GRAPHLOG_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> d,
                            SetUp(w, o, dir, &setup_s));

  // Warm-up: lazy set-up in the daemon (first-touch allocation, thread
  // creation) happens before timing, as it would before real traffic.
  {
    Conn conn(d->port());
    for (const std::string& text : w.warmup) {
      Status st = conn.Reopen(false);
      if (st.ok()) st = conn.client().Run(w.Query(text)).status();
      if (!st.ok()) r.gate_failures.push_back("warm-up: " + st.ToString());
    }
  }

  GRAPHLOG_ASSIGN_OR_RETURN(const double cpu0, d->CpuMs());
  double wall_s = 0;
  std::vector<ThreadOutcome> outs = RunPhase(w, d->port(), &wall_s);
  GRAPHLOG_ASSIGN_OR_RETURN(const double cpu1, d->CpuMs());

  std::vector<double> ping_us;
  {
    Conn conn(d->port());
    GRAPHLOG_RETURN_NOT_OK(conn.Open());
    for (int i = 0; i < kPings; ++i) {
      const double t0 = NowS();
      GRAPHLOG_RETURN_NOT_OK(conn.client().Ping());
      ping_us.push_back((NowS() - t0) * 1e6);
    }
  }
  GRAPHLOG_ASSIGN_OR_RETURN(const double rss_mb, d->PeakRssMb());

  std::vector<double> query_ms, commit_ms;
  uint64_t shed = 0;
  for (const ThreadOutcome& t : outs) {
    query_ms.insert(query_ms.end(), t.query_ms.begin(), t.query_ms.end());
    commit_ms.insert(commit_ms.end(), t.commit_ms.begin(), t.commit_ms.end());
    r.attempted += t.attempted;
    r.failed += t.failed + t.shed;
    shed += t.shed;
    if (!t.first_error.empty()) {
      r.gate_failures.push_back("op failed: " + t.first_error);
    }
  }
  const double completed =
      static_cast<double>(std::max<uint64_t>(1, r.attempted - r.failed));
  wire->query_p50_ms = Median(query_ms);
  wire->ping_p50_us = Median(ping_us);

  r.end_to_end = {
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " spawns"},
      {"throughput_ops_s", completed / wall_s, "ops/s",
       std::to_string(r.attempted - r.failed) + " ops in " +
           std::to_string(wall_s) + " s"},
      {"query_p50_ms", Median(query_ms), "ms",
       std::to_string(query_ms.size()) + " samples"},
      TailMetric("query_tail_ms", query_ms, w.Planned(Op::kQuery)),
      {"server_peak_rss_mb", rss_mb, "MB", "VmHWM"},
      {"server_cpu_ms_per_op", (cpu1 - cpu0) / completed, "ms",
       "graphlogd utime+stime over the timed phase, per completed op"},
  };
  r.specific.push_back(
      {"error_ratio",
       r.attempted == 0 ? 0.0
                        : static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted),
       "fraction",
       std::to_string(r.failed - shed) + " failed + " + std::to_string(shed) +
           " shed of " + std::to_string(r.attempted)});

  if (!w.durable) {
    QueryGate(w, d->port(), &r.gate_failures);
    const Status st = d->Stop();
    if (!st.ok()) r.gate_failures.push_back(st.ToString());
    return r;
  }

  // ingest: the edges a fresh session sees are the seed plus every
  // acknowledged batch, exactly.
  std::vector<const ThreadOutcome*> writers;
  std::vector<uint32_t> writer_of;
  for (size_t i = 0; i < w.threads.size(); ++i) {
    if (w.threads[i].role != ThreadPlan::kWriter) continue;
    writers.push_back(&outs[i]);
    writer_of.push_back(w.threads[i].writer_index);
  }
  GRAPHLOG_ASSIGN_OR_RETURN(std::set<std::string> want,
                            AckedEdges(w, writers, writer_of));
  GRAPHLOG_ASSIGN_OR_RETURN(std::set<std::string> got, RemoteEdges(d->port()));
  if (got != want) {
    r.gate_failures.push_back("edge holds " + std::to_string(got.size()) +
                              " facts, want seed + acknowledged = " +
                              std::to_string(want.size()));
  }
  double recovery_s = 0;
  GRAPHLOG_RETURN_NOT_OK(
      CrashAndRecover(w, o, dir, outs, &d, &recovery_s, &r.gate_failures));
  const Status st = d->Stop();
  if (!st.ok()) r.gate_failures.push_back(st.ToString());
  r.specific.push_back({"commit_p50_ms", Median(commit_ms), "ms",
                        std::to_string(commit_ms.size()) + " samples"});
  r.specific.push_back(
      TailMetric("commit_tail_ms", commit_ms, w.Planned(Op::kCommit)));
  r.specific.push_back({"recovery_s", recovery_s, "s",
                        "SIGKILL to first answered Ping after restart"});
  return r;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& ms,
                        const std::string& prefix) {
  std::string out;
  for (const Metric& m : ms) {
    out += (out.empty() ? "" : ", ") + JsonStr(prefix + m.name) +
           ": {\"value\": " + JsonNum(m.value) + ", \"unit\": " +
           JsonStr(m.unit) + "}";
  }
  return out;
}

std::string JsonProvenance(const Provenance& p) {
  std::string out;
  for (const auto& [k, v] : p) {
    out += (out.empty() ? "" : ", ") + JsonStr(k) + ": " + JsonStr(v);
  }
  return "{" + out + "}";
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s.%s %.6g %s%s%s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
}

Provenance RunProvenance(const Options& o) {
  utsname u;
  std::string kernel = "unknown";
  if (::uname(&u) == 0) kernel = std::string(u.sysname) + " " + u.release;
  std::string names;
  for (const std::string& n : o.workloads) {
    names += (names.empty() ? "" : ",") + n;
  }
  return {
      {"git_rev", o.rev},
      {"git_dirty", o.dirty},
      {"source_sha256", o.source_sha256},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", GRAPHLOG_E2E_BUILD_TYPE},
      {"compiler", GRAPHLOG_E2E_COMPILER},
      {"kernel", kernel},
      {"wal_fs", FsType(o.workdir)},
      {"seed", std::to_string(o.seed)},
      {"seconds", JsonNum(o.seconds)},
      {"smoke", o.smoke ? "1" : "0"},
      {"trace", o.trace ? "1" : "0"},
      {"workloads", names},
  };
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "graphlog_e2e: %s\n"
               "usage: graphlog_e2e --graphlogd PATH --workdir DIR\n"
               "         [--workload a,b,c] [--seed N] [--seconds S]\n"
               "         [--trace 0|1] [--smoke] [--out FILE]\n"
               "         [--rev REV] [--dirty 0|1] [--source-sha256 HEX]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      std::istringstream in(value());
      for (std::string n; std::getline(in, n, ',');) {
        if (!n.empty()) o.workloads.push_back(n);
      }
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--graphlogd") {
      o.graphlogd = value();
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--rev") {
      o.rev = value();
    } else if (a == "--dirty") {
      o.dirty = value();
    } else if (a == "--source-sha256") {
      o.source_sha256 = value();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.graphlogd.empty() || o.workdir.empty()) {
    Usage("--graphlogd and --workdir are required");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  if (o.workloads.empty()) o.workloads = WorkloadNames();
  return o;
}

void OnTimeout(int) {
  static const char kMsg[] = "graphlog_e2e: timed out; graphlogd hung?\n";
  (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  ::_exit(2);  // each graphlogd child gets SIGKILL (PR_SET_PDEATHSIG)
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  // A hung daemon must not hang the benchmark: a run takes about twice
  // --seconds per workload when traced, so allow well over that.
  std::signal(SIGALRM, OnTimeout);
  ::alarm(static_cast<unsigned>(60 + 5 * o.seconds *
                                static_cast<double>(o.workloads.size())));
  fs::create_directories(o.workdir);
  const Provenance run = RunProvenance(o);
  for (const auto& [k, v] : run) std::printf("# %s %s\n", k.c_str(), v.c_str());
  const fs::path out_dir = fs::path(o.out).parent_path();
  if (!out_dir.empty()) fs::create_directories(out_dir);
  const fs::path trace_dir = o.out.empty() ? fs::path(o.workdir) : out_dir;

  std::vector<WorkloadResult> results;
  for (const std::string& name : o.workloads) {
    Result<Workload> w = MakeWorkload(name, o.seed, o.seconds,
                                      o.smoke ? kSmokeScale : 1.0, o.workdir);
    if (!w.ok()) {
      std::fprintf(stderr, "graphlog_e2e: %s\n", w.status().ToString().c_str());
      return 2;
    }
    WireObservations wire;
    Result<WorkloadResult> r = RunEndToEnd(*w, o, &wire);
    if (!r.ok()) {
      std::fprintf(stderr, "graphlog_e2e: %s: %s\n", name.c_str(),
                   r.status().ToString().c_str());
      return 2;
    }
    if (o.trace) {
      r->trace_file = (trace_dir / ("trace_" + name + ".json")).string();
      Result<ReplayResult> rep =
          RunTracedReplay(*w, wire, o.workdir, r->trace_file);
      if (!rep.ok()) {
        std::fprintf(stderr, "graphlog_e2e: %s traced run: %s\n",
                     name.c_str(), rep.status().ToString().c_str());
        return 2;
      }
      r->layers = std::move(rep->layers);
      r->attempted += rep->attempted;
      r->failed += rep->failed;
      if (!rep->first_error.empty()) {
        r->gate_failures.push_back("traced op failed: " + rep->first_error);
      }
    }
    for (const auto& [k, v] : r->provenance) {
      std::printf("# %s.%s %s\n", name.c_str(), k.c_str(), v.c_str());
    }
    if (!r->trace_file.empty()) {
      std::printf("# %s.trace_file %s\n", name.c_str(), r->trace_file.c_str());
    }
    PrintMetrics(name, r->end_to_end);
    PrintMetrics(name, r->specific);
    PrintMetrics(name, r->layers);
    for (const std::string& f : r->gate_failures) {
      std::printf("%s.GATE_FAILED %s\n", name.c_str(), f.c_str());
    }
    std::fflush(stdout);
    results.push_back(std::move(*r));
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::string metrics, workloads_json;
  const bool prefixed = results.size() > 1;
  for (const WorkloadResult& r : results) {
    correct = correct && r.gate_failures.empty();
    attempted += r.attempted;
    failed += r.failed;
    const std::string m = JsonMetrics(o.trace ? r.layers : r.end_to_end,
                                      prefixed ? r.name + "." : "");
    if (!m.empty()) metrics += (metrics.empty() ? "" : ", ") + m;
    std::string gates;
    for (const std::string& g : r.gate_failures) {
      gates += (gates.empty() ? "" : ", ") + JsonStr(g);
    }
    workloads_json +=
        (workloads_json.empty() ? "" : ",\n    ") + JsonStr(r.name) +
        ": {\"provenance\": " + JsonProvenance(r.provenance) +
        ", \"correct\": " + (r.gate_failures.empty() ? "true" : "false") +
        ", \"gate_failures\": [" + gates + "]" +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"end_to_end\": {" + JsonMetrics(r.end_to_end, "") + "}" +
        ", \"workload_metrics\": {" + JsonMetrics(r.specific, "") + "}" +
        ", \"per_layer\": {" + JsonMetrics(r.layers, "") + "}}";
  }
  if (!o.out.empty()) {
    std::ofstream out(o.out);
    out << "{\"provenance\": " << JsonProvenance(run)
        << ",\n  \"workloads\": {\n    " << workloads_json << "}}\n";
    if (!out) {
      std::fprintf(stderr, "graphlog_e2e: cannot write %s\n", o.out.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace graphlog::e2e

int main(int argc, char** argv) { return graphlog::e2e::Main(argc, argv); }
