#include "bench/e2e/replay.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "durability/wal.h"
#include "graphlog/api.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace graphlog::e2e {
namespace {

namespace fs = std::filesystem;

constexpr size_t kNoParent = static_cast<size_t>(-1);

/// One recorded span. Names are string literals; a span's layer is the
/// part of its name before the first '.', and "op" is the benchmark's own
/// root span of a request.
struct SpanRec {
  const char* name = "";
  size_t parent = kNoParent;  ///< index in the same SpanLog
  size_t root = 0;            ///< index of the request's root span
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// eval.stratum only: its fixpoint rounds (folded in rather than kept
  /// as spans), their wall time and the engine lanes' busy time in them.
  int64_t rounds = 0;
  int64_t round_ns = 0;
  int64_t lane_busy_ns = 0;

  int64_t dur() const { return static_cast<int64_t>(end_ns - start_ns); }
};

/// The spans one thread recorded, in open order. Single-threaded.
class SpanLog {
 public:
  size_t Begin(const char* name) {
    SpanRec s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.root = open_.empty() ? spans_.size() : spans_[open_.front()].root;
    s.start_ns = obs::NowNs();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End() {
    spans_[open_.back()].end_ns = obs::NowNs();
    open_.pop_back();
  }

  /// Appends the pipeline's own spans (QueryResponse::trace) under span
  /// `parent`, renamed into this benchmark's layers.
  void Graft(const std::vector<obs::Span>& spans, size_t parent) {
    for (const obs::Span& s : spans) GraftOne(s, parent, kNoParent);
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  static const char* LayerName(const std::string& name) {
    static const std::map<std::string, const char*> names = {
        {"query", "graphlog.query"},       {"parse", "graphlog.parse"},
        {"validate", "graphlog.validate"}, {"translate", "graphlog.translate"},
        {"specialize", "graphlog.specialize"},
        {"summarize", "graphlog.summarize"},
        {"evaluate", "eval.evaluate"},     {"stratify", "datalog.stratify"},
        {"stratum", "eval.stratum"},
    };
    auto it = names.find(name);
    return it == names.end() ? "eval.other" : it->second;
  }

  void GraftOne(const obs::Span& s, size_t parent, size_t stratum) {
    if (s.name == "round" && stratum != kNoParent) {
      SpanRec& st = spans_[stratum];
      ++st.rounds;
      st.round_ns += static_cast<int64_t>(s.duration_ns());
      for (const auto& [key, ns] : s.timings) {
        if (key.rfind("lane.", 0) == 0) st.lane_busy_ns += ns;
      }
      for (const obs::Span& c : s.children) GraftOne(c, parent, stratum);
      return;
    }
    SpanRec r;
    r.name = LayerName(s.name);
    r.parent = parent;
    r.root = spans_[parent].root;
    r.start_ns = s.start_ns;
    r.end_ns = s.end_ns;
    spans_.push_back(r);
    const size_t idx = spans_.size() - 1;
    if (s.name == "stratum") stratum = idx;
    for (const obs::Span& c : s.children) GraftOne(c, idx, stratum);
  }

  std::vector<SpanRec> spans_;
  std::vector<size_t> open_;
};

class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log), idx_(log->Begin(name)) {}
  ~Scoped() { log_->End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  size_t index() const { return idx_; }

 private:
  SpanLog* log_;
  size_t idx_;
};

// ---------------------------------------------------------------------------
// Accumulators

enum OpClass { kQueryOp, kCommitOp, kOpenOp, kNumClasses };
const char* const kClassNames[kNumClasses] = {"query", "commit", "open"};

std::string_view Layer(const char* name) {
  std::string_view n(name);
  return n.substr(0, n.find('.'));
}

bool Is(const SpanRec& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

/// Sums one thread gathers; merged once the threads have joined.
struct Acc {
  struct Class {
    uint64_t ops = 0;
    int64_t op_ns = 0;
    std::map<std::string, int64_t> self_ns;  ///< layer -> self time
  } cls[kNumClasses];

  std::vector<double> session_run_ms, server_in_query_ms;
  std::vector<double> session_apply_ms;
  int64_t session_self_ns = 0, codec_ns = 0;
  uint64_t request_bytes = 0, response_bytes = 0;
  int64_t open_ns = 0, refresh_ns = 0;
  uint64_t opens = 0, refreshes = 0, refresh_moves = 0, rebuilds = 0;
  uint64_t closed_sessions = 0, session_relations = 0, session_bytes = 0;
  uint64_t diffed_commits = 0, versions_copied = 0, rows_copied = 0,
           facts_diffed = 0;
  int64_t parse_ns = 0, translate_ns = 0, stratify_ns = 0, fixpoint_ns = 0;
  int64_t round_ns = 0, lane_busy_ns = 0;
  uint64_t rules = 0, rounds = 0, firings = 0, derived = 0, index_builds = 0,
           peak_delta_rows = 0;
  uint64_t attempted = 0, failed = 0;
  std::string first_error;

  void Fail(const Status& st) {
    ++failed;
    if (first_error.empty()) first_error = st.ToString();
  }

  /// Folds the finished request rooted at `root` into the sums.
  void AddRequest(const std::vector<SpanRec>& spans, size_t root, OpClass c) {
    const size_t n = spans.size() - root;
    std::vector<int64_t> child(n, 0);
    for (size_t j = root + 1; j < spans.size(); ++j) {
      child[spans[j].parent - root] += spans[j].dur();
    }
    Class& k = cls[c];
    ++k.ops;
    k.op_ns += spans[root].dur();
    double server_ms = 0;
    for (size_t j = root; j < spans.size(); ++j) {
      const SpanRec& s = spans[j];
      const int64_t self = s.dur() - child[j - root];
      k.self_ns[std::string(Layer(s.name))] += self;
      if (Is(s, "server.session_open")) {
        open_ns += s.dur();
        ++opens;
      }
      if (Is(s, "server.refresh")) refresh_ns += s.dur();
      if (Is(s, "server.session_apply")) {
        session_apply_ms.push_back(static_cast<double>(s.dur()) / 1e6);
      }
      if (c != kQueryOp) continue;
      if (Layer(s.name) == "net") codec_ns += s.dur();
      if (Is(s, "server.session_run")) {
        session_run_ms.push_back(static_cast<double>(s.dur()) / 1e6);
        session_self_ns += self;
      }
      if (Is(s, "server.session_run") || Is(s, "server.refresh")) {
        server_ms += static_cast<double>(s.dur()) / 1e6;
      }
      if (Is(s, "graphlog.parse")) parse_ns += s.dur();
      if (Is(s, "graphlog.translate")) translate_ns += s.dur();
      if (Is(s, "datalog.stratify")) stratify_ns += s.dur();
      if (Is(s, "eval.stratum")) {
        fixpoint_ns += s.dur();
        rounds += static_cast<uint64_t>(s.rounds);
        round_ns += s.round_ns;
        lane_busy_ns += s.lane_busy_ns;
      }
    }
    if (c == kQueryOp) server_in_query_ms.push_back(server_ms);
  }

  void Merge(const Acc& o) {
    for (int c = 0; c < kNumClasses; ++c) {
      cls[c].ops += o.cls[c].ops;
      cls[c].op_ns += o.cls[c].op_ns;
      for (const auto& [layer, ns] : o.cls[c].self_ns) {
        cls[c].self_ns[layer] += ns;
      }
    }
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&session_run_ms, o.session_run_ms);
    cat(&server_in_query_ms, o.server_in_query_ms);
    cat(&session_apply_ms, o.session_apply_ms);
    session_self_ns += o.session_self_ns;
    codec_ns += o.codec_ns;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    open_ns += o.open_ns;
    refresh_ns += o.refresh_ns;
    opens += o.opens;
    refreshes += o.refreshes;
    refresh_moves += o.refresh_moves;
    rebuilds += o.rebuilds;
    closed_sessions += o.closed_sessions;
    session_relations += o.session_relations;
    session_bytes += o.session_bytes;
    diffed_commits += o.diffed_commits;
    versions_copied += o.versions_copied;
    rows_copied += o.rows_copied;
    facts_diffed += o.facts_diffed;
    parse_ns += o.parse_ns;
    translate_ns += o.translate_ns;
    stratify_ns += o.stratify_ns;
    fixpoint_ns += o.fixpoint_ns;
    round_ns += o.round_ns;
    lane_busy_ns += o.lane_busy_ns;
    rules += o.rules;
    rounds += o.rounds;
    firings += o.firings;
    derived += o.derived;
    index_builds += o.index_builds;
    peak_delta_rows = std::max(peak_delta_rows, o.peak_delta_rows);
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }
};

// ---------------------------------------------------------------------------
// The replayed requests. Each mirrors what graphlogd does for the same
// frame (net/net_server.cc): decode, call the Session, encode the reply.

struct Ctx {
  const Workload* w;
  Server* server;
};

/// The receiving side's frame check: the payload CRC.
void CheckFrame(const std::string& frame) {
  volatile uint32_t crc =
      durability::Crc32(frame.data() + 8, frame.size() - 8);
  (void)crc;
}

class Replayer {
 public:
  Replayer(const Ctx& ctx, SpanLog* log, Acc* acc)
      : ctx_(ctx), log_(log), acc_(acc) {}

  /// A fresh session, closing the current one: what a client's
  /// CloseSession + OpenSession (or reconnect) costs the server.
  void Open() {
    if (session_ != nullptr) RecordSession();
    const size_t root = log_->Begin("op.open");
    std::string body, frame;
    {
      Scoped s(log_, "net.encode_request");
      net::EncodeSessionOpen(net::WireSessionOpen{}, &body);
      frame =
          net::SerializeFrame(net::Frame{net::MsgType::kOpenSession, body});
    }
    net::WireSessionOpen decoded;
    Status st;
    {
      Scoped s(log_, "net.decode_request");
      CheckFrame(frame);
      st = net::DecodeSessionOpen(body, &decoded);
    }
    if (session_ != nullptr) {
      Scoped s(log_, "server.session_close");
      session_.reset();
    }
    if (st.ok()) {
      Scoped s(log_, "server.session_open");
      Result<std::unique_ptr<Session>> opened =
          ctx_.server->OpenSession(SessionOptions{});
      st = opened.status();
      if (st.ok()) session_ = std::move(*opened);
    }
    if (st.ok()) Reply(net::MsgType::kSessionOpened);
    log_->End();
    Finish(root, kOpenOp, st);
  }

  void Query(const std::string& text) {
    const size_t root = log_->Begin("op.query");
    Status st;
    std::string body, frame;
    if (ctx_.w->refresh_before_query) {
      {
        Scoped s(log_, "net.encode_request");
        frame = net::SerializeFrame(net::Frame{net::MsgType::kRefresh, ""});
      }
      {
        Scoped s(log_, "net.decode_request");
        CheckFrame(frame);
      }
      const uint64_t uid = session_->database().uid();
      const uint64_t epoch = session_->epoch();
      {
        Scoped s(log_, "server.refresh");
        st = session_->Refresh();
      }
      ++acc_->refreshes;
      if (session_->epoch() != epoch) {
        ++acc_->refresh_moves;
        if (session_->database().uid() != uid) ++acc_->rebuilds;
      }
      if (st.ok()) Reply(net::MsgType::kRefreshed);
    }
    const net::WireQuery wq = ctx_.w->Query(text);
    body.clear();
    {
      Scoped s(log_, "net.encode_request");
      net::EncodeQuery(wq, &body);
      frame = net::SerializeFrame(net::Frame{net::MsgType::kQuery, body});
    }
    acc_->request_bytes += frame.size();
    net::WireQuery q;
    if (st.ok()) {
      Scoped s(log_, "net.decode_request");
      CheckFrame(frame);
      st = net::DecodeQuery(body, &q);
    }
    std::optional<QueryResponse> run;
    if (st.ok()) {
      // A copy of the WireQuery-to-QueryRequest mapping in the kQuery case
      // of NetServer::Dispatch (net/net_server.cc), reduced to the fields
      // the workloads send; keep the two in step when either changes.
      QueryRequest qr = QueryRequest::GraphLog(q.text);
      qr.options.eval.num_threads = q.num_threads == 0 ? 1 : q.num_threads;
      qr.options.eval.columnar = q.columnar;
      qr.options.translation.specialize_bound_closures =
          q.specialize_bound_closures;
      qr.options.observability.tracing = true;
      gov::GovernorContext gctx;
      qr.options.eval.governor = &gctx;
      const size_t idx = log_->Begin("server.session_run");
      Result<QueryResponse> r = session_->Run(std::move(qr));
      log_->End();
      st = r.status();
      if (st.ok()) {
        run = std::move(*r);
        log_->Graft(run->trace.spans, idx);
      }
    }
    if (st.ok()) {
      const eval::EvalStats& es = run->stats.datalog;
      acc_->rules += run->stats.programs.size();
      acc_->firings += es.rule_firings;
      acc_->derived += es.tuples_derived;
      acc_->index_builds += es.index_builds;
      if (es.peak_delta_rows > acc_->peak_delta_rows) {
        acc_->peak_delta_rows = es.peak_delta_rows;
      }
      net::WireQueryResult out;
      out.tuples_derived = es.tuples_derived;
      out.graphs_translated = run->stats.graphs_translated;
      out.graphs_summarized = run->stats.graphs_summarized;
      out.result_tuples = run->stats.result_tuples;
      out.epoch = session_->epoch();
      body.clear();
      {
        Scoped s(log_, "net.encode_response");
        net::EncodeQueryResult(out, &body);
        frame = net::SerializeFrame(
            net::Frame{net::MsgType::kQueryResult, body});
      }
      acc_->response_bytes += frame.size();
      Scoped s(log_, "net.decode_response");
      CheckFrame(frame);
      net::WireQueryResult decoded;
      st = net::DecodeQueryResult(body, &decoded);
    }
    log_->End();
    Finish(root, kQueryOp, st);
  }

  void Commit(const Op& op) {
    const std::shared_ptr<const Snapshot> before = ctx_.server->head();
    const size_t root = log_->Begin("op.commit");
    WriteBatch batch;
    for (const EdgeFact& f : op.facts) {
      batch.Insert("edge", {f.first, f.second});
    }
    std::string body, frame;
    Status st;
    {
      Scoped s(log_, "net.encode_request");
      st = durability::BatchCodec::Encode(batch, {}, &body);
      frame =
          net::SerializeFrame(net::Frame{net::MsgType::kApplyBatch, body});
    }
    WriteBatch decoded;
    if (st.ok()) {
      Scoped s(log_, "net.decode_request");
      CheckFrame(frame);
      std::vector<std::string> files;
      st = durability::BatchCodec::Decode(body, &decoded, &files);
    }
    size_t applied = 0;
    if (st.ok()) {
      gov::GovernorContext gctx;
      Scoped s(log_, "server.session_apply");
      Result<size_t> r = session_->Apply(decoded, &gctx);
      st = r.status();
      if (st.ok()) applied = *r;
    }
    if (st.ok()) {
      body.clear();
      {
        Scoped s(log_, "net.encode_response");
        net::EncodeApplyResult(
            net::WireApplyResult{applied, session_->epoch()}, &body);
        frame = net::SerializeFrame(
            net::Frame{net::MsgType::kApplyResult, body});
      }
      Scoped s(log_, "net.decode_response");
      CheckFrame(frame);
      net::WireApplyResult r;
      st = net::DecodeApplyResult(body, &r);
    }
    log_->End();
    Finish(root, kCommitOp, st);
    // Versions the commit copied into the new head, when no other commit
    // landed in between (then the diff is this commit's alone).
    const std::shared_ptr<const Snapshot> after = ctx_.server->head();
    if (st.ok() && after->epoch == before->epoch + 1) {
      ++acc_->diffed_commits;
      acc_->facts_diffed += applied;
      for (const auto& [sym, ver] : after->relations) {
        auto it = before->relations.find(sym);
        if (it == before->relations.end() || it->second != ver) {
          ++acc_->versions_copied;
          acc_->rows_copied += ver->size();
        }
      }
    }
  }

  void Close() {
    if (session_ == nullptr) return;
    RecordSession();
    session_.reset();
  }

 private:
  /// What the session accumulated over its life.
  void RecordSession() {
    ++acc_->closed_sessions;
    acc_->session_relations += session_->database().relations().size();
    acc_->session_bytes += session_->database().TotalBytes();
  }

  /// The session-info reply of an open or a refresh, encoded and decoded.
  void Reply(net::MsgType type) {
    std::string body, frame;
    {
      Scoped s(log_, "net.encode_response");
      net::EncodeSessionInfo({session_->name(), session_->epoch()}, &body);
      frame = net::SerializeFrame(net::Frame{type, body});
    }
    Scoped s(log_, "net.decode_response");
    CheckFrame(frame);
    net::WireSessionInfo decoded;
    (void)net::DecodeSessionInfo(body, &decoded);
  }

  void Finish(size_t root, OpClass c, const Status& st) {
    ++acc_->attempted;
    if (!st.ok()) acc_->Fail(st);
    acc_->AddRequest(log_->spans(), root, c);
  }

  Ctx ctx_;
  SpanLog* log_;
  Acc* acc_;
  std::unique_ptr<Session> session_;
};

void ReplayThread(const Ctx& ctx, const ThreadPlan& plan, Pacer* pacer,
                  const std::atomic<bool>* go, std::atomic<int>* ready,
                  SpanLog* log, Acc* acc) {
  Replayer r(ctx, log, acc);
  r.Open();
  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  for (const Op& op : plan.ops) {
    pacer->Start(op.kind);
    if (op.reopen) r.Open();
    if (op.kind == Op::kCommit) {
      r.Commit(op);
    } else {
      r.Query(op.text);
    }
    pacer->Done(op.kind);
  }
  r.Close();
}

// ---------------------------------------------------------------------------
// Output

/// Writes every span as one JSON array per line (see README.md, "Reading
/// trace_<workload>.json"): ids run 1.. across all logs, parent 0 is a
/// root, times are ns since the earliest span.
Status WriteTrace(const std::string& path, const Workload& w,
                  const std::vector<SpanLog>& logs) {
  uint64_t t0 = UINT64_MAX;
  for (const SpanLog& log : logs) {
    for (const SpanRec& s : log.spans()) t0 = std::min(t0, s.start_ns);
  }
  std::ofstream out(path);
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << w.seed
      << ",\n \"fields\": [\"id\", \"parent\", \"req\", \"name\", "
         "\"start_ns\", \"end_ns\", \"rounds\", \"round_ns\", "
         "\"lane_busy_ns\"],\n"
         " \"spans\": [";
  char buf[256];
  size_t offset = 0;
  const char* sep = "\n  ";
  for (const SpanLog& log : logs) {
    const std::vector<SpanRec>& spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      int n = std::snprintf(
          buf, sizeof(buf), "%s[%zu, %zu, %zu, \"%s\", %llu, %llu", sep,
          offset + i + 1, s.parent == kNoParent ? 0 : offset + s.parent + 1,
          offset + s.root + 1, s.name,
          static_cast<unsigned long long>(s.start_ns - t0),
          static_cast<unsigned long long>(s.end_ns - t0));
      out.write(buf, n);
      if (std::strcmp(s.name, "eval.stratum") == 0) {
        n = std::snprintf(buf, sizeof(buf), ", %lld, %lld, %lld",
                          static_cast<long long>(s.rounds),
                          static_cast<long long>(s.round_ns),
                          static_cast<long long>(s.lane_busy_ns));
        out.write(buf, n);
      }
      out << "]";
      sep = ",\n  ";
    }
    offset += spans.size();
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

/// num / den, or 0 when there is nothing to divide by.
template <typename N, typename D>
double Per(N num, D den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

uint64_t CounterOf(const obs::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

obs::Histogram HistogramOf(const obs::MetricsSnapshot& s, const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? obs::Histogram{} : it->second;
}

}  // namespace

Result<ReplayResult> RunTracedReplay(const Workload& w,
                                     const WireObservations& wire,
                                     const std::string& workdir,
                                     const std::string& trace_path) {
  // Set-up spans (server open, seed load, recovery) go to log 0; each
  // client thread records into its own log.
  std::vector<SpanLog> logs(w.threads.size() + 1);
  SpanLog& setup = logs[0];
  obs::MetricsRegistry metrics;
  ServerOptions sopts;
  sopts.metrics = &metrics;
  DurabilityOptions dopts;
  dopts.fsync = durability::FsyncPolicy::kAlways;
  const std::string dir = workdir + "/" + w.name + ".traced";
  fs::remove_all(dir);

  std::unique_ptr<Server> server;
  if (w.durable) {
    Scoped s(&setup, "server.open");
    GRAPHLOG_ASSIGN_OR_RETURN(server, Server::Open(dir, sopts, dopts));
  } else {
    server = std::make_unique<Server>(sopts);
  }
  size_t seed_facts = 0;
  int64_t load_ns = 0;
  {
    Scoped s(&setup, "server.apply");
    GRAPHLOG_ASSIGN_OR_RETURN(
        seed_facts, server->Apply(WriteBatch().LoadFile(w.facts_path)));
    load_ns = static_cast<int64_t>(obs::NowNs() -
                                   setup.spans()[s.index()].start_ns);
  }
  const obs::MetricsSnapshot before = metrics.Snapshot();

  const Ctx ctx{&w, server.get()};
  std::vector<Acc> accs(w.threads.size());
  {
    Pacer pacer(w);
    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<std::thread> ts;
    for (size_t i = 0; i < w.threads.size(); ++i) {
      ts.emplace_back(ReplayThread, std::cref(ctx), std::cref(w.threads[i]),
                      &pacer, &go, &ready, &logs[i + 1], &accs[i]);
    }
    while (ready.load() < static_cast<int>(ts.size())) {
      std::this_thread::yield();
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : ts) t.join();
  }
  Acc acc;
  for (const Acc& a : accs) acc.Merge(a);
  const obs::MetricsSnapshot after = metrics.Snapshot();

  double recovery_ms = 0, replayed_records = 0;
  if (w.durable) {
    server.reset();
    obs::MetricsRegistry rmetrics;
    ServerOptions ropts;
    ropts.metrics = &rmetrics;
    Scoped s(&setup, "server.open");
    GRAPHLOG_ASSIGN_OR_RETURN(server, Server::Open(dir, ropts, dopts));
    const obs::MetricsSnapshot r = rmetrics.Snapshot();
    recovery_ms = HistogramOf(r, "recovery.duration_ns").sum / 1e6;
    replayed_records =
        static_cast<double>(CounterOf(r, "recovery.replayed_records"));
  }
  server.reset();
  GRAPHLOG_RETURN_NOT_OK(WriteTrace(trace_path, w, logs));

  auto count = [&](const char* name) {
    return static_cast<double>(CounterOf(after, name));
  };
  auto delta = [&](const char* name) {
    return count(name) - static_cast<double>(CounterOf(before, name));
  };
  const obs::Histogram wal0 = HistogramOf(before, "wal.append_ns");
  const obs::Histogram wal1 = HistogramOf(after, "wal.append_ns");
  const double wal_append_us =
      Per((wal1.sum - wal0.sum) / 1e3, wal1.count - wal0.count);
  const uint64_t queries = acc.cls[kQueryOp].ops;
  const bool commits = acc.cls[kCommitOp].ops > 0;

  ReplayResult out;
  out.attempted = acc.attempted;
  out.failed = acc.failed;
  out.first_error = acc.first_error;
  std::vector<Metric>& m = out.layers;
  m = {
      {"net.rtt_us", wire.ping_p50_us, "us", "Ping p50 against graphlogd"},
      {"net.codec_us", Per(acc.codec_ns / 1e3, queries), "us",
       "encode + decode + frame CRC per query, both directions"},
      {"net.request_bytes", Per(acc.request_bytes, queries), "bytes",
       "query frame"},
      {"net.response_bytes", Per(acc.response_bytes, queries), "bytes",
       "query result frame"},
      {"net.wire_ms", wire.query_p50_ms - Median(acc.server_in_query_ms),
       "ms", "client query p50 minus traced server time p50"},
      {"server.session_open_ms", Per(acc.open_ns / 1e6, acc.opens), "ms",
       "Server::OpenSession"},
      {"server.session_run_ms", Median(acc.session_run_ms), "ms",
       "Session::Run p50"},
      {"server.session_self_ms", Per(acc.session_self_ns / 1e6, queries), "ms",
       "Session::Run outside the pipeline's spans"},
      {"server.session_relations",
       Per(acc.session_relations, acc.closed_sessions), "count",
       "relations in a session when it closes"},
      {"server.session_bytes", Per(acc.session_bytes, acc.closed_sessions),
       "bytes", "Database::TotalBytes of a session when it closes"},
      {"server.refresh_ms", Per(acc.refresh_ns / 1e6, acc.refreshes), "ms",
       "Session::Refresh"},
      {"server.refresh_rebuild_ratio", Per(acc.rebuilds, acc.refresh_moves),
       "ratio", "refreshes that rebuilt the session (Database::uid changed)"},
      {"server.apply_ms",
       commits ? Mean(acc.session_apply_ms) - wal_append_us / 1e3 : 0, "ms",
       "Session::Apply mean minus WAL append mean"},
      {"server.session_apply_ms", Median(acc.session_apply_ms), "ms",
       "Session::Apply p50"},
      {"server.versions_copied_per_commit",
       Per(acc.versions_copied, acc.diffed_commits), "count", "head() diffs"},
      {"server.rows_copied_per_fact", Per(acc.rows_copied, acc.facts_diffed),
       "ratio", "head() diffs"},
      {"graphlog.parse_us", Per(acc.parse_ns / 1e3, queries), "us", ""},
      {"graphlog.translate_us", Per(acc.translate_ns / 1e3, queries), "us", ""},
      {"graphlog.rules_per_query", Per(acc.rules, queries), "count", ""},
      {"datalog.stratify_us", Per(acc.stratify_ns / 1e3, queries), "us", ""},
      {"eval.fixpoint_ms", Per(acc.fixpoint_ns / 1e6, queries), "ms",
       "sum of stratum spans per query"},
      {"eval.rounds", Per(acc.rounds, queries), "count", ""},
      {"eval.rule_firings", Per(acc.firings, queries), "count", ""},
      {"eval.tuples_derived", Per(acc.derived, queries), "count", ""},
      {"eval.derive_ratio", Per(acc.derived, acc.firings), "ratio",
       "derived / firings"},
      {"eval.index_builds", Per(acc.index_builds, queries), "count", ""},
      {"eval.peak_delta_rows", static_cast<double>(acc.peak_delta_rows),
       "count", "max over queries"},
      {"exec.lane_busy_share",
       Per(acc.lane_busy_ns, static_cast<double>(acc.round_ns) * w.num_threads),
       "ratio", "lane busy / (round time x lanes)"},
      {"tc.invocations", count("tc.invocations"), "count", ""},
      {"rpq.invocations", count("rpq.invocations"), "count", ""},
      {"columnar.builds", count("columnar.builds"), "count", ""},
      {"durability.wal_append_us", wal_append_us, "us", "wal.append_ns mean"},
      {"durability.fsyncs_per_commit",
       Per(delta("wal.fsyncs"), delta("wal.appends")), "ratio", ""},
      {"durability.wal_bytes_per_fact",
       Per(delta("wal.bytes_appended"), delta("server.facts_committed")),
       "bytes", ""},
      {"durability.recovery_replay_ms", recovery_ms, "ms", "Server::Open"},
      {"durability.replayed_records", replayed_records, "count", ""},
      {"storage.load_ms", load_ns / 1e6, "ms", "seed Server::Apply"},
      {"storage.seed_facts", static_cast<double>(seed_facts), "count", ""},
  };
  for (int c = 0; c < kNumClasses; ++c) {
    const Acc::Class& k = acc.cls[c];
    std::string breakdown;
    for (const auto& [layer, ns] : k.self_ns) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%s %.4f",
                    breakdown.empty() ? "" : ", ", layer.c_str(),
                    Per(ns / 1e6, k.ops));
      breakdown += buf;
    }
    const std::string cls = kClassNames[c];
    m.push_back({"trace.op_ms." + cls, Per(k.op_ns / 1e6, k.ops), "ms",
                 std::to_string(k.ops) + " ops; self ms/op: " + breakdown});
    auto it = k.self_ns.find("op");
    m.push_back({"trace.unattributed_ms." + cls,
                 it == k.self_ns.end() ? 0 : Per(it->second / 1e6, k.ops), "ms",
                 "op latency minus the layers' self times"});
  }
  return out;
}

}  // namespace graphlog::e2e
