#include "server/server.h"

#include <chrono>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "storage/io.h"

namespace graphlog {

using storage::Database;
using storage::Relation;
using storage::Tuple;

namespace {

/// True when `ver` still describes the live relation byte-for-byte: same
/// identity (uid), same committed data stamp, same row count. DropIndexes
/// and index builds don't move any of the three, so retained versions
/// survive physical-only churn.
bool SameVersion(const Relation& live, const Relation& ver) {
  return live.uid() == ver.uid() &&
         live.data_generation() == ver.data_generation() &&
         live.size() == ver.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  std::lock_guard<std::mutex> lock(mu_);
  RebuildHeadLocked();  // epoch-0 snapshot of the empty database
}

Server::~Server() = default;  // out-of-line for the durability::Wal member

Result<std::unique_ptr<Server>> Server::Open(const std::string& dir,
                                             ServerOptions opts,
                                             DurabilityOptions dur) {
  const auto started = std::chrono::steady_clock::now();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("failed creating durable directory '" + dir +
                            "': " + ec.message());
  }
  const std::string ckpt_path = dir + "/checkpoint.db";
  const std::string wal_path = dir + "/wal.log";

  std::unique_ptr<Server> server(new Server(std::move(opts)));
  server->dir_ = dir;

  // 1. Newest valid checkpoint (atomic rename means there is at most
  //    one; a leftover checkpoint.db.tmp from an aborted write is dead).
  GRAPHLOG_ASSIGN_OR_RETURN(durability::CheckpointData ckpt,
                            durability::ReadCheckpoint(ckpt_path));
  uint64_t epoch = 0;
  if (ckpt.found) {
    server->db_ = std::move(ckpt.db);
    epoch = ckpt.epoch;
  }

  // 2. WAL tail replay through the same machinery commits use. Records
  //    at or below the checkpoint epoch are already inside it (a crash
  //    between checkpoint rename and WAL truncation leaves them behind,
  //    harmlessly).
  GRAPHLOG_ASSIGN_OR_RETURN(durability::WalScan scan,
                            durability::ScanWal(wal_path));
  uint64_t replayed = 0;
  uint64_t replayed_facts = 0;
  for (durability::WalRecord& rec : scan.records) {
    if (rec.epoch <= epoch) continue;
    Result<size_t> r =
        ApplyBatchTo(rec.batch, &server->db_, nullptr, nullptr,
                     &rec.files);
    if (!r.ok()) {
      // A checksum-valid record that will not apply is corruption the
      // CRC missed (or cross-version drift); refuse the whole log
      // rather than recover a state no committed prefix ever had.
      return Status::CorruptedLog(
          "recovery: WAL record for epoch " + std::to_string(rec.epoch) +
          " does not replay: " + r.status().ToString());
    }
    replayed_facts += *r;
    ++replayed;
    epoch = rec.epoch;
  }
  uint64_t torn_bytes = 0;
  if (scan.torn) {
    torn_bytes = scan.file_bytes - scan.valid_prefix_bytes;
    GRAPHLOG_RETURN_NOT_OK(
        durability::TruncateFile(wal_path, scan.valid_prefix_bytes));
  }

  // 3. Publish the recovered state as the head snapshot. The prev ==
  //    nullptr path of RebuildHeadLocked keeps epoch_ as stored, so the
  //    recovered epoch numbering continues exactly where it stopped.
  server->epoch_.store(epoch, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(server->mu_);
    {
      std::lock_guard<std::mutex> head_lock(server->head_mu_);
      server->head_ = nullptr;
    }
    server->RebuildHeadLocked();
  }

  // 4. Open the appender at the (repaired) tail.
  durability::WalOptions wopts;
  wopts.fsync = dur.fsync;
  wopts.group_window_ms = dur.group_window_ms;
  wopts.metrics = server->opts_.metrics;
  wopts.faults = server->opts_.faults;
  GRAPHLOG_ASSIGN_OR_RETURN(server->wal_,
                            durability::Wal::Open(wal_path, wopts));

  if (server->opts_.metrics != nullptr) {
    obs::MetricsRegistry* m = server->opts_.metrics;
    m->counter("recovery.runs")->Increment();
    m->counter("recovery.replayed_records")
        ->Add(static_cast<int64_t>(replayed));
    m->counter("recovery.replayed_facts")
        ->Add(static_cast<int64_t>(replayed_facts));
    m->counter("recovery.torn_tail_bytes")
        ->Add(static_cast<int64_t>(torn_bytes));
    m->gauge("recovery.epoch")->Set(static_cast<int64_t>(epoch));
    m->histogram("recovery.duration_ns")
        ->Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - started)
                      .count());
  }
  return server;
}

Status Server::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint() requires a durable server (Server::Open)");
  }
  // Under the commit lock: the serialized state and the epoch stamped on
  // it cannot drift apart, and no commit can append between the
  // checkpoint and the WAL truncation behind it.
  std::lock_guard<std::mutex> lock(mu_);
  GRAPHLOG_RETURN_NOT_OK(durability::WriteCheckpoint(
      dir_ + "/checkpoint.db", db_, epoch(), opts_.faults, opts_.metrics));
  return wal_->Reset();
}

std::shared_ptr<const Snapshot> Server::head() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

Result<std::unique_ptr<Session>> Server::OpenSession(SessionOptions opts) {
  const size_t before = open_sessions_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.max_sessions != 0 && before >= opts_.max_sessions) {
    open_sessions_.fetch_sub(1, std::memory_order_relaxed);
    return Status::BudgetExceeded(
        "session admission: " + std::to_string(opts_.max_sessions) +
        " sessions already open");
  }
  std::string name = opts.name;
  if (name.empty()) {
    name = "s" + std::to_string(
                     session_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  std::unique_ptr<Session> s(new Session(this, std::move(opts), std::move(name)));
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("server.sessions_opened")->Increment();
  }
  PublishSessionCount(before + 1);
  return s;
}

void Server::ReleaseSession() {
  PublishSessionCount(open_sessions_.fetch_sub(1, std::memory_order_relaxed) -
                      1);
}

void Server::PublishSessionCount(size_t open) {
  if (opts_.metrics != nullptr) {
    opts_.metrics->gauge("server.sessions")->Set(static_cast<int64_t>(open));
  }
}

Result<size_t> Server::Apply(const WriteBatch& batch,
                             const gov::GovernorContext* governor) {
  std::lock_guard<std::mutex> lock(mu_);
  // A batch without its own governor still honors the server-armed fault
  // injector (deterministic io.load failures in tests and the shell).
  gov::GovernorContext local;
  if (governor == nullptr && opts_.faults != nullptr) {
    local.faults = opts_.faults;
    governor = &local;
  }
  // kLoadFile contents are captured for the WAL record, so recovery
  // applies the exact bytes this commit read, never a path re-read from
  // disk.
  std::vector<std::string> files;
  BatchUndo undo;
  Result<size_t> applied =
      ApplyBatchTo(batch, &db_, governor, &files, nullptr, &undo);
  if (applied.ok() && wal_ != nullptr) {
    // Durable commit: the record must reach the log (and stable storage,
    // per the fsync policy) BEFORE the epoch publishes. A logging
    // failure rolls the in-memory apply back — a commit that is not
    // durable must not be observable.
    Status logged = wal_->Append(epoch() + 1, batch, files);
    if (!logged.ok()) {
      UndoBatch(&db_, std::move(undo));
      applied = logged;
    }
  }
  if (opts_.metrics != nullptr) {
    if (applied.ok()) {
      opts_.metrics->counter("server.commits")->Increment();
      opts_.metrics->counter("server.facts_committed")->Add(*applied);
    } else {
      opts_.metrics->counter("server.aborted_commits")->Increment();
    }
  }
  GRAPHLOG_RETURN_NOT_OK(applied.status());
  RebuildHeadLocked();
  return applied;
}

void Server::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  RebuildHeadLocked();
}

void Server::RebuildHeadLocked() {
  std::shared_ptr<const Snapshot> prev;
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    prev = head_;
  }
  auto next = std::make_shared<Snapshot>();
  // First publish keeps epoch 0 (the empty-database snapshot of the
  // constructor); every later rebuild is one commit -> one epoch.
  next->epoch = prev == nullptr
                    ? epoch_.load(std::memory_order_relaxed)
                    : epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Freezing moves only the symbols interned since the last publish into
  // the shared prefix; with none, the previous prefix is reused.
  next->symbols = db_.symbols().Freeze();
  size_t copied = 0;
  for (const auto& [sym, rel] : db_.relations()) {
    std::shared_ptr<const Relation> ver;
    if (prev != nullptr) {
      auto it = prev->relations.find(sym);
      if (it != prev->relations.end() && SameVersion(rel, *it->second)) {
        ver = it->second;  // retained: untouched since the last publish
      }
    }
    if (ver == nullptr) {
      // Shares the live relation's row chunks; the next write to the live
      // relation copies at most its last chunk. Indexes and the dedup set
      // stay behind and rebuild lazily wherever the version is read.
      ver = std::make_shared<const Relation>(rel);
      ++copied;
    }
    next->relations.emplace(sym, std::move(ver));
  }
  if (opts_.metrics != nullptr) {
    opts_.metrics->gauge("server.epoch")
        ->Set(static_cast<int64_t>(next->epoch));
    opts_.metrics->gauge("server.snapshot_relations")
        ->Set(static_cast<int64_t>(next->relations.size()));
    opts_.metrics->counter("server.versions_copied")->Add(copied);
  }
  std::lock_guard<std::mutex> lock(head_mu_);
  head_ = std::move(next);
}

Result<size_t> Server::ApplyBatchTo(
    const WriteBatch& batch, Database* db,
    const gov::GovernorContext* governor,
    std::vector<std::string>* capture_files,
    const std::vector<std::string>* replay_files,
    BatchUndo* undo_out) {
  // Pre-state for rollback: every relation's size and data stamp, plus
  // pre-batch copies of anything a Clear op wipes (truncation cannot
  // restore cleared rows).
  BatchUndo undo;
  std::map<Symbol, std::pair<size_t, uint64_t>>& pre_state = undo.pre_state;
  for (const auto& [sym, rel] : db->relations()) {
    pre_state.emplace(sym, std::make_pair(rel.size(), rel.data_generation()));
  }
  std::map<Symbol, Relation>& cleared = undo.cleared;
  size_t facts = 0;
  size_t file_idx = 0;
  Status st = Status::OK();
  for (const WriteBatch::Op& op : batch.ops_) {
    switch (op.kind) {
      case WriteBatch::Op::kFacts: {
        Result<size_t> r = storage::LoadFacts(op.text, db, governor);
        if (r.ok()) {
          facts += *r;
        } else {
          st = r.status();
        }
        break;
      }
      case WriteBatch::Op::kLoadFile: {
        Result<size_t> r = [&]() -> Result<size_t> {
          if (replay_files != nullptr) {
            // Replay the exact bytes the committed apply read: re-reading
            // the file here could pick up concurrent on-disk edits and
            // diverge from the published version under a matching stamp.
            if (file_idx >= replay_files->size()) {
              return Status::Internal("replay of '" + op.text +
                                      "' has no captured contents");
            }
            return storage::LoadFacts((*replay_files)[file_idx], db,
                                      governor);
          }
          // Live load always reads the raw contents back out — WAL
          // recovery replays these captured bytes; there is no
          // path-based replay.
          std::string contents;
          Result<size_t> loaded =
              storage::LoadFactsFile(op.text, db, governor, &contents);
          if (capture_files != nullptr) {
            capture_files->push_back(std::move(contents));
          }
          return loaded;
        }();
        ++file_idx;
        if (r.ok()) {
          facts += *r;
        } else {
          st = r.status();
        }
        break;
      }
      case WriteBatch::Op::kInsert: {
        Tuple t;
        t.reserve(op.args.size());
        for (const std::string& a : op.args) {
          t.push_back(Value::Sym(db->Intern(a)));
        }
        st = db->AddFact(op.text, std::move(t));
        if (st.ok()) ++facts;
        break;
      }
      case WriteBatch::Op::kClear: {
        const Symbol s = db->symbols().Lookup(op.text);
        Relation* rel = s == kNoSymbol ? nullptr : db->FindMutable(s);
        if (rel == nullptr) {
          st = Status::NotFound("cannot clear unknown relation '" + op.text +
                                "'");
          break;
        }
        if (pre_state.count(s) != 0 && cleared.count(s) == 0) {
          // Save the true pre-batch contents once. Earlier ops of this
          // same batch may already have appended rows and bumped the
          // stamp; rows are append-only, so trimming the copy back to
          // its pre-batch size and stamp undoes them — rollback must
          // never reinstate in-batch inserts.
          const auto& pre = pre_state.find(s)->second;
          Relation saved(*rel);  // shares rows: O(chunks)
          if (saved.size() > pre.first) saved.TruncateTo(pre.first);
          saved.RestoreDataGeneration(pre.second);
          cleared.emplace(s, std::move(saved));
        }
        rel->Clear();
        break;
      }
    }
    if (!st.ok()) break;
  }
  if (st.ok()) {
    if (undo_out != nullptr) *undo_out = std::move(undo);
    return facts;
  }
  UndoBatch(db, std::move(undo));
  return st;
}

void Server::UndoBatch(storage::Database* db, BatchUndo&& undo) {
  // All-or-nothing: undo everything the batch did, in an order that
  // composes — drop created relations, shrink grown ones (restoring the
  // pre-batch data stamp the ops bumped), then reinstate cleared ones
  // wholesale (which also fixes clear-then-grow sequences).
  std::vector<Symbol> created;
  for (const auto& [sym, rel] : db->relations()) {
    (void)rel;
    if (undo.pre_state.count(sym) == 0) created.push_back(sym);
  }
  for (Symbol s : created) db->Remove(s);
  for (const auto& [sym, pre] : undo.pre_state) {
    Relation* rel = db->FindMutable(sym);
    if (rel == nullptr) continue;
    if (rel->size() > pre.first) rel->TruncateTo(pre.first);
    rel->RestoreDataGeneration(pre.second);
  }
  for (auto& [sym, saved] : undo.cleared) {
    db->relations().insert_or_assign(sym, std::move(saved));
  }
}

// ---------------------------------------------------------------------------
// Session

Session::Session(Server* server, SessionOptions opts, std::string name)
    : server_(server),
      opts_(std::move(opts)),
      name_(std::move(name)) {
  Materialize(server_->head());
}

Session::~Session() { server_->ReleaseSession(); }

void Session::Materialize(const std::shared_ptr<const Snapshot>& snap) {
  // A fresh Database per materialization: its new uid fences this
  // session's result-cache entries off from every other database, and
  // session-local symbol ids can never leak into them.
  db_ = Database();
  db_.symbols() = SymbolTable(snap->symbols);
  for (const auto& [sym, ver] : snap->relations) {
    // Copies share the version's rows and keep the server-issued uid and
    // data stamp, so stamp-keyed caches validate within the session
    // exactly as on the server.
    db_.relations().emplace(sym, *ver);
  }
  epoch_ = snap->epoch;
}

Status Session::Refresh() {
  std::shared_ptr<const Snapshot> snap = server_->head();
  if (snap->epoch == epoch_) return Status::OK();
  ++stats_.refreshes;
  if (!db_.symbols().Rebase(snap->symbols)) {
    // A newly committed server symbol spells the same string as one this
    // session interned locally: two ids would name one string, so the
    // private database rebuilds from scratch (session materializations
    // drop).
    Materialize(snap);
    return Status::OK();
  }
  // In place: session-local symbol ids lie outside the server's range, so
  // EDB versions swap in directly and session-local relations
  // (materialized IDB results) survive — grow-only semantics, same as
  // re-running against a single long-lived Database.
  for (const auto& [sym, ver] : snap->relations) {
    auto it = db_.relations().find(sym);
    if (it == db_.relations().end()) {
      db_.relations().emplace(sym, *ver);
    } else if (!SameVersion(it->second, *ver) && !it->second.CatchUp(*ver)) {
      it->second = *ver;
    }
  }
  // Server-prefix relations the new head no longer carries were removed
  // server-side; drop them so this session stops serving deleted EDBs.
  // Session-local relations (symbol ids >= kLocalSymbolBase) survive.
  for (auto it = db_.relations().begin(); it != db_.relations().end();) {
    if (it->first < kLocalSymbolBase &&
        snap->relations.count(it->first) == 0) {
      it = db_.relations().erase(it);
    } else {
      ++it;
    }
  }
  epoch_ = snap->epoch;
  return Status::OK();
}

Result<size_t> Session::Apply(const WriteBatch& batch,
                              const gov::GovernorContext* governor) {
  GRAPHLOG_ASSIGN_OR_RETURN(size_t facts, server_->Apply(batch, governor));
  ++stats_.writes;
  GRAPHLOG_RETURN_NOT_OK(Refresh());
  return facts;
}

Result<QueryResponse> Session::Run(QueryRequest req) {
  QueryOptions& o = req.options;
  const QueryOptions& d = opts_.defaults;
  // Fill unset request options from the session defaults, then the
  // server. Pointers fill when null; toggles OR in; num_threads applies
  // when the request kept the serial default.
  if (o.observability.metrics == nullptr) {
    o.observability.metrics = d.observability.metrics != nullptr
                                  ? d.observability.metrics
                                  : server_->metrics();
  }
  if (o.observability.slow_query_log == nullptr &&
      d.observability.slow_query_log != nullptr) {
    o.observability.slow_query_log = d.observability.slow_query_log;
    o.observability.slow_query_threshold_ns =
        d.observability.slow_query_threshold_ns;
  }
  if (o.cache.result_cache == nullptr) {
    o.cache.result_cache = d.cache.result_cache != nullptr
                               ? d.cache.result_cache
                               : server_->result_cache();
  }
  if (o.cache.views == nullptr) o.cache.views = d.cache.views;
  if (d.eval.columnar) o.eval.columnar = true;
  if (d.translation.specialize_bound_closures) {
    o.translation.specialize_bound_closures = true;
  }
  if (o.eval.num_threads == 1 && d.eval.num_threads != 1) {
    o.eval.num_threads = d.eval.num_threads;
  }
  if (o.eval.columnar && o.eval.csr_cache == nullptr) {
    o.eval.csr_cache = &csr_cache_;
  }
  // Slow-query attribution: which session ran the query, under which
  // server epoch.
  if (o.observability.session.empty()) o.observability.session = name_;
  if (o.observability.server_epoch == 0) {
    o.observability.server_epoch = epoch_;
  }
  // A request without its own governor runs under the session's limits
  // (and its cancellation token) when any are configured.
  gov::GovernorContext session_governor;
  if (o.eval.governor == nullptr &&
      (opts_.budget.any() || opts_.deadline_ms != 0)) {
    session_governor.token = cancel_;
    session_governor.budget = opts_.budget;
    if (opts_.deadline_ms != 0) {
      session_governor.deadline = gov::Deadline::AfterMillis(opts_.deadline_ms);
    }
    o.eval.governor = &session_governor;
  }

  Result<QueryResponse> resp = graphlog::Run(req, &db_);
  ++stats_.queries;
  if (!resp.ok()) {
    ++stats_.errors;
    return resp;
  }
  if (resp->cache_hit) ++stats_.cache_hits;
  if (resp->truncated) ++stats_.truncated;
  if (!resp->profile.empty()) {
    // EXPLAIN ANALYZE usage: how often, and how much work the profiled
    // queries covered (deterministic logical counts).
    ++stats_.profile_runs;
    stats_.profile_rounds += resp->profile.rounds.size();
  }
  return resp;
}

}  // namespace graphlog
