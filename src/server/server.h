// Server/Session: concurrent multi-session serving with epoch-snapshot
// isolation.
//
// The engine below this layer is deliberately single-caller: a query
// mutates its Database in place (IDB materialization, index builds), so
// one mutable Database cannot serve concurrent readers and a writer. The
// server layer restores concurrency with MVCC-lite snapshots built from
// machinery the cache layer already relies on:
//
//   * Relation uids are process-global and never reused, and
//     data_generation counters bump only on committed data changes — so
//     the pair (uid, data_generation) is a stamp that names one immutable
//     version of one relation's contents, forever.
//   * A Snapshot is an immutable map relation-name -> shared stamped
//     version plus the frozen symbol prefix at commit time. Publishing a
//     snapshot retains the versions of untouched relations from the
//     previous one and makes a new version only of what the batch
//     changed. A new version shares every row chunk with the live
//     relation (storage/relation.h), and the prefix shares every symbol
//     segment with the previous one (common/symbol_table.h), so a publish
//     costs O(rows and symbols the batch added), not O(database).
//   * A Server owns the authoritative Database. Writers submit atomic
//     WriteBatches: under the commit lock the batch applies all-or-nothing
//     (a failure rolls every op back and publishes nothing), then the
//     server epoch bumps and a new head snapshot is published. Readers
//     never touch the authoritative Database.
//   * A Session pins a snapshot by materializing a private Database from
//     it: a symbol table over the snapshot's shared prefix plus
//     chunk-sharing copies of the version relations, which keep their
//     server-issued uids and stamps —
//     so the result cache and CSR cache invalidate correctly inside the
//     session, and a pinned session is immune to later commits until it
//     Refresh()es. Queries run through the unchanged single-caller
//     pipeline against the private Database, giving every session the
//     full engine (parallel lanes, columnar path, result cache, views)
//     under isolation for free.
//
// Sessions intern query-local symbols (variable names, query constants,
// fresh auxiliary predicates) into their private tables from
// kLocalSymbolBase up, a range the server never issues, so symbol ids
// diverge across sessions only there. Everything keyed across sessions
// therefore scopes by Database::uid (the result cache already does) or
// stays per-session (each Session owns its CSR cache).
//
// Concurrency contract: Server is thread-safe (one writer at a time
// serializes on the commit lock; head() is a cheap pointer load under its
// own mutex). A Session is single-caller like the engine — one thread
// drives it at a time — but any number of sessions run concurrently, and
// Session::Cancel() may be called from any thread.
//
// graphlog::Run (graphlog/api.h) is the pipeline every Session::Run
// calls; a single caller may also call it directly on its own Database,
// with no snapshots and therefore no isolation.

#ifndef GRAPHLOG_SERVER_SERVER_H_
#define GRAPHLOG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "columnar/csr_cache.h"
#include "common/result.h"
#include "durability/fsync_policy.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "storage/database.h"

namespace graphlog {

class Session;

namespace durability {
struct BatchCodec;  // durability/wal.h: WAL wire format for WriteBatch
class Wal;
}  // namespace durability

namespace net {
struct WireBatchAccess;  // net/protocol.h: batch translation for the wire
}  // namespace net

/// \brief An immutable view of the database as of one committed epoch.
///
/// Shared versions: relations a commit does not touch are carried over
/// from the previous snapshot by shared_ptr, and a changed relation's new
/// version shares its row chunks with the old one, so retaining N epochs
/// costs only the rows that actually changed between them. Version
/// relations carry no indexes or dedup set (they rebuild lazily inside
/// the session that materializes them).
struct Snapshot {
  uint64_t epoch = 0;
  /// The server's symbols at publish time (shared with later snapshots
  /// and every session). Grow-only, so every Symbol a version relation's
  /// rows reference resolves here.
  std::shared_ptr<const SymbolPrefix> symbols;
  std::map<Symbol, std::shared_ptr<const storage::Relation>> relations;
};

/// \brief An ordered list of write operations that commits atomically:
/// either every op applies and one new epoch is published, or none do.
class WriteBatch {
 public:
  /// \brief Parses `text` as Datalog ground facts (storage/io.h) and
  /// inserts them, declaring relations on first use.
  WriteBatch& Facts(std::string text) {
    ops_.push_back({Op::kFacts, std::move(text), {}});
    return *this;
  }

  /// \brief Inserts one fact whose arguments are strings interned as
  /// symbols (numeric or mixed arguments go through Facts()).
  WriteBatch& Insert(std::string relation, std::vector<std::string> args) {
    ops_.push_back({Op::kInsert, std::move(relation), std::move(args)});
    return *this;
  }

  /// \brief Loads a fact file from disk (storage/io.h contract).
  WriteBatch& LoadFile(std::string path) {
    ops_.push_back({Op::kLoadFile, std::move(path), {}});
    return *this;
  }

  /// \brief Empties an existing relation (it stays declared). Clearing an
  /// unknown relation fails the batch.
  WriteBatch& Clear(std::string relation) {
    ops_.push_back({Op::kClear, std::move(relation), {}});
    return *this;
  }

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

 private:
  friend class Server;
  friend struct durability::BatchCodec;
  friend struct net::WireBatchAccess;
  struct Op {
    enum Kind : uint8_t { kFacts, kInsert, kLoadFile, kClear } kind;
    /// kFacts: the fact text; kInsert/kClear: the relation name;
    /// kLoadFile: the path.
    std::string text;
    std::vector<std::string> args;  ///< kInsert only
  };
  std::vector<Op> ops_;
};

struct ServerOptions {
  /// Registry for server.* accounting (and the default
  /// observability.metrics of every session). Null disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Default result cache handed to sessions whose requests set none.
  /// Safe to share across sessions: the cache is internally synchronized
  /// and keys are scoped by Database::uid, so entries never replay across
  /// session symbol spaces.
  cache::ResultCache* result_cache = nullptr;
  /// Fault injector armed on write batches that carry no governor of
  /// their own (the io.load site etc.; see gov/fault_injection.h).
  gov::FaultInjector* faults = nullptr;
  /// Admission control: OpenSession fails with kBudgetExceeded once this
  /// many sessions are open. 0 = unlimited.
  size_t max_sessions = 0;
};

/// \brief Durable-mode configuration for Server::Open.
struct DurabilityOptions {
  /// When an appended WAL record reaches stable storage (see
  /// durability/fsync_policy.h for the per-policy crash contract).
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kAlways;
  /// kGroupCommit: at most one fsync per this many milliseconds.
  uint64_t group_window_ms = 5;
};

/// \brief Per-session configuration; all fields optional.
struct SessionOptions {
  /// Session name (slow-query attribution, the shell's session list);
  /// auto-assigned "s<N>" if empty.
  std::string name;
  /// Default per-query resource budget, applied when a request carries no
  /// governor of its own.
  gov::ResourceBudget budget{};
  /// Default per-query deadline in milliseconds (same condition); 0 = none.
  uint64_t deadline_ms = 0;
  /// Fill-in defaults for request options left unset (null pointers are
  /// filled, false toggles are OR-ed in, num_threads applies when the
  /// request keeps the default 1).
  QueryOptions defaults{};
};

/// \brief The concurrent front door: owns (or wraps) the Database, commits
/// write batches, publishes snapshots, and opens sessions.
class Server {
 public:
  /// \brief The server owns an empty authoritative Database and
  /// publishes an epoch-0 snapshot of it.
  explicit Server(ServerOptions opts = {});

  /// \brief Durable mode: opens (creating if needed) the directory `dir`
  /// and recovers the pre-crash state — the newest valid checkpoint plus
  /// a replay of the WAL tail through the same batch-apply machinery
  /// commits use. A torn WAL tail (interrupted final append) is
  /// truncated and the committed prefix recovered; interior corruption
  /// fails with kCorruptedLog and applies nothing. Once open, every
  /// Apply() appends to the WAL and syncs per `dur.fsync` BEFORE its
  /// epoch publishes. Caches, CSR snapshots, and statistics are not
  /// durable — they rebuild cold. Direct database() mutations bypass the
  /// log; durable servers must write through Apply().
  static Result<std::unique_ptr<Server>> Open(const std::string& dir,
                                              ServerOptions opts = {},
                                              DurabilityOptions dur = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Opens a session pinned to the current head snapshot. The
  /// returned Session must not outlive the Server. Fails with
  /// kBudgetExceeded when ServerOptions::max_sessions is reached.
  Result<std::unique_ptr<Session>> OpenSession(SessionOptions opts = {});

  /// \brief Commits `batch` atomically against the authoritative
  /// Database and publishes a new head snapshot one epoch later. On
  /// failure (parse error, arity clash, governed abort at io.load, ...)
  /// every op is rolled back, the epoch does not move, and no snapshot
  /// is published. Returns the number of facts inserted.
  /// `governor` bounds the batch; when null, ServerOptions::faults (if
  /// any) still applies.
  Result<size_t> Apply(const WriteBatch& batch,
                       const gov::GovernorContext* governor = nullptr);

  /// \brief The current head snapshot. A cheap shared_ptr load — never
  /// blocks behind an in-flight commit.
  std::shared_ptr<const Snapshot> head() const;

  /// \brief Epoch of the latest commit (0 = nothing committed yet).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  obs::MetricsRegistry* metrics() const { return opts_.metrics; }
  cache::ResultCache* result_cache() const { return opts_.result_cache; }

  /// \brief The authoritative Database. For setup/inspection from the
  /// writer's thread only; mutating it directly bypasses atomicity and
  /// snapshot publication — prefer Apply(). After direct mutations, call
  /// Publish() to make them visible to new snapshots.
  storage::Database& database() { return db_; }

  /// \brief Re-publishes the head snapshot from the current authoritative
  /// state under a fresh epoch (for out-of-band direct mutations via
  /// database()). NOT logged: a durable server's out-of-band mutations
  /// do not survive recovery.
  void Publish();

  /// \brief True when this server was opened durable (Server::Open).
  bool durable() const { return wal_ != nullptr; }

  /// \brief Durable mode: the directory holding wal.log + checkpoint.db.
  const std::string& dir() const { return dir_; }

  /// \brief Durable mode: the write-ahead log (null otherwise). For
  /// status surfaces (tail offset, fsync policy) — appends stay behind
  /// Apply().
  durability::Wal* wal() const { return wal_.get(); }

  /// \brief Durable mode: serializes the authoritative database at the
  /// current epoch (temp-file + atomic rename; an aborted write never
  /// clobbers the previous valid checkpoint) and truncates the WAL
  /// behind it. Fails with kInvalidArgument on non-durable servers.
  Status Checkpoint();

 private:
  friend class Session;

  /// Everything needed to undo one successfully-applied batch: the
  /// pre-batch size/stamp of every relation plus pre-batch copies of
  /// cleared ones. The durable commit path uses it to roll back an
  /// in-memory apply whose WAL append failed.
  struct BatchUndo {
    std::map<Symbol, std::pair<size_t, uint64_t>> pre_state;
    std::map<Symbol, storage::Relation> cleared;
  };

  /// Restores `db` to the pre-batch state `undo` captured (created
  /// relations removed, grown relations truncated, cleared relations
  /// reinstated).
  static void UndoBatch(storage::Database* db, BatchUndo&& undo);

  /// Applies every op of `batch` to `db` all-or-nothing; on failure the
  /// database is restored (created relations removed, grown relations
  /// truncated, cleared relations reinstated from copies) and the error
  /// returned. Static so WAL recovery reuses it. `capture_files` (when
  /// non-null) receives the raw text of every kLoadFile op, in op order,
  /// for the WAL record; `replay_files` (when non-null) supplies those
  /// texts back so recovery applies the exact bytes the original commit
  /// read instead of re-reading files that may have changed on disk
  /// since. `undo` (when non-null) receives, on success, the rollback
  /// state for UndoBatch.
  static Result<size_t> ApplyBatchTo(
      const WriteBatch& batch, storage::Database* db,
      const gov::GovernorContext* governor,
      std::vector<std::string>* capture_files = nullptr,
      const std::vector<std::string>* replay_files = nullptr,
      BatchUndo* undo = nullptr);

  /// Builds and installs a new head snapshot from the authoritative
  /// state, reusing the previous snapshot's versions for every relation
  /// whose (uid, data_generation, size) stamp is unchanged and freezing
  /// the symbols interned since the last publish. mu_ held.
  void RebuildHeadLocked();

  void ReleaseSession();
  /// Sets the `server.sessions` gauge to `open`.
  void PublishSessionCount(size_t open);

  ServerOptions opts_;
  storage::Database db_;  ///< the authoritative store
  /// Serializes Apply()/Publish() end-to-end: one writer at a time.
  std::mutex mu_;
  /// Guards only the head_ pointer swap, so readers opening snapshots
  /// never wait for a long ingest holding mu_.
  mutable std::mutex head_mu_;
  std::shared_ptr<const Snapshot> head_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> open_sessions_{0};
  std::atomic<uint64_t> session_seq_{0};
  /// Durable mode only (Server::Open); null on in-memory servers.
  std::unique_ptr<durability::Wal> wal_;
  std::string dir_;
};

/// \brief A client handle: a pinned snapshot to query plus a write door.
///
/// A session materializes a private Database from the snapshot (fresh
/// Database::uid per materialization; relation copies share the version's
/// rows and keep its server stamps) and stays pinned until Refresh() or a
/// write of its own.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Runs one query against the pinned snapshot through the full
  /// pipeline (graphlog/api.h), filling unset request options from the
  /// session defaults, the server's metrics/result-cache, and the
  /// session's CSR cache; a request without its own governor is governed
  /// by the session budget/deadline (when configured) and the session
  /// cancellation token. Results materialize into the session database.
  Result<QueryResponse> Run(QueryRequest req);

  /// \brief Commits `batch` through the server (Server::Apply), then
  /// Refresh()es, so the session lands on the head, at or after its own
  /// commit.
  Result<size_t> Apply(const WriteBatch& batch,
                       const gov::GovernorContext* governor = nullptr);

  /// \brief Re-pins to the latest head snapshot. Cheap no-op when already
  /// current. Updates in place: the symbol table moves onto the new
  /// prefix, changed EDB versions swap in (sharing their rows), and
  /// session-local relations survive — O(what changed). Only when a newly
  /// committed server symbol has the same string as one this session
  /// interned locally is the private database rebuilt from scratch (fresh
  /// uid; session-local materializations dropped).
  Status Refresh();

  /// \brief Requests cancellation of the in-flight (or next) governed
  /// query on this session; callable from any thread. Takes effect when
  /// queries are governed — a session budget/deadline is configured or
  /// the request carries this session's token.
  void Cancel() const { cancel_.Cancel(); }
  const gov::CancellationToken& cancellation_token() const { return cancel_; }

  /// \brief Epoch this session is pinned at.
  uint64_t epoch() const { return epoch_; }
  const std::string& name() const { return name_; }

  /// \brief The session's private database. Same single-caller
  /// discipline as the session itself.
  storage::Database& database() { return db_; }
  const storage::Database& database() const { return db_; }

  /// \brief Per-session CSR snapshot cache (columnar runs default to it).
  columnar::CsrCache& csr_cache() { return csr_cache_; }

  /// \brief The session's own counters: its only per-session record.
  struct Stats {
    uint64_t queries = 0;
    uint64_t writes = 0;
    uint64_t refreshes = 0;
    uint64_t errors = 0;
    uint64_t cache_hits = 0;
    uint64_t truncated = 0;       ///< answers cut short by a budget
    uint64_t profile_runs = 0;    ///< EXPLAIN ANALYZE runs
    uint64_t profile_rounds = 0;  ///< rounds those profiles cover
  };
  /// \brief Every counter of Stats, listed once (`.session list` prints
  /// it). Never exported: per-session names would grow the registry.
  static constexpr obs::CounterField<Stats> kCounters[] = {
      {"session.queries", &Stats::queries},
      {"session.writes", &Stats::writes},
      {"session.refreshes", &Stats::refreshes},
      {"session.errors", &Stats::errors},
      {"session.cache_hits", &Stats::cache_hits},
      {"session.truncated", &Stats::truncated},
      {"session.profile_runs", &Stats::profile_runs},
      {"session.profile_rounds", &Stats::profile_rounds},
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Server;
  Session(Server* server, SessionOptions opts, std::string name);

  /// Rebuilds the private database from `snap`: fresh Database, a symbol
  /// table over the snapshot's prefix, copied version relations.
  void Materialize(const std::shared_ptr<const Snapshot>& snap);

  Server* server_;
  SessionOptions opts_;
  std::string name_;
  storage::Database db_;
  uint64_t epoch_ = 0;
  gov::CancellationToken cancel_;
  columnar::CsrCache csr_cache_;
  Stats stats_;
};

}  // namespace graphlog

#endif  // GRAPHLOG_SERVER_SERVER_H_
