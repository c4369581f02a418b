// ResultCache: a sharded, byte-bounded LRU of finished query responses,
// invalidated by per-relation generation counters.
//
// An entry records, for every relation the query read or wrote, the
// relation's state *before* the run (pre-deps) and *after* it
// (post-deps), where a state is the (exists, uid, data_generation, size)
// quadruple — uid is never reused by a Database, and data_generation
// counts only data changes (insert/clear/truncate), so equal quadruples
// on the same database imply equal contents. Serving has two tiers:
//
//   * post-state hit — every dep matches its recorded post state: the
//     query's materializations are still in place, so the stored response
//     is returned with no database mutation at all;
//   * pre-state hit (replay) — every dep matches its recorded pre state:
//     the database looks exactly like it did before the original run, so
//     the stored novel rows are replayed in their original insertion
//     order. Replay reproduces the original run bit-for-bit (contents,
//     insertion order, data_generation arithmetic) because identical
//     pre-state contents make every replayed insert novel again.
//
// Anything else is a miss; the caller re-evaluates and Record()
// overwrites the entry. Entries are bounded in bytes (tuple payloads
// estimated with the same deterministic arithmetic as
// Relation::MemoryBytes) across N shards, each with its own mutex and
// LRU list, so concurrent lookups from different sessions contend only
// per shard.
//
// The cache is database-agnostic: keys must be scoped by Database::uid()
// (graphlog::Run does this) so two databases never trade entries.

#ifndef GRAPHLOG_CACHE_RESULT_CACHE_H_
#define GRAPHLOG_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "graphlog/api.h"
#include "storage/database.h"

namespace graphlog::cache {

/// \brief One relation's identity + data state at an instant.
struct RelationState {
  bool exists = false;
  uint64_t uid = 0;
  uint64_t data_generation = 0;
  size_t size = 0;

  bool operator==(const RelationState& o) const {
    return exists == o.exists && uid == o.uid &&
           data_generation == o.data_generation && size == o.size;
  }
  bool operator!=(const RelationState& o) const { return !(*this == o); }
};

/// \brief Current state of `pred` in `db`.
RelationState StateOf(const storage::Database& db, Symbol pred);

/// \brief State of every relation in `db`; the pre-run snapshot Record()
/// diffs against. O(#relations), no row data copied.
using DbSnapshot = std::map<Symbol, RelationState>;
DbSnapshot SnapshotDatabase(const storage::Database& db);

/// \brief Cumulative cache counters (process lifetime of the cache).
struct ResultCacheStats {
  uint64_t hits = 0;       ///< post-state hits + replays
  uint64_t replays = 0;    ///< pre-state hits served by replaying rows
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t inserts = 0;
  uint64_t rejected = 0;   ///< entries larger than a whole shard's budget
  uint64_t bytes = 0;      ///< resident entry bytes right now
  uint64_t entries = 0;    ///< resident entries right now
};

/// \brief Every counter of ResultCacheStats, listed once: the shard sum
/// (ResultCache::Stats) and the `cache.*` gauges (ExportMetrics) are
/// derived from it.
inline constexpr obs::CounterField<ResultCacheStats>
    kResultCacheCounters[] = {
        {"cache.hits", &ResultCacheStats::hits},
        {"cache.replays", &ResultCacheStats::replays},
        {"cache.misses", &ResultCacheStats::misses},
        {"cache.evictions", &ResultCacheStats::evictions},
        {"cache.inserts", &ResultCacheStats::inserts},
        {"cache.rejected", &ResultCacheStats::rejected},
        {"cache.bytes", &ResultCacheStats::bytes},
        {"cache.entries", &ResultCacheStats::entries},
};

class ResultCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit ResultCache(size_t max_bytes = kDefaultMaxBytes,
                       size_t num_shards = 8);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// \brief Tries to serve `key` against `db`; fills `*resp` (with
  /// cache_hit set) and returns true on a post-state hit or a pre-state
  /// replay. Counts a miss and returns false otherwise.
  bool TryServe(const std::string& key, storage::Database* db,
                QueryResponse* resp);

  /// \brief Records a finished miss-run: `pre` is the whole-database
  /// snapshot taken before evaluation, `touched` the predicates the query
  /// read or wrote, `resp` the finished response. Replaces any entry
  /// under `key`. Truncated responses and runs that shrank or replaced a
  /// touched relation are not cacheable and are ignored.
  void Record(const std::string& key, const storage::Database& db,
              const DbSnapshot& pre, const std::set<Symbol>& touched,
              const QueryResponse& resp);

  /// \brief Drops every entry (counters are kept).
  void Clear();

  ResultCacheStats Stats() const;

  /// \brief Publishes one `cache.*` gauge per kResultCacheCounters entry
  /// (absolute values, like the `db.*` resource gauges) into `registry`,
  /// on the owner's demand; no-op when null.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  size_t max_bytes() const { return max_bytes_; }

 private:
  /// Per-relation dependency: pre/post states plus the rows the run
  /// appended (used by replay; post_size - pre_size rows in insertion
  /// order — empty for read-only deps).
  struct RelDep {
    Symbol pred = kNoSymbol;
    size_t arity = 0;
    RelationState pre;
    RelationState post;
    std::vector<storage::Tuple> novel_rows;
  };

  struct Entry {
    std::string key;
    std::vector<RelDep> deps;
    QueryResponse response;
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // most-recently-used first
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    ResultCacheStats stats;  // `entries` is filled in by Stats()
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  static size_t EntryBytes(const Entry& e);
  /// Evicts LRU entries until the shard fits its budget. Caller holds
  /// `shard.mu`.
  void EvictLocked(Shard* shard, size_t budget);

  const size_t max_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace graphlog::cache

#endif  // GRAPHLOG_CACHE_RESULT_CACHE_H_
