#include "cache/result_cache.h"

#include <algorithm>

#include "cache/fingerprint.h"

namespace graphlog::cache {

using storage::Database;
using storage::Relation;
using storage::Tuple;

RelationState StateOf(const Database& db, Symbol pred) {
  RelationState s;
  const Relation* rel = db.Find(pred);
  if (rel == nullptr) return s;
  s.exists = true;
  s.uid = rel->uid();
  s.data_generation = rel->data_generation();
  s.size = rel->size();
  return s;
}

DbSnapshot SnapshotDatabase(const Database& db) {
  DbSnapshot snap;
  for (const auto& [name, rel] : db.relations()) {
    RelationState s;
    s.exists = true;
    s.uid = rel.uid();
    s.data_generation = rel.data_generation();
    s.size = rel.size();
    snap.emplace(name, s);
  }
  return snap;
}

ResultCache::ResultCache(size_t max_bytes, size_t num_shards)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {
  const size_t n = num_shards == 0 ? 1 : num_shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[FingerprintKey(key) % shards_.size()];
}
const ResultCache::Shard& ResultCache::ShardFor(const std::string& key) const {
  return *shards_[FingerprintKey(key) % shards_.size()];
}

size_t ResultCache::EntryBytes(const Entry& e) {
  // Deterministic structural estimate, same spirit as
  // Relation::MemoryBytes: payload plus flat per-object overheads.
  size_t bytes = 256 + 2 * e.key.size();
  for (const RelDep& d : e.deps) {
    bytes += 64 + d.novel_rows.size() *
                      (sizeof(Tuple) + d.arity * sizeof(Value));
  }
  const QueryResponse& r = e.response;
  bytes += r.explain.size() + r.truncated_by.size();
  bytes += r.stats.programs.size() * 160;     // rules kept for provenance ids
  bytes += r.trace.spans.size() * 256;        // usually zero (tracing off)
  return bytes;
}

bool ResultCache::TryServe(const std::string& key, Database* db,
                           QueryResponse* resp) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return false;
  }
  Entry& entry = *it->second;

  bool post_match = true;
  for (const RelDep& d : entry.deps) {
    if (StateOf(*db, d.pred) != d.post) {
      post_match = false;
      break;
    }
  }
  if (post_match) {
    *resp = entry.response;
    resp->cache_hit = true;
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return true;
  }

  bool pre_match = true;
  for (const RelDep& d : entry.deps) {
    if (StateOf(*db, d.pred) != d.pre) {
      pre_match = false;
      break;
    }
  }
  if (!pre_match) {
    // Entry is stale for this database state; leave it in place — the
    // caller's Record() after re-evaluation overwrites it.
    ++shard.stats.misses;
    return false;
  }

  // Replay: the database is bit-identical to the original pre-run state,
  // so re-inserting the recorded novel rows (original insertion order)
  // reproduces the original run exactly — every row is novel again, so
  // sizes and data_generations advance by the same arithmetic. Relations
  // the run created get fresh uids; re-snapshot the post states so the
  // next lookup post-matches.
  for (RelDep& d : entry.deps) {
    if (!d.post.exists) continue;  // read-only dep on a missing relation
    Relation* rel = nullptr;
    if (auto r = db->Declare(d.pred, d.arity); r.ok()) {
      rel = *r;
    } else {
      // Arity conflict can only mean the pre-state check above raced with
      // a concurrent mutation of this database; treat as a miss.
      ++shard.stats.misses;
      return false;
    }
    for (const Tuple& t : d.novel_rows) rel->Insert(t);
    d.post = StateOf(*db, d.pred);
  }
  *resp = entry.response;
  resp->cache_hit = true;
  ++shard.stats.hits;
  ++shard.stats.replays;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return true;
}

void ResultCache::Record(const std::string& key, const Database& db,
                         const DbSnapshot& pre,
                         const std::set<Symbol>& touched,
                         const QueryResponse& resp) {
  if (resp.truncated || resp.cache_hit || resp.served_from_view) return;

  Entry entry;
  entry.key = key;
  for (Symbol p : touched) {
    RelDep d;
    d.pred = p;
    auto pit = pre.find(p);
    if (pit != pre.end()) d.pre = pit->second;
    d.post = StateOf(db, p);
    if (!d.pre.exists && !d.post.exists) {
      entry.deps.push_back(std::move(d));
      continue;
    }
    // Cacheable runs only ever grow relations in place. Anything else —
    // a shrink, a drop, a replacement under the same name, or data
    // churn beyond pure inserts — means replay could not reproduce the
    // run, so the response is not recorded.
    if (d.pre.exists &&
        (!d.post.exists || d.post.uid != d.pre.uid ||
         d.post.size < d.pre.size)) {
      return;
    }
    const uint64_t novel = d.post.size - d.pre.size;
    if (d.post.data_generation - d.pre.data_generation != novel) return;
    const Relation* rel = db.Find(p);
    d.arity = rel->arity();
    if (novel > 0) {
      d.novel_rows.assign(
          rel->rows().begin() + static_cast<ptrdiff_t>(d.pre.size),
          rel->rows().end());
    }
    entry.deps.push_back(std::move(d));
  }
  entry.response = resp;
  entry.response.cache_hit = false;
  entry.bytes = EntryBytes(entry);

  Shard& shard = ShardFor(key);
  const size_t budget = max_bytes_ / shards_.size();
  std::lock_guard<std::mutex> lock(shard.mu);
  if (entry.bytes > budget) {
    ++shard.stats.rejected;
    return;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.stats.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.stats.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.inserts;
  EvictLocked(&shard, budget);
}

void ResultCache::EvictLocked(Shard* shard, size_t budget) {
  while (shard->stats.bytes > budget && shard->lru.size() > 1) {
    const Entry& victim = shard->lru.back();
    shard->stats.bytes -= victim.bytes;
    shard->index.erase(victim.key);
    shard->lru.pop_back();
    ++shard->stats.evictions;
  }
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->stats.bytes = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ResultCacheStats s = shard->stats;
    s.entries = shard->lru.size();
    obs::FoldCounters(kResultCacheCounters, s, &total);
  }
  return total;
}

void ResultCache::ExportMetrics(obs::MetricsRegistry* registry) const {
  obs::ExportGauges(kResultCacheCounters, Stats(), registry);
}

}  // namespace graphlog::cache
