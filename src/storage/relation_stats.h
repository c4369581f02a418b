// RelationStats: per-relation column statistics maintained incrementally.
//
// For each column of a relation the stats track the number of distinct
// values and the largest and mean group size (rows sharing one value) —
// the degree distribution when the relation is a graph edge set. The
// planner consumes them through eval::CardinalityFn to estimate how many
// rows a probe bound on a column subset will match (rows divided by the
// product of the bound columns' distinct counts), replacing the blind
// fixed-fanout discount; EXPLAIN renders the same estimates and
// Database::ExportResourceMetrics publishes them as
// `db.relation.<name>.distinct.<col>` gauges.
//
// Invalidation follows the CSR-cache contract exactly
// (columnar/csr_cache.h): a computed entry is stamped with the relation's
// (uid, data_generation, size) and served only while all three match.
// DropIndexes bumps the structural generation but neither the stamp nor
// the contents, so it does not invalidate stats. Relations with uid 0 —
// the engine's per-round delta relations, not owned by a Database — are
// never cached.
//
// Unlike the CSR cache, a stale entry is usually not recomputed from
// scratch: the per-column value->count maps are retained, and when the
// relation has only grown since the last refresh (same uid, shrinks()
// unchanged, size not smaller — inserts only ever append) just the new
// row suffix is absorbed. A fixpoint loop therefore pays O(new rows) per
// refresh, the same complexity class as incremental index maintenance.
// Clear/TruncateTo/RollbackStagedTo bump shrinks() and force a full
// recompute. Not internally synchronized, like Relation itself.

#ifndef GRAPHLOG_STORAGE_RELATION_STATS_H_
#define GRAPHLOG_STORAGE_RELATION_STATS_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/symbol_table.h"
#include "storage/relation.h"

namespace graphlog::storage {

/// \brief Column statistics for one relation.
class RelationStats {
 public:
  /// \brief True while the stats describe `r`'s current contents — the
  /// (uid, data_generation, size) stamp matches.
  bool CurrentFor(const Relation& r) const {
    return uid_ == r.uid() && uid_ != 0 &&
           data_generation_ == r.data_generation() && rows_ == r.size();
  }

  /// \brief Brings the stats up to date with `r`: a no-op when current,
  /// an absorb of the appended suffix when `r` has only grown, a full
  /// recompute otherwise.
  void Refresh(const Relation& r);

  size_t arity() const { return counts_.size(); }
  size_t rows() const { return rows_; }

  /// \brief Number of distinct values in column `col`.
  uint64_t distinct(uint32_t col) const {
    return col < counts_.size() ? counts_[col].size() : 0;
  }

  /// \brief Largest number of rows sharing one value in column `col`.
  uint64_t max_degree(uint32_t col) const {
    return col < max_group_.size() ? max_group_[col] : 0;
  }

  /// \brief Mean rows per distinct value in column `col` (0 when empty).
  double mean_degree(uint32_t col) const {
    const uint64_t d = distinct(col);
    return d == 0 ? 0.0 : static_cast<double>(rows_) / static_cast<double>(d);
  }

  /// \brief Estimated rows matching a probe bound on `bound_cols`:
  /// rows / prod(distinct(col)), at least 1 while the relation is
  /// non-empty (a probe may always hit). Empty `bound_cols` is a scan —
  /// the full row count. Deterministic: computed from row contents only.
  uint64_t EstimateMatches(const std::vector<uint32_t>& bound_cols) const {
    if (rows_ == 0) return 0;
    uint64_t est = rows_;
    for (uint32_t c : bound_cols) {
      const uint64_t d = distinct(c);
      if (d > 1) est /= d;
    }
    return est == 0 ? 1 : est;
  }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  using Counts = std::unordered_map<Value, uint32_t, ValueHash>;

  /// Absorbs rows [from, r.size()) into the per-column maps.
  void Absorb(const Relation& r, size_t from);

  uint64_t uid_ = 0;
  uint64_t data_generation_ = 0;
  uint64_t shrinks_ = 0;
  size_t rows_ = 0;
  std::vector<Counts> counts_;      // per column: value -> group size
  std::vector<uint64_t> max_group_; // per column: largest group size
};

/// \brief Per-database catalog of RelationStats, one entry per relation
/// name. An entry describes the relation the name held when it was last
/// refreshed; its uid stamp makes a dropped-and-redeclared relation
/// recompute instead of being served its predecessor's stats, and a
/// relation replaced under the name reuses the slot, so the catalog holds
/// at most one entry per name. Database::Remove and RetainOnly drop the
/// entries of the relations they drop. Owned by Database; see
/// Database::StatsFor.
class StatsCatalog {
 public:
  /// \brief Stats for `r`, the relation named `name`, refreshed to its
  /// current contents. Returns nullptr for uid-0 relations
  /// (engine-internal deltas, never cached).
  const RelationStats* Get(Symbol name, const Relation& r) {
    if (r.uid() == 0) return nullptr;
    RelationStats& st = by_name_[name];
    st.Refresh(r);
    return &st;
  }

  /// \brief The cached stats for `r`, the relation named `name`, only if
  /// already computed AND still current; never triggers computation.
  /// Nullptr otherwise.
  const RelationStats* Peek(Symbol name, const Relation& r) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end() || !it->second.CurrentFor(r)) return nullptr;
    return &it->second;
  }

  /// \brief Drops the entry for `name` (no-op when absent).
  void Erase(Symbol name) { by_name_.erase(name); }

  size_t size() const { return by_name_.size(); }

 private:
  std::map<Symbol, RelationStats> by_name_;
};

}  // namespace graphlog::storage

#endif  // GRAPHLOG_STORAGE_RELATION_STATS_H_
