// Generation-validated cache of CSR snapshots, one per relation uid.
//
// The invalidation contract mirrors cache::ResultCache: a cached Csr is
// served only while the live relation's (uid, data_generation, size)
// stamp equals the stamp captured at build time. Any data change —
// Insert, bulk append, Clear, TruncateTo — bumps data_generation and the
// next Get() rebuilds; pure index maintenance (DropIndexes) bumps only
// the structural generation and does NOT invalidate, because a CSR
// depends only on row contents. Uids are never reused
// (Database::Declare), so a dropped-and-redeclared relation can never
// alias a stale entry.
//
// Relations with uid 0 (not owned by a Database — e.g. the engine's
// per-round delta relations) are built fresh on every call and never
// cached: uid 0 is not unique, and deltas die within the round anyway.

#ifndef GRAPHLOG_COLUMNAR_CSR_CACHE_H_
#define GRAPHLOG_COLUMNAR_CSR_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "columnar/csr.h"
#include "obs/metrics.h"

namespace graphlog::columnar {

/// \brief Caches one immutable CSR snapshot per relation uid,
/// invalidated by the relation's data_generation counter. Thread-safe;
/// the returned shared_ptr stays valid after later invalidations.
class CsrCache {
 public:
  /// \brief Returns a CSR snapshot of `rel` (arity 2), reusing the
  /// cached one when still valid. `metrics` (nullable) receives the call's
  /// kCounters as `columnar.*` counters; `governor` (nullable) gates
  /// builds through the `csr.build` injection point.
  Result<std::shared_ptr<const Csr>> Get(
      const storage::Relation& rel, obs::MetricsRegistry* metrics = nullptr,
      const gov::GovernorContext* governor = nullptr);

  /// \brief Lifetime counters.
  struct Stats {
    uint64_t builds = 0;         ///< CSR constructions (incl. uncached)
    uint64_t build_ns = 0;       ///< wall-clock spent in those builds
    uint64_t reuses = 0;         ///< hits served without rebuilding
    uint64_t invalidations = 0;  ///< stale entries replaced
  };
  /// \brief Every counter of Stats, listed once: Get() folds each call
  /// into stats() and exports it from this list.
  static constexpr obs::CounterField<Stats> kCounters[] = {
      {"columnar.builds", &Stats::builds},
      {"columnar.build_ns", &Stats::build_ns},
      {"columnar.reuses", &Stats::reuses},
      {"columnar.invalidations", &Stats::invalidations},
  };
  Stats stats() const;

  /// \brief Drops every cached snapshot (outstanding shared_ptrs stay
  /// valid). Counters are kept.
  void Clear();

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const Csr>> by_uid_;
  Stats stats_;
};

}  // namespace graphlog::columnar

#endif  // GRAPHLOG_COLUMNAR_CSR_CACHE_H_
