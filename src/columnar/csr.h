// CSR (compressed sparse row) adjacency for binary relations.
//
// A Csr is an immutable columnar snapshot of one arity-2 Relation: both
// columns are interned into dense uint32 node ids (first-appearance
// order, so the mapping is deterministic), and three adjacency layouts
// are materialized over them:
//
//   fwd    — for each source node, its targets in *row insertion order*.
//            This is byte-for-byte the iteration order of the row
//            engine's hash-index posting lists (which store row ids in
//            insertion order), so a probe on column {0} served from fwd
//            enumerates matches in exactly the order the row path would.
//   rev    — the mirror for probes on column {1}: for each target, its
//            sources in row insertion order.
//   sorted — for each source, targets in ascending dense-id order.
//            Backs O(log d) existence checks (probes on {0,1}, negation)
//            and the bitset kernels' frontier expansion.
//
// Invalidation contract: a Csr never observes later mutations of its
// source Relation. It carries the (uid, data_generation, size) stamp of
// the relation at build time — the same validation key the result cache
// uses — and CsrCache (csr_cache.h) rebuilds whenever the live relation's
// stamp differs. A Csr held by shared_ptr stays valid (as a snapshot)
// even after the source relation changes or dies.

#ifndef GRAPHLOG_COLUMNAR_CSR_H_
#define GRAPHLOG_COLUMNAR_CSR_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "gov/governor.h"
#include "storage/relation.h"

namespace graphlog::columnar {

/// \brief Immutable CSR snapshot of a binary relation. Build with
/// BuildCsr(); share with shared_ptr (all members are read-only after
/// the build, so concurrent reads are safe).
struct Csr {
  /// Validation stamp of the source relation at build time.
  uint64_t source_uid = 0;
  uint64_t source_data_generation = 0;
  size_t source_size = 0;

  /// Dense node id -> value, in first-appearance order over
  /// (row[0], row[1]) scans of the rows.
  std::vector<Value> values;
  /// Value -> dense node id (inverse of `values`).
  std::unordered_map<Value, uint32_t, ValueHash> ids;

  // All offset arrays have num_nodes()+1 entries; the span of node u in
  // layout X is X_targets[X_offsets[u] .. X_offsets[u+1]).
  std::vector<uint32_t> fwd_offsets, fwd_targets;
  std::vector<uint32_t> rev_offsets, rev_sources;
  std::vector<uint32_t> sorted_offsets, sorted_targets;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(values.size());
  }
  size_t num_edges() const { return fwd_targets.size(); }

  /// \brief Dense id of `v`, or -1 when the value occurs in no row.
  int64_t IdOf(const Value& v) const {
    auto it = ids.find(v);
    return it == ids.end() ? -1 : static_cast<int64_t>(it->second);
  }

  std::span<const uint32_t> Fwd(uint32_t u) const {
    return {fwd_targets.data() + fwd_offsets[u],
            fwd_targets.data() + fwd_offsets[u + 1]};
  }
  std::span<const uint32_t> Rev(uint32_t t) const {
    return {rev_sources.data() + rev_offsets[t],
            rev_sources.data() + rev_offsets[t + 1]};
  }
  std::span<const uint32_t> Sorted(uint32_t u) const {
    return {sorted_targets.data() + sorted_offsets[u],
            sorted_targets.data() + sorted_offsets[u + 1]};
  }

  /// \brief Existence of edge (u, t): binary search in the sorted span.
  bool HasEdge(uint32_t u, uint32_t t) const;

  /// \brief Estimated resident bytes (structural, like
  /// Relation::MemoryBytes).
  size_t MemoryBytes() const;
};

/// \brief Builds a CSR snapshot of `rel` (which must have arity 2).
///
/// Consults the governor's `csr.build` injection point first (null
/// governor is fine). Builds are counted by CsrCache, through which every
/// kernel and the engine obtain their snapshots.
Result<Csr> BuildCsr(const storage::Relation& rel,
                     const gov::GovernorContext* governor = nullptr);

}  // namespace graphlog::columnar

#endif  // GRAPHLOG_COLUMNAR_CSR_H_
