// Columnar transitive closure: per-source BFS over CSR adjacency with
// bitset frontiers (columnar/bitset.h), the per-source and multi-lane
// closure kernel. Section 6 of the paper: "GraphLog is in QNC, hence
// amenable to efficient parallel implementations" — per-source closure
// is embarrassingly parallel, so sources fan out over exec::ThreadPool
// lanes and the per-source results are merged in source order, making
// output contents and insertion order identical for every thread count.
// The expansion is word-at-a-time (frontier &~ visited, or-scan of sorted
// spans) and the merge bulk-loads via Relation::AppendUnique, skipping
// the per-row dedup hashing: each (source, reached) pair is emitted
// exactly once by construction.

#ifndef GRAPHLOG_TC_COLUMNAR_TC_H_
#define GRAPHLOG_TC_COLUMNAR_TC_H_

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/relation.h"
#include "tc/transitive_closure.h"

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::columnar {
class CsrCache;  // columnar/csr_cache.h
}

namespace graphlog::exec {
class ThreadPool;  // exec/thread_pool.h
}

namespace graphlog::tc {

/// \brief Transitive closure of binary `edges` via per-source bitset
/// BFS over a CSR snapshot, fanned across `num_threads` workers (0 =
/// hardware concurrency). Result set equals TransitiveClosure's;
/// insertion order is (source in first-appearance order, reached in
/// ascending dense id) and identical across thread counts.
///
/// When `metrics` is set the run is folded into the registry through
/// ExportTcMetrics, like TransitiveClosure's.
///
/// Governance: the `csr.build` point gates the CSR construction, every
/// lane checks `tc.expand` per source claimed, and the cancellation token
/// is polled every ~1k edge expansions inside a source's BFS and every
/// 1,024 pairs of the serial merge. A governed abort stops the remaining
/// lanes and returns before the merge completes, so no partial closure
/// escapes. max_result_rows and max_bytes (as max_bytes /
/// Relation::RowBytes(2) rows: the closure holds no index) form one row
/// cap, enforced before the merge: a strict budget fails as soon as the
/// finished sources hold more pairs than the cap, reporting the first row
/// past it (the same message at every lane count), and return_partial
/// stops the fan-out there and merges only the first `cap` pairs, a
/// deterministic prefix with `stats->truncated` set. Then `pair_visits`
/// counts the pairs of the sources the merge read.
///
/// `cache` (nullable) reuses/stores the CSR snapshot across calls,
/// invalidated by the relation's data_generation. `pool` (nullable) runs
/// the BFS on the caller's lanes instead of a pool of `num_threads`
/// lanes built for the call; the evaluation engine passes its own.
Result<storage::Relation> ColumnarTransitiveClosure(
    const storage::Relation& edges, unsigned num_threads = 0,
    obs::MetricsRegistry* metrics = nullptr,
    const gov::GovernorContext* governor = nullptr, TcStats* stats = nullptr,
    columnar::CsrCache* cache = nullptr, exec::ThreadPool* pool = nullptr);

}  // namespace graphlog::tc

#endif  // GRAPHLOG_TC_COLUMNAR_TC_H_
