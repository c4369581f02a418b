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

namespace graphlog::tc {

/// \brief Transitive closure of binary `edges` via per-source bitset
/// BFS over a CSR snapshot, fanned across `num_threads` workers (0 =
/// hardware concurrency). Result set equals TransitiveClosure's;
/// insertion order is (source in first-appearance order, reached in
/// ascending dense id) and identical across thread counts.
///
/// When `metrics` is set the kernel folds `tc.invocations`,
/// `tc.pair_visits` and the `tc.output_pairs` distribution into the
/// registry, under the same names as TransitiveClosure.
///
/// Governance: the `csr.build` point gates the CSR construction, every
/// lane checks `tc.expand` per source claimed, and the cancellation token
/// is polled every ~1k edge expansions inside a source's BFS. A governed
/// abort stops the remaining lanes and returns before the merge, so no
/// partial closure escapes. max_result_rows/max_bytes budgets are
/// enforced on the merged closure (strict fail, or deterministic
/// truncation to a prefix + `stats->truncated` with return_partial).
///
/// `cache` (nullable) reuses/stores the CSR snapshot across calls,
/// invalidated by the relation's data_generation.
Result<storage::Relation> ColumnarTransitiveClosure(
    const storage::Relation& edges, unsigned num_threads = 0,
    obs::MetricsRegistry* metrics = nullptr,
    const gov::GovernorContext* governor = nullptr, TcStats* stats = nullptr,
    columnar::CsrCache* cache = nullptr);

}  // namespace graphlog::tc

#endif  // GRAPHLOG_TC_COLUMNAR_TC_H_
