// Columnar transitive closure: per-source BFS over CSR adjacency with
// bitset frontiers (columnar/bitset.h), the one closure kernel. Section 6
// of the paper: "implementations can benefit from the existing work on
// transitive closure computation"; eval::Engine hands it every unbound
// binary TC rule pair, and the engine's plain fixpoint
// (eval::Strategy::kNaive) is the oracle it is tested against. "GraphLog
// is in QNC, hence amenable to efficient parallel implementations" —
// per-source closure is embarrassingly parallel, so sources fan out over
// exec::ThreadPool lanes and the per-source results are merged in source
// order, making output contents and insertion order identical for every
// thread count.
// The expansion is word-at-a-time (frontier &~ visited, or-scan of sorted
// spans) and the merge bulk-loads via Relation::AppendUnique, skipping
// the per-row dedup hashing: each (source, reached) pair is emitted
// exactly once by construction.

#ifndef GRAPHLOG_TC_COLUMNAR_TC_H_
#define GRAPHLOG_TC_COLUMNAR_TC_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/relation.h"

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

/// \brief Statistics of one closure computation.
struct TcStats {
  uint64_t rounds = 0;        ///< sources expanded
  uint64_t pair_visits = 0;   ///< candidate pairs generated (incl. dups)
  /// True when a governed run stopped early because a resource budget
  /// tripped with ResourceBudget::return_partial set; the returned
  /// relation then holds the (deterministic) partial closure.
  bool truncated = false;
};

/// \brief Every counter of TcStats, listed once; the kernel's registry
/// export (ExportTcMetrics) is derived from it.
inline constexpr obs::CounterField<TcStats> kTcCounters[] = {
    {"tc.rounds", &TcStats::rounds},
    {"tc.pair_visits", &TcStats::pair_visits},
};

/// \brief Folds one finished closure into `metrics` (nullable):
/// `tc.invocations`, the kTcCounters of `stats`, and `output_pairs` into
/// the `tc.output_pairs` distribution.
void ExportTcMetrics(const TcStats& stats, size_t output_pairs,
                     obs::MetricsRegistry* metrics);

/// \brief Transitive closure of binary `edges` via per-source bitset
/// BFS over a CSR snapshot, fanned across `num_threads` workers (0 =
/// hardware concurrency). Insertion order is (source in first-appearance
/// order, reached in ascending dense id) and identical across thread
/// counts. Fails with kInvalidArgument when arity != 2.
///
/// When `metrics` is set the run is folded into the registry through
/// ExportTcMetrics.
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
