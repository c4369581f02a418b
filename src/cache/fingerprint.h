// Canonical query fingerprinting for the result cache and the view
// catalog.
//
// Two requests should share a cache entry exactly when they denote the
// same computation. The canonical key is therefore built from:
//   * the *normalized* program text — comments stripped, whitespace runs
//     collapsed to one space (but preserved verbatim inside string
//     literals, where whitespace is data), and
//   * every option that can change the materialized result or its
//     insertion order: the source language, the evaluation strategy, the
//     join-ordering mode, and the bound-closure specialization rewrite.
//
// Deliberately excluded: num_threads (the engine's partition-ordered
// merge makes results bit-identical across lane counts), and every
// observability knob (tracing/explain/metrics/slow-log change what is
// *recorded*, never what is *computed*).
//
// The canonical key is used for exact-match equality — a 64-bit hash
// alone could silently serve a colliding query's results, so the hash
// (FingerprintKey) only selects shards and prefilters comparisons.

#ifndef GRAPHLOG_CACHE_FINGERPRINT_H_
#define GRAPHLOG_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "eval/engine.h"

namespace graphlog::cache {

/// \brief The result-affecting option subset of a QueryRequest.
struct QueryKeyOptions {
  /// 0 = GraphLog surface text, 1 = raw Datalog (QueryRequest::Language).
  uint8_t language = 0;
  eval::Strategy strategy = eval::Strategy::kSemiNaive;
  bool cardinality_join_ordering = true;
  bool specialize_bound_closures = false;
};

/// \brief Normalizes program text: strips `#` / `//` comments, collapses
/// whitespace runs to a single space, trims the ends. Content inside
/// double-quoted string literals (including `\`-escapes) is preserved
/// byte-for-byte — `"a  b"` and `"a b"` are different constants.
std::string NormalizeQueryText(std::string_view text);

/// \brief The full canonical key: an options prefix + the normalized
/// text. Key equality is the cache's notion of "same query".
std::string CanonicalQueryKey(std::string_view text,
                              const QueryKeyOptions& options);

/// \brief FNV-1a 64-bit hash of a canonical key; used for shard selection
/// and cheap prefilters, never as the equality witness.
uint64_t FingerprintKey(std::string_view canonical_key);

}  // namespace graphlog::cache

#endif  // GRAPHLOG_CACHE_FINGERPRINT_H_
