#include "columnar/csr.h"

#include <algorithm>

namespace graphlog::columnar {

using storage::Relation;
using storage::Tuple;

bool Csr::HasEdge(uint32_t u, uint32_t t) const {
  const auto span = Sorted(u);
  return std::binary_search(span.begin(), span.end(), t);
}

size_t Csr::MemoryBytes() const {
  size_t bytes = values.size() * sizeof(Value);
  bytes += ids.size() * (sizeof(Value) + sizeof(uint32_t) +
                         2 * sizeof(void*));
  bytes += (fwd_offsets.size() + rev_offsets.size() +
            sorted_offsets.size()) *
           sizeof(uint32_t);
  bytes += (fwd_targets.size() + rev_sources.size() +
            sorted_targets.size()) *
           sizeof(uint32_t);
  return bytes;
}

Result<Csr> BuildCsr(const Relation& rel,
                     const gov::GovernorContext* governor) {
  GRAPHLOG_RETURN_NOT_OK(gov::CheckPoint(governor, "csr.build"));
  if (rel.arity() != 2) {
    return Status::InvalidArgument(
        "BuildCsr: relation has arity " + std::to_string(rel.arity()) +
        ", want 2");
  }

  Csr csr;
  csr.source_uid = rel.uid();
  csr.source_data_generation = rel.data_generation();
  csr.source_size = rel.size();

  const storage::RowsView rows = rel.rows();
  const auto n_edges = static_cast<uint32_t>(rows.size());
  csr.ids.reserve(rows.size());
  auto intern = [&csr](const Value& v) -> uint32_t {
    auto [it, inserted] =
        csr.ids.emplace(v, static_cast<uint32_t>(csr.values.size()));
    if (inserted) csr.values.push_back(v);
    return it->second;
  };
  // Pass 1: intern both columns in row order (deterministic dense ids)
  // and remember the endpoints so pass 2 never rehashes.
  std::vector<uint32_t> src(n_edges), dst(n_edges);
  for (uint32_t r = 0; r < n_edges; ++r) {
    src[r] = intern(rows[r][0]);
    dst[r] = intern(rows[r][1]);
  }
  const uint32_t n = csr.num_nodes();

  // Pass 2: counting sort into both adjacency directions. Filling in
  // ascending row order keeps every span in row insertion order — the
  // posting-list order of the row engine's hash indexes.
  csr.fwd_offsets.assign(n + 1, 0);
  csr.rev_offsets.assign(n + 1, 0);
  for (uint32_t r = 0; r < n_edges; ++r) {
    ++csr.fwd_offsets[src[r] + 1];
    ++csr.rev_offsets[dst[r] + 1];
  }
  for (uint32_t u = 0; u < n; ++u) {
    csr.fwd_offsets[u + 1] += csr.fwd_offsets[u];
    csr.rev_offsets[u + 1] += csr.rev_offsets[u];
  }
  csr.fwd_targets.resize(n_edges);
  csr.rev_sources.resize(n_edges);
  std::vector<uint32_t> fcur(csr.fwd_offsets.begin(),
                             csr.fwd_offsets.end() - 1);
  std::vector<uint32_t> rcur(csr.rev_offsets.begin(),
                             csr.rev_offsets.end() - 1);
  for (uint32_t r = 0; r < n_edges; ++r) {
    csr.fwd_targets[fcur[src[r]]++] = dst[r];
    csr.rev_sources[rcur[dst[r]]++] = src[r];
  }

  // Sorted layout: per-span ascending dense ids for binary search and
  // bitset expansion.
  csr.sorted_offsets = csr.fwd_offsets;
  csr.sorted_targets = csr.fwd_targets;
  for (uint32_t u = 0; u < n; ++u) {
    std::sort(csr.sorted_targets.begin() + csr.sorted_offsets[u],
              csr.sorted_targets.begin() + csr.sorted_offsets[u + 1]);
  }

  return csr;
}

}  // namespace graphlog::columnar
