#include "storage/relation_stats.h"

namespace graphlog::storage {

void RelationStats::Refresh(const Relation& r) {
  if (CurrentFor(r)) return;
  // Grow-only fast path: same relation instance, no destructive ops since
  // the last refresh, and at least as many rows — the previously-absorbed
  // prefix is intact, only the appended suffix is new. (InsertStaged rows
  // land here too: they change size without bumping data_generation, and
  // the stamp re-freezes on the eventual CommitStamp refresh.)
  const bool grown_only =
      uid_ == r.uid() && shrinks_ == r.shrinks() && r.size() >= rows_;
  if (!grown_only) {
    counts_.assign(r.arity(), Counts());
    max_group_.assign(r.arity(), 0);
    rows_ = 0;
  }
  Absorb(r, rows_);
  uid_ = r.uid();
  data_generation_ = r.data_generation();
  shrinks_ = r.shrinks();
  rows_ = r.size();
}

void RelationStats::Absorb(const Relation& r, size_t from) {
  const size_t arity = r.arity();
  if (counts_.size() != arity) {
    counts_.assign(arity, Counts());
    max_group_.assign(arity, 0);
  }
  const RowsView rows = r.rows();
  for (size_t i = from; i < rows.size(); ++i) {
    const Tuple& t = rows[i];
    for (size_t c = 0; c < arity; ++c) {
      const uint32_t n = ++counts_[c][t[c]];
      if (n > max_group_[c]) max_group_[c] = n;
    }
  }
}

}  // namespace graphlog::storage
