// Relation: a deduplicated set of tuples with incrementally maintained
// hash indexes.
//
// Relations preserve insertion order for deterministic iteration, maintain
// a hash set for O(1) duplicate elimination and membership tests, and build
// hash indexes over column subsets on demand. Once built, an index is kept
// current incrementally: Insert appends the new row id to the matching
// posting list of every built index instead of discarding them, so a
// fixpoint loop that alternates inserts and probes pays O(new rows) per
// round instead of O(relation) index rebuilds.
//
// Rows live in append-only chunks of up to kChunkRows tuples. A chunk is
// refcounted, and copying a Relation shares every chunk instead of copying
// rows: the copy costs O(size / kChunkRows) pointer bumps. A write through
// either side first takes private ownership of the one chunk it touches
// (copying it when shared), so no change shows through on the other side.
// The dedup set and the indexes are per-copy and start empty in a copy;
// they rebuild lazily on first use (SyncDedup / BuildIndex force that up
// front). The first chunk grows like a vector, so a small relation never
// reserves a full chunk.
//
// Invalidation contract: Probe returns a ProbeResult view into an index
// posting list. The view is valid until the next structural change of the
// relation — any successful Insert/InsertAll (the posting list may grow
// and reallocate), Clear, or DropIndexes. Using a stale view is undefined
// behavior; each access asserts validity in debug builds, and valid() can
// be queried in any build. Relations are not internally synchronized:
// concurrent const access (Probe on already-built indexes, Contains once
// the dedup set is synced, rows) is safe, concurrent mutation is not —
// parallel evaluation pre-builds indexes with BuildIndex, syncs dedup sets
// with SyncDedup, and keeps the fan-out read-only. Distinct relations that
// share chunks may be used from different threads freely.

#ifndef GRAPHLOG_STORAGE_RELATION_H_
#define GRAPHLOG_STORAGE_RELATION_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"

namespace graphlog::storage {

class Relation;

/// \brief View over the row indices matching a Probe().
///
/// Holds the relation's structure generation at probe time; any later
/// structural change (insert, clear, index drop) invalidates the view.
/// Accessors assert validity in debug builds.
class ProbeResult {
 public:
  ProbeResult() = default;

  /// \brief True while the underlying relation is structurally unchanged
  /// since this result was probed.
  bool valid() const;

  size_t size() const {
    CheckValid();
    return hits_ == nullptr ? 0 : hits_->size();
  }
  bool empty() const { return size() == 0; }
  const uint32_t* begin() const {
    CheckValid();
    return hits_ == nullptr ? nullptr : hits_->data();
  }
  const uint32_t* end() const {
    CheckValid();
    return hits_ == nullptr ? nullptr : hits_->data() + hits_->size();
  }
  uint32_t operator[](size_t i) const {
    CheckValid();
    return (*hits_)[i];
  }

 private:
  friend class Relation;
  ProbeResult(const std::vector<uint32_t>* hits, const Relation* rel,
              uint64_t generation)
      : hits_(hits), rel_(rel), generation_(generation) {}

  void CheckValid() const {
    assert(valid() && "ProbeResult used after a structural change of the "
                      "relation (insert/clear/index drop)");
  }

  const std::vector<uint32_t>* hits_ = nullptr;  // nullptr: no matches
  const Relation* rel_ = nullptr;                // nullptr: detached view
  uint64_t generation_ = 0;
};

/// \brief Rows per chunk of a relation's row store (a power of two).
inline constexpr size_t kChunkShift = 10;
inline constexpr size_t kChunkRows = size_t{1} << kChunkShift;
inline constexpr size_t kChunkMask = kChunkRows - 1;

/// \brief Shared-ownership handle to one append-only block of rows.
///
/// The refcount is intrusive so that the "am I the only owner?" test can
/// use an acquire load: a relation that sees itself as sole owner may
/// then write the chunk in place, ordered after every read the last
/// co-owner made before releasing its reference.
class RowChunkRef {
 public:
  RowChunkRef() : c_(new Chunk) {}
  RowChunkRef(const RowChunkRef& o) : c_(o.c_) {
    c_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  RowChunkRef(RowChunkRef&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  RowChunkRef& operator=(RowChunkRef o) noexcept {
    std::swap(c_, o.c_);
    return *this;
  }
  ~RowChunkRef() {
    if (c_ != nullptr &&
        c_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete c_;
    }
  }

  const std::vector<Tuple>& rows() const { return c_->rows; }
  bool SharesWith(const RowChunkRef& o) const { return c_ == o.c_; }

  /// \brief The rows for writing, after making this handle the chunk's
  /// sole owner. A shared chunk is replaced by a private copy of its first
  /// `keep` rows (the rest would be discarded by the caller anyway).
  std::vector<Tuple>& Own(size_t keep) {
    if (c_->refs.load(std::memory_order_acquire) != 1) {
      RowChunkRef copy;
      std::vector<Tuple>& rows = copy.c_->rows;
      rows.reserve(std::min(kChunkRows, std::max<size_t>(2 * keep, 8)));
      rows.assign(c_->rows.begin(),
                  c_->rows.begin() + static_cast<ptrdiff_t>(keep));
      *this = std::move(copy);
    }
    return c_->rows;
  }

 private:
  struct Chunk {
    std::atomic<uint32_t> refs{1};
    std::vector<Tuple> rows;
  };
  Chunk* c_;
};

/// \brief Read-only, random-access view over a relation's insertion-ordered
/// rows. Valid until the relation's next data change.
class RowsView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    iterator() = default;
    iterator(const RowChunkRef* chunks, size_t i) : chunks_(chunks), i_(i) {}

    reference operator*() const {
      return chunks_[i_ >> kChunkShift].rows()[i_ & kChunkMask];
    }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    iterator& operator--() {
      --i_;
      return *this;
    }
    iterator operator--(int) {
      iterator t = *this;
      --i_;
      return t;
    }
    iterator& operator+=(difference_type n) {
      i_ = static_cast<size_t>(static_cast<difference_type>(i_) + n);
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.i_ != b.i_;
    }
    friend bool operator<(const iterator& a, const iterator& b) {
      return a.i_ < b.i_;
    }
    friend bool operator>(const iterator& a, const iterator& b) {
      return a.i_ > b.i_;
    }
    friend bool operator<=(const iterator& a, const iterator& b) {
      return a.i_ <= b.i_;
    }
    friend bool operator>=(const iterator& a, const iterator& b) {
      return a.i_ >= b.i_;
    }

   private:
    const RowChunkRef* chunks_ = nullptr;
    size_t i_ = 0;
  };
  using const_iterator = iterator;
  using value_type = Tuple;

  RowsView(const RowChunkRef* chunks, size_t size)
      : chunks_(chunks), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Tuple& operator[](size_t i) const {
    return chunks_[i >> kChunkShift].rows()[i & kChunkMask];
  }
  const Tuple& front() const { return (*this)[0]; }
  const Tuple& back() const { return (*this)[size_ - 1]; }
  iterator begin() const { return iterator(chunks_, 0); }
  iterator end() const { return iterator(chunks_, size_); }

  /// \brief A flat copy of the rows, for callers that keep them.
  operator std::vector<Tuple>() const {  // NOLINT(google-explicit-constructor)
    return std::vector<Tuple>(begin(), end());
  }

  friend bool operator==(const RowsView& a, const RowsView& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const RowsView& a, const RowsView& b) {
    return !(a == b);
  }

 private:
  const RowChunkRef* chunks_;
  size_t size_;
};

/// \brief A set of same-arity tuples.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  /// \brief Shares `o`'s rows (O(chunks), no tuple copies) and carries its
  /// stamps and uid. The dedup set and indexes start empty and rebuild
  /// lazily; see the file comment.
  Relation(const Relation& o)
      : arity_(o.arity_),
        chunks_(o.chunks_),
        size_(o.size_),
        generation_(o.generation_),
        data_generation_(o.data_generation_),
        shrinks_(o.shrinks_),
        uid_(o.uid_),
        index_builds_(o.index_builds_),
        index_appends_(o.index_appends_) {}
  Relation& operator=(const Relation& o) {
    if (this != &o) *this = Relation(o);
    return *this;
  }
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// \brief A relation holding `o`'s rows (shared, O(chunks)) and none of
  /// its identity: uid 0, fresh stamps and counters. The semi-naive
  /// engine seeds its first-round deltas this way.
  static Relation SharingRows(const Relation& o) {
    Relation r(o.arity_);
    r.chunks_ = o.chunks_;
    r.size_ = o.size_;
    return r;
  }

  size_t arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// \brief Inserts `t`; returns true when the tuple is new. Appends the
  /// new row to every built index; invalidates outstanding ProbeResults.
  /// The tuple's size must equal arity().
  bool Insert(Tuple t) {
    SyncDedup();
    if (!set_.insert(t).second) return false;
    Append(std::move(t));
    ++data_generation_;
    return true;
  }

  /// \brief Appends `t` without consulting the dedup set: the bulk-load
  /// path for kernels whose output is provably duplicate-free (the
  /// columnar TC/RPQ kernels emit each pair exactly once). Skips the
  /// per-row hash insert and tuple copy that dominate materialization;
  /// the set catches up lazily at the next operation that needs it
  /// (Insert / Contains / SetEquals / SyncDedup). Feeding a duplicate is
  /// a caller bug (asserted at the next sync in debug builds).
  void AppendUnique(Tuple t) {
    Append(std::move(t));
    ++data_generation_;
  }

  /// \brief Loads every row of `rows` into this empty relation of the
  /// same arity, sharing its chunks (O(chunks)) without hashing: the
  /// bulk-load path for a kernel's duplicate-free output, which the
  /// evaluation engine moves into a served closure's head. The dedup set
  /// catches up lazily, as after AppendUnique. data_generation() advances
  /// by one per row, as row-by-row appends would, so the grow-only
  /// witness (generation delta == size delta) still holds.
  void AdoptRows(const Relation& rows) {
    assert(empty() && rows.arity_ == arity_);
    chunks_ = rows.chunks_;
    size_ = rows.size_;
    for (size_t i = 0; !indexes_.empty() && i < size_; ++i) {
      AppendToIndexes(row(i), static_cast<uint32_t>(i));
    }
    ++generation_;
    data_generation_ += size_;
    memory_dirty_ = true;
  }

  /// \brief Inserts `t` like Insert() but WITHOUT bumping data_generation():
  /// the staging half of a multi-relation atomic write. The structural
  /// generation still advances (outstanding ProbeResults are invalidated),
  /// but the relation's cache stamp is frozen until CommitStamp() — so an
  /// aborted batch can undo its staged rows with RollbackStagedTo() without
  /// ever having published a stamp readers could cache a half-applied
  /// state under.
  bool InsertStaged(Tuple t) {
    SyncDedup();
    if (!set_.insert(t).second) return false;
    Append(std::move(t));
    return true;
  }

  /// \brief Publishes the data stamp for a run of InsertStaged() calls:
  /// exactly one data_generation() bump per touched relation per committed
  /// batch, however many rows the batch staged.
  void CommitStamp() { ++data_generation_; }

  /// \brief Undoes staged rows: TruncateTo without the data_generation()
  /// bump, legitimate only because rows staged by InsertStaged() since
  /// size `n` was recorded never published a stamp for anyone to observe.
  void RollbackStagedTo(size_t n) {
    if (n >= size_) return;
    Shrink(n);
  }

  /// \brief Restores the committed data stamp after a transactional
  /// rollback has returned the contents to exactly the state that carried
  /// stamp `g`. The caller must guarantee that match — the
  /// (uid, data_generation, size) ⇒ equal-contents contract depends on it.
  void RestoreDataGeneration(uint64_t g) { data_generation_ = g; }

  /// \brief Moves this relation onto `newer` when `newer` is a later
  /// version of it that has only grown since: same uid, and every row here
  /// is `newer`'s row at the same position. Shares `newer`'s rows and
  /// takes its data stamp, and keeps the built indexes and dedup set,
  /// feeding them only the appended rows: O(rows appended) instead of a
  /// copy plus full index rebuilds. The prefix check compares chunk
  /// identity first, so a version that shares all but the last chunk
  /// with this one costs one chunk of row comparisons. Returns false,
  /// changing nothing, when `newer` is not such a version.
  bool CatchUp(const Relation& newer) {
    if (newer.uid_ != uid_ || newer.arity_ != arity_ || newer.size_ < size_) {
      return false;
    }
    const size_t from = size_;
    for (size_t k = 0; k * kChunkRows < from; ++k) {
      if (chunks_[k].SharesWith(newer.chunks_[k])) continue;
      const size_t end = std::min(from, (k + 1) * kChunkRows);
      for (size_t i = k * kChunkRows; i < end; ++i) {
        if (row(i) != newer.row(i)) return false;
      }
    }
    chunks_ = newer.chunks_;
    size_ = newer.size_;
    for (size_t i = from; i < size_; ++i) {
      AppendToIndexes(row(i), static_cast<uint32_t>(i));
    }
    data_generation_ = newer.data_generation_;
    ++generation_;
    memory_dirty_ = true;
    return true;
  }

  /// \brief Inserts every tuple of `other`; returns the number actually new.
  size_t InsertAll(const Relation& other) {
    Reserve(size_ + other.size());
    size_t added = 0;
    for (const Tuple& t : other.rows()) {
      if (Insert(t)) ++added;
    }
    return added;
  }

  /// \brief Pre-sizes the dedup set for `n` total tuples (rows are
  /// chunked and need no reservation).
  void Reserve(size_t n) { set_.reserve(n); }

  bool Contains(const Tuple& t) const {
    SyncDedup();
    return set_.count(t) > 0;
  }

  /// \brief Insertion-ordered rows.
  RowsView rows() const { return RowsView(chunks_.data(), size_); }

  /// \brief Rows in canonical (lexicographic) order; for diffing and
  /// printing.
  std::vector<Tuple> SortedRows() const {
    std::vector<Tuple> out = rows();
    std::sort(out.begin(), out.end(), TupleLess());
    return out;
  }

  void Clear() {
    chunks_.clear();
    size_ = 0;
    set_.clear();
    indexes_.clear();
    ++generation_;
    ++data_generation_;
    ++shrinks_;
    memory_dirty_ = true;
  }

  /// \brief Removes every row past the first `n` (insertion order),
  /// erasing them from the dedup set and discarding built indexes (the
  /// next Probe rebuilds). The rollback primitive for governed aborts:
  /// truncating to a pre-run size restores the relation's exact pre-run
  /// contents and iteration order. No-op when n >= size(). Invalidates
  /// outstanding ProbeResults.
  void TruncateTo(size_t n) {
    if (n >= size_) return;
    Shrink(n);
    ++data_generation_;
  }

  /// \brief Discards every built index (releases memory; the next Probe
  /// over a column set rebuilds from scratch). Invalidates outstanding
  /// ProbeResults.
  void DropIndexes() const {
    indexes_.clear();
    ++generation_;
    memory_dirty_ = true;
  }

  /// \brief Row indices whose values at `cols` equal `key` (parallel
  /// vectors). Builds a hash index over `cols` on first use; the index is
  /// maintained incrementally by subsequent inserts.
  ///
  /// `cols` must be strictly increasing column positions < arity(). See
  /// the file comment for the returned view's invalidation contract.
  ProbeResult Probe(const std::vector<uint32_t>& cols,
                    const Tuple& key) const {
    const Index& index = EnsureIndex(cols);
    auto it = index.find(key);
    return ProbeResult(it == index.end() ? nullptr : &it->second, this,
                       generation_);
  }

  /// \brief Ensures the hash index over `cols` exists without probing it.
  /// Parallel evaluation pre-builds every index a join plan needs so the
  /// subsequent multi-threaded Probe()s are pure reads.
  void BuildIndex(const std::vector<uint32_t>& cols) const {
    EnsureIndex(cols);
  }

  /// \brief Brings the dedup set up to date with the rows (a copy starts
  /// with none; AppendUnique defers it). Parallel evaluation calls this
  /// before fanning out so concurrent Contains() calls are pure reads.
  void SyncDedup() const {
    if (set_.size() == size_) return;
    set_.reserve(size_);
    for (size_t i = set_.size(); i < size_; ++i) set_.insert(row(i));
    assert(set_.size() == size_ && "AppendUnique was fed a duplicate row");
  }

  const Tuple& row(size_t i) const {
    return chunks_[i >> kChunkShift].rows()[i & kChunkMask];
  }

  /// \brief True when the two relations hold the same set of tuples.
  bool SetEquals(const Relation& other) const {
    if (size() != other.size()) return false;
    for (const Tuple& t : rows()) {
      if (!other.Contains(t)) return false;
    }
    return true;
  }

  /// \brief Monotonic counter bumped by every structural change (insert,
  /// clear, index drop); backs ProbeResult::valid().
  uint64_t generation() const { return generation_; }

  /// \brief Monotonic counter bumped only by *data* changes — successful
  /// Insert, Clear, TruncateTo — never by index maintenance (DropIndexes
  /// bumps generation() but not this). The cache layer's invalidation key:
  /// equal (uid, data_generation, size) implies equal contents whenever
  /// the relation has only grown since the last observation.
  uint64_t data_generation() const { return data_generation_; }

  /// \brief Monotonic counter bumped only by *destructive* data changes —
  /// Clear, TruncateTo, RollbackStagedTo — never by inserts or index
  /// maintenance. The grow-only witness for incremental consumers
  /// (relation_stats.h): with uid and shrinks() unchanged and size() not
  /// smaller, every previously-observed row prefix is still intact and
  /// only appended rows need to be absorbed.
  uint64_t shrinks() const { return shrinks_; }

  /// \brief Process-unique id assigned by Database::Declare; never reused,
  /// so a Remove + re-Declare under the same name is distinguishable from
  /// the original relation even when counters coincide. 0 = unassigned
  /// (relation not owned by a Database).
  uint64_t uid() const { return uid_; }
  void set_uid(uint64_t uid) { uid_ = uid; }

  /// \brief Number of full from-scratch index builds (first Probe over a
  /// column set).
  uint64_t index_builds() const { return index_builds_; }
  /// \brief Number of incremental row appends into already-built indexes.
  uint64_t index_appends() const { return index_appends_; }

  /// \brief Estimated resident bytes of this relation: row store, dedup
  /// set, and built indexes.
  ///
  /// A *structural* estimate, deliberately computed from deterministic
  /// quantities only (row count, arity, built-index key counts) rather
  /// than allocator capacities, chunk sharing, or whether the lazily
  /// rebuilt dedup set has caught up, so resource gauges derived from it
  /// are byte-identical across num_threads settings and between a
  /// relation and its copies — the same contract as EvalStats and the
  /// deterministic trace projection.
  ///
  /// Cached: mutations (insert, clear, truncate, index build/drop) mark
  /// the estimate dirty and the next call recomputes, so per-round
  /// resource gauges and metrics exports stop paying a full recompute
  /// over every unchanged relation.
  size_t MemoryBytes() const {
    if (!memory_dirty_) return memory_bytes_;
    size_t bytes = size_ * RowBytes(arity_);
    for (const auto& [cols, index] : indexes_) {
      // Per distinct key: the key tuple and a posting-list header.
      bytes += index.size() * (sizeof(Tuple) + cols.size() * sizeof(Value) +
                               sizeof(std::vector<uint32_t>) +
                               2 * sizeof(void*));
      // Every row appears in exactly one posting list of each index.
      bytes += size_ * sizeof(uint32_t);
    }
    memory_bytes_ = bytes;
    memory_dirty_ = false;
    return bytes;
  }

  /// \brief The part of MemoryBytes() that every row of an `arity`-column
  /// relation adds whatever indexes are built: its row-store entry and its
  /// dedup-set entry. A relation without indexes holds exactly
  /// size() * RowBytes(arity()) bytes.
  static constexpr size_t RowBytes(size_t arity) {
    // Row store: one Tuple header + arity values per row. Dedup set: per
    // entry, a copy of the tuple plus ~2 words of hash-table overhead
    // (bucket slot + node link).
    return (sizeof(Tuple) + arity * sizeof(Value)) +
           (sizeof(Tuple) + arity * sizeof(Value) + 2 * sizeof(void*));
  }

 private:
  using Index = std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>;

  /// Appends one row (already deduplicated by the caller) to the last
  /// chunk, taking ownership of it first, and to every built index.
  void Append(Tuple t) {
    const size_t slot = size_ & kChunkMask;
    if (slot == 0) {
      chunks_.emplace_back();
      // Only a relation already past one chunk gets full-size chunks.
      if (size_ != 0) chunks_.back().Own(0).reserve(kChunkRows);
    }
    std::vector<Tuple>& rows = chunks_.back().Own(slot);
    rows.push_back(std::move(t));
    const uint32_t row_id = static_cast<uint32_t>(size_++);
    AppendToIndexes(rows.back(), row_id);
    ++generation_;
    memory_dirty_ = true;
  }

  /// Drops rows [n, size) from the row store and the dedup set; discards
  /// indexes. Does not touch data_generation_.
  void Shrink(size_t n) {
    // The dedup set holds exactly rows [0, set_.size()), so only the
    // synced part of the dropped range needs erasing.
    const size_t synced = set_.size();
    for (size_t i = n; i < synced; ++i) set_.erase(row(i));
    const size_t keep_chunks = (n + kChunkRows - 1) >> kChunkShift;
    chunks_.resize(keep_chunks);
    if (const size_t tail = n & kChunkMask; tail != 0) {
      chunks_.back().Own(tail).resize(tail);
    }
    size_ = n;
    indexes_.clear();
    ++generation_;
    ++shrinks_;
    memory_dirty_ = true;
  }

  const Index& EnsureIndex(const std::vector<uint32_t>& cols) const {
    auto it = indexes_.find(cols);
    if (it != indexes_.end()) return it->second;
    ++index_builds_;
    memory_dirty_ = true;
    Index index;
    index.reserve(size_);
    uint32_t i = 0;
    for (const Tuple& r : rows()) {
      Tuple key;
      key.reserve(cols.size());
      for (uint32_t c : cols) key.push_back(r[c]);
      index[std::move(key)].push_back(i++);
    }
    return indexes_.emplace(cols, std::move(index)).first->second;
  }

  void AppendToIndexes(const Tuple& t, uint32_t row_id) {
    for (auto& [cols, index] : indexes_) {
      Tuple key;
      key.reserve(cols.size());
      for (uint32_t c : cols) key.push_back(t[c]);
      index[std::move(key)].push_back(row_id);
      ++index_appends_;
    }
  }

  size_t arity_;
  // Invariant: chunks_.size() == ceil(size_ / kChunkRows), and every
  // chunk but the last holds exactly kChunkRows rows.
  std::vector<RowChunkRef> chunks_;
  size_t size_ = 0;
  // Holds exactly rows [0, set_.size()): rows appended by AppendUnique()
  // (or shared by a copy) catch up in SyncDedup().
  mutable std::unordered_set<Tuple, TupleHash> set_;
  // Built lazily on first probe, then maintained incrementally on insert.
  // Keyed by the column subset.
  mutable std::map<std::vector<uint32_t>, Index> indexes_;
  mutable uint64_t generation_ = 0;
  uint64_t data_generation_ = 0;
  uint64_t shrinks_ = 0;
  uint64_t uid_ = 0;
  mutable uint64_t index_builds_ = 0;
  uint64_t index_appends_ = 0;
  /// MemoryBytes() cache; dirtied by every mutation that changes the
  /// estimate (data changes and index builds/drops).
  mutable size_t memory_bytes_ = 0;
  mutable bool memory_dirty_ = true;
};

inline bool ProbeResult::valid() const {
  return rel_ == nullptr || rel_->generation() == generation_;
}

}  // namespace graphlog::storage

#endif  // GRAPHLOG_STORAGE_RELATION_H_
