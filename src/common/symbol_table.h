// SymbolTable: string interning.
//
// All identifiers and string constants flowing through the engine (predicate
// names, variable names, string values) are interned into 32-bit Symbol ids
// so that tuples are flat integer records and joins hash machine words.
//
// A table may sit on a frozen, shared SymbolPrefix: an immutable run of
// ids [0, prefix size) that many tables read without copying. The server
// freezes its table at every publish and hands the prefix to snapshots;
// sessions build on it and intern their own symbols (variables, query
// constants, fresh auxiliary predicates) from kLocalSymbolBase up, a range
// the server never issues, so a newer server prefix can replace an older
// one under a session without renumbering anything.

#ifndef GRAPHLOG_COMMON_SYMBOL_TABLE_H_
#define GRAPHLOG_COMMON_SYMBOL_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace graphlog {

/// \brief Interned string id. Valid ids are dense, starting at 0.
using Symbol = uint32_t;

/// \brief Sentinel for "no symbol".
inline constexpr Symbol kNoSymbol = static_cast<Symbol>(-1);

/// \brief First id of a session-local range (see the file comment). Ids
/// below it are shared-prefix ids; tables that are not session tables
/// never reach it.
inline constexpr Symbol kLocalSymbolBase = Symbol{1} << 31;

/// \brief An immutable, shareable run of symbols [0, size()).
///
/// Stored as a few segments of geometrically decreasing size. Extending a
/// prefix by k symbols copies only the segments it merges, so each symbol
/// is copied O(log n) times over the prefix's life and a publish costs
/// O(new symbols) amortized, never O(table).
class SymbolPrefix {
 public:
  size_t size() const { return size_; }

  /// \brief The id of `s`, or kNoSymbol.
  Symbol Lookup(std::string_view s) const {
    for (const auto& seg : segments_) {
      auto it = seg->ids.find(s);
      if (it != seg->ids.end()) return it->second;
    }
    return kNoSymbol;
  }

  /// \brief The string for id `id` < size().
  const std::string& name(Symbol id) const {
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), id,
        [](Symbol v, const std::shared_ptr<const Segment>& seg) {
          return v < seg->first;
        });
    const Segment& seg = **(it - 1);
    return seg.strings[id - seg.first];
  }

  /// \brief `base` (may be null: empty) followed by `added`, which hold
  /// ids base->size(), base->size() + 1, ...
  static std::shared_ptr<const SymbolPrefix> Extend(
      const std::shared_ptr<const SymbolPrefix>& base,
      std::vector<std::string> added) {
    if (added.empty() && base != nullptr) return base;
    auto next = std::make_shared<SymbolPrefix>();
    if (base != nullptr) {
      next->segments_ = base->segments_;
      next->size_ = base->size_;
    }
    std::vector<std::string> strings = std::move(added);
    // Merge while the previous segment is no larger than the new one:
    // segment sizes stay strictly decreasing, so there are O(log n).
    while (!next->segments_.empty() &&
           next->segments_.back()->strings.size() <= strings.size()) {
      const Segment& prev = *next->segments_.back();
      std::vector<std::string> merged;
      merged.reserve(prev.strings.size() + strings.size());
      merged.insert(merged.end(), prev.strings.begin(), prev.strings.end());
      std::move(strings.begin(), strings.end(), std::back_inserter(merged));
      strings = std::move(merged);
      next->segments_.pop_back();
    }
    const Symbol first =
        next->segments_.empty()
            ? 0
            : next->segments_.back()->first +
                  static_cast<Symbol>(next->segments_.back()->strings.size());
    next->size_ = first + strings.size();
    next->segments_.push_back(
        std::make_shared<const Segment>(first, std::move(strings)));
    return next;
  }

  /// \brief Calls fn(id, string) for every id in [from, size()).
  template <typename Fn>
  void ForEachSince(size_t from, Fn&& fn) const {
    for (const auto& seg : segments_) {
      const size_t end = seg->first + seg->strings.size();
      for (size_t id = std::max<size_t>(from, seg->first); id < end; ++id) {
        fn(static_cast<Symbol>(id), seg->strings[id - seg->first]);
      }
    }
  }

 private:
  struct Segment {
    Segment(Symbol f, std::vector<std::string> s)
        : first(f), strings(std::move(s)) {
      ids.reserve(strings.size());
      for (size_t i = 0; i < strings.size(); ++i) {
        ids.emplace(strings[i], first + static_cast<Symbol>(i));
      }
    }
    Symbol first;
    std::vector<std::string> strings;
    // Views into `strings`, which never changes after construction.
    std::unordered_map<std::string_view, Symbol> ids;
  };
  std::vector<std::shared_ptr<const Segment>> segments_;
  size_t size_ = 0;
};

/// \brief Bidirectional string <-> Symbol map.
///
/// Not thread-safe; each Database owns one. Interning the same string twice
/// returns the same Symbol, and symbols are never released. The frozen
/// prefix it may share is immutable and safe to share across threads.
class SymbolTable {
 public:
  SymbolTable() = default;

  /// \brief A session table: reads `prefix` in place and interns its own
  /// symbols from kLocalSymbolBase up.
  explicit SymbolTable(std::shared_ptr<const SymbolPrefix> prefix)
      : prefix_(std::move(prefix)), local_base_(kLocalSymbolBase) {}

  // Movable but not copyable: Symbols are only meaningful relative to the
  // table that issued them, so accidental copies invite mixed-table ids.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&&) = default;
  SymbolTable& operator=(SymbolTable&&) = default;

  /// \brief Interns `s`, returning its Symbol (creating it if new).
  Symbol Intern(std::string_view s) {
    const Symbol found = Lookup(s);
    if (found != kNoSymbol) return found;
    const Symbol id = local_base_ + static_cast<Symbol>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  /// \brief Looks up `s` without interning; kNoSymbol if absent.
  Symbol Lookup(std::string_view s) const {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    return prefix_ == nullptr ? kNoSymbol : prefix_->Lookup(s);
  }

  /// \brief The string for an id issued by this table.
  const std::string& name(Symbol id) const {
    return id >= local_base_ ? strings_[id - local_base_] : prefix_->name(id);
  }

  bool Contains(Symbol id) const {
    return id >= local_base_ ? id - local_base_ < strings_.size()
                             : prefix_ != nullptr && id < prefix_->size();
  }

  size_t size() const {
    return (prefix_ == nullptr ? 0 : prefix_->size()) + strings_.size();
  }

  /// \brief Interns a name not currently in the table, derived from `base`.
  ///
  /// Used to generate auxiliary predicate names (p.r.e. compilation,
  /// Algorithm 3.1 signatures) that cannot clash with user predicates.
  ///
  /// Candidates are `base`, `base_0`, `base_1`, ...; the first one not in
  /// the table wins. Symbols are never released, so the search resumes
  /// where the last Fresh(base) stopped: a long-lived table that has
  /// issued k names from one base pays O(1) per call, not O(k).
  Symbol Fresh(std::string_view base) {
    int& next = fresh_next_[std::string(base)];  // 0: bare base; k: base_(k-1)
    for (;; ++next) {
      std::string candidate(base);
      if (next > 0) candidate += "_" + std::to_string(next - 1);
      if (Lookup(candidate) == kNoSymbol) {
        ++next;
        return Intern(candidate);
      }
    }
  }

  /// \brief Moves every symbol this table interned itself into a new
  /// frozen prefix and returns it; ids do not change, and later interns
  /// continue after it. Only for tables that are not session tables.
  /// O(symbols interned since the last Freeze) amortized; returns the
  /// current prefix unchanged when there are none.
  std::shared_ptr<const SymbolPrefix> Freeze() {
    if (strings_.empty() && prefix_ != nullptr) return prefix_;
    std::vector<std::string> added(std::make_move_iterator(strings_.begin()),
                                   std::make_move_iterator(strings_.end()));
    prefix_ = SymbolPrefix::Extend(prefix_, std::move(added));
    strings_.clear();
    ids_.clear();
    local_base_ = static_cast<Symbol>(prefix_->size());
    return prefix_;
  }

  /// \brief Session tables: moves onto `newer`, a later prefix of the same
  /// server table. Returns false and changes nothing when a symbol `newer`
  /// adds has the same string as one this table interned locally — the
  /// two ids would then name one string.
  bool Rebase(std::shared_ptr<const SymbolPrefix> newer) {
    bool clash = false;
    if (!ids_.empty()) {
      newer->ForEachSince(prefix_->size(),
                          [&](Symbol, const std::string& s) {
                            clash = clash || ids_.count(s) > 0;
                          });
    }
    if (clash) return false;
    prefix_ = std::move(newer);
    return true;
  }

 private:
  std::shared_ptr<const SymbolPrefix> prefix_;
  // Symbols interned by this table itself: ids local_base_ + i. A deque,
  // so the views `ids_` keys on stay put as it grows.
  Symbol local_base_ = 0;
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Symbol> ids_;
  // Fresh(): per base, where the next candidate search starts.
  std::unordered_map<std::string, int> fresh_next_;
};

}  // namespace graphlog

#endif  // GRAPHLOG_COMMON_SYMBOL_TABLE_H_
