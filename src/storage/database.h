// Database: the catalog of named relations plus the symbol table.

#ifndef GRAPHLOG_STORAGE_DATABASE_H_
#define GRAPHLOG_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/symbol_table.h"
#include "storage/relation.h"
#include "storage/relation_stats.h"

namespace graphlog::obs {
class MetricsRegistry;  // obs/metrics.h
}

namespace graphlog::storage {

/// \brief An extensional database: named relations over interned symbols.
///
/// The Database owns the SymbolTable through which all programs and queries
/// that run against it must intern their identifiers.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  SymbolTable& symbols() { return syms_; }
  const SymbolTable& symbols() const { return syms_; }

  /// \brief Process-unique id of this Database instance. Code keying
  /// state across databases (the result cache) scopes its keys by this
  /// id, so two databases never share cache entries even when they hold
  /// copies of the same relations — sessions intern query-local symbols
  /// after cloning a snapshot, and entries recorded under one session's
  /// symbol ids must not replay into another.
  uint64_t uid() const { return uid_; }

  /// \brief Interns a string (convenience passthrough).
  Symbol Intern(std::string_view s) { return syms_.Intern(s); }

  /// \brief Declares `name` with the given arity; returns the existing
  /// relation if already declared with the same arity.
  Result<Relation*> Declare(std::string_view name, size_t arity) {
    return Declare(syms_.Intern(name), arity);
  }
  Result<Relation*> Declare(Symbol name, size_t arity) {
    auto it = relations_.find(name);
    if (it != relations_.end()) {
      if (it->second.arity() != arity) {
        return Status::ArityMismatch(
            "relation '" + syms_.name(name) + "' declared with arity " +
            std::to_string(arity) + " but exists with arity " +
            std::to_string(it->second.arity()));
      }
      return &it->second;
    }
    Relation* rel = &relations_.emplace(name, Relation(arity)).first->second;
    rel->set_uid(next_relation_uid_.fetch_add(1, std::memory_order_relaxed) +
                 1);
    return rel;
  }

  /// \brief The relation for `name`, or nullptr.
  const Relation* Find(Symbol name) const {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }
  Relation* FindMutable(Symbol name) {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }
  const Relation* Find(std::string_view name) const {
    Symbol s = syms_.Lookup(name);
    return s == kNoSymbol ? nullptr : Find(s);
  }

  bool Contains(Symbol name) const { return relations_.count(name) > 0; }

  /// \brief Adds a fact, declaring the relation on first use.
  Status AddFact(std::string_view name, Tuple t) {
    GRAPHLOG_ASSIGN_OR_RETURN(Relation * rel, Declare(name, t.size()));
    rel->Insert(std::move(t));
    return Status::OK();
  }
  Status AddFact(Symbol name, Tuple t) {
    GRAPHLOG_ASSIGN_OR_RETURN(Relation * rel, Declare(name, t.size()));
    rel->Insert(std::move(t));
    return Status::OK();
  }

  /// \brief Convenience: adds a fact whose arguments are strings interned
  /// as symbols.
  Status AddSymFact(std::string_view name,
                    std::initializer_list<std::string_view> args) {
    Tuple t;
    t.reserve(args.size());
    for (std::string_view a : args) t.push_back(Value::Sym(syms_.Intern(a)));
    return AddFact(name, std::move(t));
  }

  const std::map<Symbol, Relation>& relations() const { return relations_; }
  std::map<Symbol, Relation>& relations() { return relations_; }

  /// \brief Total number of tuples across all relations.
  size_t TotalTuples() const {
    size_t n = 0;
    for (const auto& [_, rel] : relations_) n += rel.size();
    return n;
  }

  /// \brief Estimated resident bytes across all relations (see
  /// Relation::MemoryBytes for the determinism contract).
  size_t TotalBytes() const {
    size_t n = 0;
    for (const auto& [_, rel] : relations_) n += rel.MemoryBytes();
    return n;
  }

  /// \brief Column statistics for the named relation, refreshed to its
  /// current contents (incrementally when it has only grown — see
  /// relation_stats.h). Nullptr when the relation does not exist. The
  /// planner's cardinality oracle and EXPLAIN both read estimates here.
  const RelationStats* StatsFor(Symbol name) const {
    const Relation* rel = Find(name);
    return rel == nullptr ? nullptr : stats_.Get(name, *rel);
  }
  const RelationStats* StatsFor(std::string_view name) const {
    const Symbol s = syms_.Lookup(name);
    return s == kNoSymbol ? nullptr : StatsFor(s);
  }

  /// \brief The stats catalog itself (Peek without forcing computation).
  const StatsCatalog& stats_catalog() const { return stats_; }

  /// \brief Publishes per-relation row/byte gauges
  /// (`db.relation.<name>.{rows,bytes}`) plus catalog totals
  /// (`db.relations`, `db.rows`, `db.bytes`) into `registry`; no-op when
  /// null. Also refreshes and publishes the column statistics of every
  /// relation as `db.relation.<name>.distinct.<col>` and
  /// `db.relation.<name>.max_degree.<col>` gauges (incremental per
  /// refresh — O(rows inserted since the last export)). Gauges for
  /// dropped relations are not retracted — a service snapshotting between
  /// queries sees the last published level.
  void ExportResourceMetrics(obs::MetricsRegistry* registry) const;

  /// \brief Drops the named relation entirely, with its column
  /// statistics; returns true when it existed. Used by governed-abort
  /// rollback to remove relations a failed run created.
  bool Remove(Symbol name) {
    stats_.Erase(name);
    return relations_.erase(name) > 0;
  }

  /// \brief Drops every relation whose name is not in `keep`, with its
  /// column statistics; used to strip IDB results between runs.
  void RetainOnly(const std::set<Symbol>& keep) {
    for (auto it = relations_.begin(); it != relations_.end();) {
      if (keep.count(it->first) == 0) {
        stats_.Erase(it->first);
        it = relations_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// \brief Renders the named relation sorted, one fact per line.
  std::string RelationToString(Symbol name) const;

 private:
  SymbolTable syms_;
  std::map<Symbol, Relation> relations_;
  // Lazily-computed, incrementally-refreshed column statistics; mutable
  // because refreshing on read is a cache fill, not a data change (the
  // same discipline as Relation's lazily-built indexes).
  mutable StatsCatalog stats_;
  // Source of Relation::uid values: process-global (one counter across
  // every Database) and never decremented, so (a) a relation dropped and
  // re-declared under the same name gets a fresh uid the cache layer
  // cannot confuse with its predecessor, and (b) relations declared in
  // *different* databases never collide — a session database copied from
  // a server snapshot keeps the server-issued uids on the copies, and any
  // relation it declares locally gets an id no other database will ever
  // issue, which is what lets stamp-keyed caches serve sessions safely.
  static inline std::atomic<uint64_t> next_relation_uid_{0};
  static inline std::atomic<uint64_t> next_db_uid_{0};
  uint64_t uid_ = ++next_db_uid_;
};

}  // namespace graphlog::storage

#endif  // GRAPHLOG_STORAGE_DATABASE_H_
