#include "cache/view_catalog.h"

#include <utility>

#include "datalog/analysis.h"
#include "gov/governor.h"
#include "obs/trace.h"

namespace graphlog::cache {

using datalog::Program;
using storage::Database;
using storage::Relation;

Status ViewCatalog::Define(ViewDefinition def, Database* db,
                           obs::MetricsRegistry* metrics) {
  if (!views_.empty() && db_uid_ != db->uid()) {
    return Status::InvalidArgument(
        "view catalog is bound to a different database");
  }
  for (const View& w : views_) {
    if (w.def.name == def.name) continue;  // replacement is allowed
    for (Symbol p : w.def.idb_predicates) {
      for (Symbol q : def.idb_predicates) {
        if (p == q) {
          return Status::InvalidArgument(
              "view '" + def.name + "' would write relation '" +
              db->symbols().name(q) + "' already owned by view '" +
              w.def.name + "'");
        }
      }
    }
  }
  View v;
  v.def = std::move(def);
  GRAPHLOG_RETURN_NOT_OK(
      Materialize(&v, db, RefreshKind::kFull, {}, metrics, nullptr));
  db_uid_ = db->uid();
  for (View& w : views_) {
    if (w.def.name == v.def.name) {
      w = std::move(v);
      return Status::OK();
    }
  }
  views_.push_back(std::move(v));
  return Status::OK();
}

bool ViewCatalog::Drop(std::string_view name) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if (it->def.name == name) {
      views_.erase(it);
      return true;
    }
  }
  return false;
}

Status ViewCatalog::Refresh(std::string_view name, Database* db,
                            obs::MetricsRegistry* metrics, bool force_full) {
  for (View& v : views_) {
    if (v.def.name == name) {
      return RefreshView(&v, db, metrics, nullptr, force_full);
    }
  }
  return Status::NotFound("no view named '" + std::string(name) + "'");
}

Status ViewCatalog::RefreshAll(Database* db, obs::MetricsRegistry* metrics) {
  for (View& v : views_) {
    GRAPHLOG_RETURN_NOT_OK(RefreshView(&v, db, metrics, nullptr, false));
  }
  return Status::OK();
}

Status ViewCatalog::RefreshView(View* v, Database* db,
                                obs::MetricsRegistry* metrics,
                                const gov::GovernorContext* governor,
                                bool force_full) {
  if (db->uid() != db_uid_) {
    return Status::InvalidArgument(
        "view catalog is bound to a different database");
  }
  std::map<Symbol, size_t> grown_from;
  const RefreshKind kind =
      force_full ? RefreshKind::kFull : Classify(*v, *db, &grown_from);
  if (kind == RefreshKind::kFresh) return Status::OK();
  return Materialize(v, db, kind, grown_from, metrics, governor);
}

ViewCatalog::RefreshKind ViewCatalog::Classify(
    const View& v, const Database& db,
    std::map<Symbol, size_t>* grown_from) const {
  if (!v.materialized) return RefreshKind::kFull;
  // Someone wrote into the view's output relations (e.g. the same query
  // ran outside the view, or a cache replay landed there): the recorded
  // baseline no longer describes them, so only full recomputation is
  // sound.
  for (const auto& [p, st] : v.idb_state) {
    if (StateOf(db, p) != st) return RefreshKind::kFull;
  }
  std::set<Symbol> changed;
  for (const auto& [p, st] : v.edb_state) {
    const RelationState cur = StateOf(db, p);
    if (cur == st) continue;
    if (!cur.exists) return RefreshKind::kFull;  // base dropped
    if (st.exists && cur.uid != st.uid) return RefreshKind::kFull;
    // Grow-only detection: inserts bump data_generation once per novel
    // row, Clear/TruncateTo bump it without the matching size move, so
    // "generation delta == size delta, size grew" certifies the change
    // is exactly the insertion-order suffix [st.size, cur.size).
    if (cur.size <= st.size) return RefreshKind::kFull;
    if (cur.data_generation - st.data_generation != cur.size - st.size) {
      return RefreshKind::kFull;
    }
    (*grown_from)[p] = st.size;
    changed.insert(p);
  }
  if (changed.empty()) return RefreshKind::kFresh;
  if (!IncrementalSafe(v, db, changed)) return RefreshKind::kFull;
  return RefreshKind::kIncremental;
}

bool ViewCatalog::IncrementalSafe(const View& v, const Database& db,
                                  const std::set<Symbol>& changed) const {
  auto strat = datalog::Stratify(v.def.program, db.symbols());
  if (!strat.ok()) return false;
  const Program& prog = v.def.program;
  // `pc` = predicates whose extension may have changed: the grown bases,
  // plus (stratum by stratum) every head derived from them. Insertion
  // deltas stay insertion deltas through positive rules; through a
  // negated subgoal or an aggregate they can *retract* derived tuples,
  // which incremental insertion cannot express.
  std::set<Symbol> pc = changed;
  for (const auto& group : strat->rule_groups) {
    std::set<int> affected;
    bool grew = true;
    while (grew) {
      grew = false;
      for (int i : group) {
        if (affected.count(i) > 0) continue;
        for (const auto& l : prog.rules[i].body) {
          if (l.is_relational() && pc.count(l.atom.predicate) > 0) {
            affected.insert(i);
            pc.insert(prog.rules[i].head.predicate);
            grew = true;
            break;
          }
        }
      }
    }
    for (int i : affected) {
      if (prog.rules[i].head.has_aggregates()) return false;
      for (const auto& l : prog.rules[i].body) {
        if (l.is_negated_atom() && pc.count(l.atom.predicate) > 0) {
          return false;
        }
      }
    }
  }
  return true;
}

Status ViewCatalog::Materialize(View* v, Database* db, RefreshKind kind,
                                const std::map<Symbol, size_t>& grown_from,
                                obs::MetricsRegistry* metrics,
                                const gov::GovernorContext* governor) {
  const uint64_t t0 = obs::NowNs();
  eval::EvalOptions eopts = v->def.eval;
  eopts.metrics = metrics;
  // A budget trip fails the refresh rather than keep a partial view.
  gov::GovernorContext strict;
  if (governor != nullptr) {
    strict = *governor;
    strict.budget.return_partial = false;
    eopts.governor = &strict;
  }
  // A full refresh clears the view before it re-evaluates. A governor can
  // abort it in any round, so a governed one first takes chunk-sharing
  // copies (O(chunks)) to put the rows back; they keep the old rows
  // alive through the rebuild, which makes it slower. An ungoverned full
  // refresh fails only on an engine error, which leaves the view empty
  // and the next refresh full. A failed incremental refresh needs no
  // copies: the engine's rollback truncates every head back to its
  // pre-refresh rows.
  std::map<Symbol, Relation> saved;
  if (kind == RefreshKind::kFull) {
    for (Symbol p : v->def.idb_predicates) {
      if (Relation* rel = db->FindMutable(p)) {
        if (governor != nullptr) saved.emplace(p, *rel);
        rel->Clear();
      }
    }
  }
  Result<eval::EvalStats> es =
      kind == RefreshKind::kIncremental
          ? eval::EvaluateGrowth(v->def.program, db, grown_from, eopts)
          : eval::Evaluate(v->def.program, db, eopts);
  if (!es.ok()) {
    RestoreRows(v, db, saved);
    return es.status();
  }
  v->accumulated.Merge(*es);
  v->materialized = true;
  const ViewStats event = kind == RefreshKind::kIncremental
                              ? ViewStats{.incremental_refreshes = 1}
                              : ViewStats{.full_refreshes = 1};
  FinishRefresh(v, event, es->tuples_derived, t0, *db, metrics);
  return Status::OK();
}

void ViewCatalog::RestoreRows(View* v, Database* db,
                              const std::map<Symbol, Relation>& saved) {
  // The rows go back by appending, so every stamp moves forward: a CSR or
  // statistics entry built during the failed run, keyed by (uid,
  // data_generation, size), can never match the restored relation or a
  // later state of it.
  for (const auto& [p, rows] : saved) {
    // The engine's rollback leaves a cleared head in place and empty.
    if (Relation* rel = db->FindMutable(p)) rel->AdoptRows(rows);
  }
  // A relation that held its recorded rows before the refresh and is back
  // at its recorded size holds them again (the engine only appends to and
  // truncates heads), under a newer stamp: record it, so the next refresh
  // classifies from the same base states as this one. Any other mismatch
  // stays and forces a full refresh.
  for (auto& [p, st] : v->idb_state) {
    auto it = saved.find(p);
    if (it != saved.end()) {
      const Relation& old = it->second;
      const RelationState was{true, old.uid(), old.data_generation(),
                              old.size()};
      if (was != st) continue;
    }
    const RelationState cur = StateOf(*db, p);
    if (cur.exists && cur.uid == st.uid && cur.size == st.size) st = cur;
  }
}

void ViewCatalog::FinishRefresh(View* v, const ViewStats& event,
                                uint64_t rows, uint64_t t0,
                                const Database& db,
                                obs::MetricsRegistry* metrics) {
  obs::FoldCounters(kViewCounters, event, &v->stats);
  RecordStates(v, db);
  if (metrics != nullptr) {
    obs::ExportCounters(kViewCounters, event, metrics);
    metrics->histogram("view.refresh_rows")
        ->Observe(static_cast<int64_t>(rows));
    metrics->histogram("view.refresh_ns")
        ->Observe(static_cast<int64_t>(obs::NowNs() - t0));
  }
}

void ViewCatalog::RecordStates(View* v, const Database& db) {
  v->edb_state.clear();
  v->idb_state.clear();
  for (Symbol p : v->def.edb_predicates) {
    v->edb_state.emplace(p, StateOf(db, p));
  }
  for (Symbol p : v->def.idb_predicates) {
    v->idb_state.emplace(p, StateOf(db, p));
  }
  uint64_t rows = 0;
  for (Symbol p : v->def.result_predicates) {
    const Relation* rel = db.Find(p);
    if (rel != nullptr) rows += rel->size();
  }
  v->stats.result_rows = rows;
  v->stats.fresh = true;
}

bool ViewCatalog::TryServe(const std::string& canonical_key, Database* db,
                           obs::MetricsRegistry* metrics,
                           const gov::GovernorContext* governor,
                           QueryResponse* resp) {
  for (View& v : views_) {
    if (v.def.canonical_key != canonical_key) continue;
    if (db->uid() != db_uid_) return false;
    // A failed refresh falls back to normal evaluation (the caller will
    // then write into the view's relations, which Classify() detects and
    // answers with a full refresh next time).
    if (!RefreshView(&v, db, metrics, governor, false).ok()) return false;
    resp->stats.datalog = v.accumulated;
    resp->stats.programs = v.def.program;
    resp->stats.graphs_translated = v.def.graphs;
    uint64_t rows = 0;
    for (Symbol p : v.def.result_predicates) {
      const Relation* rel = db->Find(p);
      if (rel != nullptr) rows += rel->size();
    }
    resp->stats.result_tuples = rows;
    resp->served_from_view = true;
    resp->explain =
        "served from materialized view '" + v.def.name + "'\n";
    const ViewStats served{.served = 1};
    obs::FoldCounters(kViewCounters, served, &v.stats);
    obs::ExportCounters(kViewCounters, served, metrics);
    v.stats.result_rows = rows;
    return true;
  }
  return false;
}

std::vector<std::string> ViewCatalog::Names() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const View& v : views_) out.push_back(v.def.name);
  return out;
}

const ViewDefinition* ViewCatalog::Find(std::string_view name) const {
  for (const View& v : views_) {
    if (v.def.name == name) return &v.def;
  }
  return nullptr;
}

ViewStats ViewCatalog::StatsOf(std::string_view name,
                               const Database* db) const {
  for (const View& v : views_) {
    if (v.def.name != name) continue;
    ViewStats s = v.stats;
    if (db != nullptr) {
      std::map<Symbol, size_t> scratch;
      s.fresh = Classify(v, *db, &scratch) == RefreshKind::kFresh;
    }
    return s;
  }
  return ViewStats{};
}

}  // namespace graphlog::cache
