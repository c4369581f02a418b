#include "cache/view_catalog.h"

#include <utility>

#include "datalog/analysis.h"
#include "eval/compiled_rule.h"
#include "obs/trace.h"

namespace graphlog::cache {

using datalog::Program;
using storage::Database;
using storage::Relation;
using storage::Tuple;

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
  GRAPHLOG_RETURN_NOT_OK(FullRefresh(&v, db, metrics));
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
    if (v.def.name == name) return RefreshView(&v, db, metrics, force_full);
  }
  return Status::NotFound("no view named '" + std::string(name) + "'");
}

Status ViewCatalog::RefreshAll(Database* db, obs::MetricsRegistry* metrics) {
  for (View& v : views_) {
    GRAPHLOG_RETURN_NOT_OK(RefreshView(&v, db, metrics, false));
  }
  return Status::OK();
}

Status ViewCatalog::RefreshView(View* v, Database* db,
                                obs::MetricsRegistry* metrics,
                                bool force_full) {
  if (db->uid() != db_uid_) {
    return Status::InvalidArgument(
        "view catalog is bound to a different database");
  }
  std::map<Symbol, size_t> delta_from;
  const RefreshKind kind =
      force_full ? RefreshKind::kFull : Classify(*v, *db, &delta_from);
  switch (kind) {
    case RefreshKind::kFresh:
      return Status::OK();
    case RefreshKind::kIncremental:
      return IncrementalRefresh(v, db, delta_from, metrics);
    case RefreshKind::kFull:
      return FullRefresh(v, db, metrics);
  }
  return Status::OK();
}

ViewCatalog::RefreshKind ViewCatalog::Classify(
    const View& v, const Database& db,
    std::map<Symbol, size_t>* delta_from) const {
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
    (*delta_from)[p] = st.size;
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

Status ViewCatalog::FullRefresh(View* v, Database* db,
                                obs::MetricsRegistry* metrics) {
  const uint64_t t0 = obs::NowNs();
  for (Symbol p : v->def.idb_predicates) {
    if (Relation* rel = db->FindMutable(p)) rel->Clear();
  }
  GRAPHLOG_ASSIGN_OR_RETURN(
      eval::EvalStats es, eval::Evaluate(v->def.program, db, v->def.eval));
  v->accumulated.Merge(es);
  v->materialized = true;
  FinishRefresh(v, ViewStats{.full_refreshes = 1}, es.tuples_derived, t0,
                *db, metrics);
  return Status::OK();
}

Status ViewCatalog::IncrementalRefresh(
    View* v, Database* db, const std::map<Symbol, size_t>& delta_from,
    obs::MetricsRegistry* metrics) {
  const uint64_t t0 = obs::NowNs();
  const SymbolTable& syms = db->symbols();
  const Program& prog = v->def.program;
  GRAPHLOG_ASSIGN_OR_RETURN(datalog::Stratification strat,
                            datalog::Stratify(prog, syms));

  // Delta relations: the insertion-order suffix each changed base
  // relation gained since the last refresh. Lower strata append their
  // own growth here for the strata above.
  std::map<Symbol, Relation> changed;
  for (const auto& [p, from] : delta_from) {
    const Relation* rel = db->Find(p);
    Relation d(rel->arity());
    for (size_t i = from; i < rel->size(); ++i) d.Insert(rel->row(i));
    changed.emplace(p, std::move(d));
  }

  uint64_t novel_total = 0, rounds = 0, firings = 0;
  eval::CardinalityFn card;
  if (v->def.eval.cardinality_join_ordering) {
    card = eval::MakeDbCardinality(db);
  }

  for (const auto& group : strat.rule_groups) {
    std::map<int, eval::CompiledRule> compiled;
    std::map<Symbol, size_t> head_pre;  // pre-refresh sizes of local heads
    for (int i : group) {
      GRAPHLOG_ASSIGN_OR_RETURN(
          eval::CompiledRule c,
          eval::CompiledRule::Compile(prog.rules[i], syms, card));
      compiled.emplace(i, std::move(c));
      GRAPHLOG_ASSIGN_OR_RETURN(
          Relation * rel,
          db->Declare(prog.rules[i].head.predicate,
                      prog.rules[i].head.arity()));
      head_pre.emplace(prog.rules[i].head.predicate, rel->size());
    }

    // Round 1 substitutes the external deltas (grown bases and lower
    // strata); later rounds this stratum's own growth — classic
    // semi-naive, seeded from the delta instead of the full extension.
    // The delta-substituted occurrence joins against *current* (old plus
    // new) state everywhere else, which over-enumerates combinations of
    // old rows already derived — dedup absorbs those — but covers every
    // combination involving at least one new row.
    const std::map<Symbol, Relation>* source = &changed;
    std::map<Symbol, Relation> frontier;
    while (true) {
      struct Task {
        int rule;
        Symbol pred;
        int occ;
      };
      std::vector<Task> tasks;
      for (int i : group) {
        const eval::CompiledRule& c = compiled.at(i);
        for (const auto& [p, d] : *source) {
          if (d.empty()) continue;
          for (int occ : c.OccurrencesOf(p)) {
            if (c.has_aggregates()) {
              // IncrementalSafe() bars aggregate rules from reading any
              // changed predicate; reaching here means the safety pass
              // and the execution pass disagree.
              return Status::Internal(
                  "incremental view maintenance reached an aggregate rule");
            }
            tasks.push_back({i, p, occ});
          }
        }
      }
      if (tasks.empty()) break;
      ++rounds;
      std::map<Symbol, Relation> next;
      for (const auto& [h, _] : head_pre) {
        next.emplace(h, Relation(db->Find(h)->arity()));
      }
      size_t added = 0;
      for (const Task& task : tasks) {
        const eval::CompiledRule& c = compiled.at(task.rule);
        const std::map<Symbol, Relation>& deltas = *source;
        eval::RelationResolver resolver =
            [&deltas, db, &task](Symbol pred,
                                 int occurrence) -> const Relation* {
          if (pred == task.pred && occurrence == task.occ) {
            auto it = deltas.find(pred);
            return it == deltas.end() ? nullptr : &it->second;
          }
          return db->Find(pred);
        };
        // Buffer derivations: the plan may read the very head relation
        // it grows (self-joins), and Insert invalidates live probes.
        std::vector<Tuple> derived;
        c.Execute(resolver, [&](const std::vector<Value>& slots) {
          ++firings;
          derived.push_back(c.EmitHead(slots));
        });
        Relation* head_rel = db->FindMutable(c.head_predicate());
        Relation* next_rel = &next.at(c.head_predicate());
        for (Tuple& t : derived) {
          if (head_rel->Insert(t)) {
            ++added;
            next_rel->Insert(std::move(t));
          }
        }
      }
      novel_total += added;
      frontier = std::move(next);
      source = &frontier;
      if (added == 0) break;
    }

    // This stratum's growth is the delta the strata above maintain from.
    for (const auto& [h, pre] : head_pre) {
      const Relation* rel = db->Find(h);
      if (rel->size() <= pre) continue;
      Relation d(rel->arity());
      for (size_t i = pre; i < rel->size(); ++i) d.Insert(rel->row(i));
      changed.insert_or_assign(h, std::move(d));
    }
  }

  eval::EvalStats es;
  es.iterations = rounds;
  es.rule_firings = firings;
  es.tuples_derived = novel_total;
  v->accumulated.Merge(es);
  FinishRefresh(v, ViewStats{.incremental_refreshes = 1}, novel_total, t0,
                *db, metrics);
  return Status::OK();
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
                           QueryResponse* resp) {
  for (View& v : views_) {
    if (v.def.canonical_key != canonical_key) continue;
    if (db->uid() != db_uid_) return false;
    // A failed refresh falls back to normal evaluation (the caller will
    // then write into the view's relations, which Classify() detects and
    // answers with a full refresh next time).
    if (!RefreshView(&v, db, metrics, false).ok()) return false;
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
