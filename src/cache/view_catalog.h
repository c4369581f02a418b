// ViewCatalog: named materialized views over GraphLog queries, kept
// consistent with the base facts by incremental maintenance.
//
// A view is a lambda-translated GraphLog query whose IDB predicates
// (distinguished + translation auxiliaries) are materialized in the
// Database and whose base-relation states are tracked with the same
// (uid, data_generation, size) quadruples the result cache uses. When
// base facts change, Refresh() picks the cheapest sound maintenance
// path:
//
//   * incremental — when every changed base relation only *grew*
//     (detected by data_generation delta == size delta, so the new rows
//     are exactly the insertion-order suffix) and no affected stratum
//     contains negation or aggregation: eval::EvaluateGrowth extends the
//     materialized fixpoint from those suffixes on the same engine as a
//     full refresh (lanes, governor, metrics), so the maintained view is
//     set-equal to a from-scratch evaluation.
//   * full — otherwise (shrunk/replaced base, tampered view output, or
//     deletion-sensitive operators in an affected stratum): the view's
//     IDB relations are cleared and the program re-evaluated.
//
// The negation/aggregation fallback is decided *before* any mutation by
// a static pass over the stratification: starting from the changed base
// predicates, strata whose rules read a (transitively) changed predicate
// are potentially affected; if any of their rules negates a subgoal or
// aggregates in the head, insertion deltas can retract derived tuples
// and only full recomputation is sound.
//
// A refresh that fails (an error, or a governed abort: cancellation,
// deadline, a budget trip, an injected fault) puts the view's rows back
// exactly as they were, in the same order; only an ungoverned full
// refresh, which can fail only on an engine error, leaves them empty
// for the next (full) refresh. Stamps only move forward, so no cache
// keyed by (uid, data_generation, size) can match a state the failed
// run passed through, and the next refresh starts from the same base
// states.
//
// Serving: graphlog::Run() matches a request's canonical fingerprint
// (cache/fingerprint.h) against the catalog, refreshes the view if
// stale under the request's governor and metrics, and answers from the
// materialized distinguished relation.
//
// A catalog is bound to one Database (symbols and uids are meaningless
// across databases); Define() records the database uid and every other
// operation checks it.

#ifndef GRAPHLOG_CACHE_VIEW_CATALOG_H_
#define GRAPHLOG_CACHE_VIEW_CATALOG_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_cache.h"
#include "datalog/ast.h"
#include "eval/engine.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace graphlog::cache {

/// \brief A view's static definition; build with graphlog::
/// MakeViewDefinition (the parse/validate/translate half lives in the
/// front-door library so this one depends only on datalog + eval).
struct ViewDefinition {
  std::string name;
  std::string source_text;    ///< the defining GraphLog query text
  /// Canonical fingerprint (CanonicalQueryKey) under which Run() serves
  /// this view; captures the translation/eval options baked into
  /// `program` and `eval`.
  std::string canonical_key;
  /// The combined translated program, query graphs in topological order.
  datalog::Program program;
  Symbol distinguished = kNoSymbol;     ///< the view's output predicate
  std::vector<Symbol> idb_predicates;   ///< all head preds (incl. aux)
  std::vector<Symbol> edb_predicates;   ///< base preds the program reads
  /// Distinguished predicates of every query graph — what Run() counts
  /// as result_tuples (matches RunGraphLog's IdbPredicates sum).
  std::vector<Symbol> result_predicates;
  uint64_t graphs = 0;                  ///< query graphs translated
  /// Engine options used for (re)materialization. Observability members
  /// (tracer/metrics/governor) are not retained by the catalog.
  eval::EvalOptions eval;
};

/// \brief Per-view maintenance counters and freshness.
struct ViewStats {
  uint64_t full_refreshes = 0;         ///< incl. the Define() one
  uint64_t incremental_refreshes = 0;
  uint64_t served = 0;                 ///< queries answered by this view
  uint64_t result_rows = 0;            ///< distinguished relation size
  bool fresh = false;                  ///< deps unchanged since last refresh
};

/// \brief The counters of ViewStats, listed once: each refresh or serve
/// folds into the view's stats and exports to the registry from this
/// list. A refresh's rows and wall-clock go to the `view.refresh_rows` /
/// `view.refresh_ns` distributions only.
inline constexpr obs::CounterField<ViewStats> kViewCounters[] = {
    {"view.refreshes_full", &ViewStats::full_refreshes},
    {"view.refreshes_incremental", &ViewStats::incremental_refreshes},
    {"view.served", &ViewStats::served},
};

class ViewCatalog {
 public:
  ViewCatalog() = default;
  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// \brief Installs `def` and fully materializes it against `db`.
  /// Replaces an existing view of the same name; fails when another view
  /// already owns one of the definition's IDB predicates (two views may
  /// not write the same relations). `metrics`, when set, receives the
  /// view.* instruments.
  Status Define(ViewDefinition def, storage::Database* db,
                obs::MetricsRegistry* metrics = nullptr);

  /// \brief Forgets the view (its materialized relations stay in the
  /// database; they are ordinary relations). Returns false when unknown.
  bool Drop(std::string_view name);

  /// \brief Refreshes one view: no-op when fresh, incremental when the
  /// base delta is grow-only and maintenance-safe, full otherwise (or
  /// when `force_full`).
  Status Refresh(std::string_view name, storage::Database* db,
                 obs::MetricsRegistry* metrics = nullptr,
                 bool force_full = false);

  /// \brief Refreshes every stale view (definition order).
  Status RefreshAll(storage::Database* db,
                    obs::MetricsRegistry* metrics = nullptr);

  /// \brief Serves a request whose canonical fingerprint is
  /// `canonical_key`: refreshes the matching view if stale (under the
  /// request's `metrics` and `governor`), then fills `*resp`
  /// (served_from_view, accumulated materialization stats, result_tuples
  /// = view size). Returns false when no view matches or its refresh
  /// failed.
  bool TryServe(const std::string& canonical_key, storage::Database* db,
                obs::MetricsRegistry* metrics,
                const gov::GovernorContext* governor, QueryResponse* resp);

  /// \brief View names in definition order.
  std::vector<std::string> Names() const;
  const ViewDefinition* Find(std::string_view name) const;
  /// \brief Stats of `name` (freshness recomputed against `db` when
  /// given); nullopt-like default when unknown.
  ViewStats StatsOf(std::string_view name,
                    const storage::Database* db = nullptr) const;
  size_t size() const { return views_.size(); }

 private:
  struct View {
    ViewDefinition def;
    /// Base-relation states at last refresh, keyed by predicate.
    std::map<Symbol, RelationState> edb_state;
    /// View-output states at last refresh; a mismatch (someone else wrote
    /// into our relations) forces a full refresh.
    std::map<Symbol, RelationState> idb_state;
    /// Stats of the Define() materialization merged with every refresh —
    /// the cumulative cost of keeping the view, reported on serves.
    eval::EvalStats accumulated;
    ViewStats stats;
    bool materialized = false;
  };

  /// Classifies the work a refresh needs.
  enum class RefreshKind { kFresh, kIncremental, kFull };
  /// Decides the refresh kind and, for kIncremental, the size each
  /// changed base relation had at the last refresh (its new rows are the
  /// suffix from there).
  RefreshKind Classify(const View& v, const storage::Database& db,
                       std::map<Symbol, size_t>* grown_from) const;

  /// Runs a full (kFull) or incremental (kIncremental, from
  /// `grown_from`) refresh on the engine under `metrics` and `governor`;
  /// on failure puts the view's rows back (see the file comment).
  Status Materialize(View* v, storage::Database* db, RefreshKind kind,
                     const std::map<Symbol, size_t>& grown_from,
                     obs::MetricsRegistry* metrics,
                     const gov::GovernorContext* governor);
  /// After a failed refresh: appends the `saved` rows of a governed full
  /// refresh back into the cleared relations and re-records the view's
  /// states.
  void RestoreRows(View* v, storage::Database* db,
                   const std::map<Symbol, storage::Relation>& saved);
  /// True when the insertion-only delta of `changed` preds can be
  /// maintained without full recomputation (no negation/aggregation in
  /// any transitively affected stratum).
  bool IncrementalSafe(const View& v, const storage::Database& db,
                       const std::set<Symbol>& changed) const;
  void RecordStates(View* v, const storage::Database& db);
  /// Books a finished refresh of kind `event` (one kViewCounters count)
  /// that derived `rows` tuples since `t0`, and records v's new states.
  void FinishRefresh(View* v, const ViewStats& event, uint64_t rows,
                     uint64_t t0, const storage::Database& db,
                     obs::MetricsRegistry* metrics);
  Status RefreshView(View* v, storage::Database* db,
                     obs::MetricsRegistry* metrics,
                     const gov::GovernorContext* governor, bool force_full);

  std::vector<View> views_;  // definition order
  uint64_t db_uid_ = 0;      // bound database; 0 = not bound yet
};

}  // namespace graphlog::cache

#endif  // GRAPHLOG_CACHE_VIEW_CATALOG_H_
