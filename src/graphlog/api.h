// The unified query API: one request in, one response out.
//
// Historically the front door was a sprawl of overloads —
// gl::EvaluateGraphicalQuery(.., EvalOptions) / (.., GraphLogOptions),
// gl::EvaluateGraphLogText, eval::EvaluateText — with two parallel options
// structs. This header replaces all of them with a single entry point:
//
//   QueryRequest req = QueryRequest::GraphLog(text);
//   req.options.eval.num_threads = 4;
//   req.options.observability.tracing = true;
//   GRAPHLOG_ASSIGN_OR_RETURN(QueryResponse resp, Run(req, &db));
//   // resp.stats, resp.trace.ToJson(), resp.explain
//
// A request names the query (GraphLog surface text, a parsed
// GraphicalQuery, or raw Datalog text) and carries every knob in one
// nested QueryOptions; the response carries the stats (the query's one
// counter record), the observability artifacts (span tree, see
// obs/trace.h), and the EXPLAIN rendering when requested. The deprecated free-function sprawl is gone.
//
// For concurrent callers, the server layer (server/server.h, re-exported
// at the bottom of this header so one include is the whole public
// surface) wraps the same pipeline in Server/Session handles with
// epoch-snapshot isolation; Run() itself is a thin wrapper over a
// single-session in-process server.

#ifndef GRAPHLOG_GRAPHLOG_API_H_
#define GRAPHLOG_GRAPHLOG_API_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "eval/engine.h"
#include "graphlog/query_graph.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "storage/database.h"

namespace graphlog {

namespace cache {
class ResultCache;       // cache/result_cache.h
class ViewCatalog;       // cache/view_catalog.h
struct ViewDefinition;   // cache/view_catalog.h
}  // namespace cache

namespace gl {

/// \brief Statistics for one query evaluation: the query's only counter
/// record. The slow-query log's stats are derived from it; the trace
/// keeps spans only.
struct QueryStats {
  eval::EvalStats datalog;       ///< accumulated Datalog engine stats
  uint64_t graphs_translated = 0;
  uint64_t graphs_summarized = 0;
  uint64_t result_tuples = 0;    ///< tuples across all IDB predicates
  /// Every rule the query translated to (in evaluation order) — the rule
  /// universe that provenance justifications index into.
  datalog::Program programs;
};

}  // namespace gl

/// \brief Every knob of a query evaluation, in one place.
///
/// The former gl::GraphLogOptions / eval::EvalOptions split is merged
/// here: engine knobs (strategy, num_threads, provenance, ...) live under
/// `eval`, translation-time rewrites under `translation`, and the
/// observability layer under `observability`.
struct QueryOptions {
  /// Datalog engine knobs (eval/engine.h); `eval.tracer` is managed by
  /// Run() when `observability.tracing` is set. `eval.governor` is the
  /// query governor (gov/governor.h): set it to bound the query by a
  /// cancellation token, a deadline, and resource budgets — Run() threads
  /// it into every fixpoint loop and checks it between query graphs, and
  /// governed aborts surface as kCancelled / kDeadlineExceeded /
  /// kBudgetExceeded with the Database rolled back per engine run.
  eval::EvalOptions eval;

  struct Translation {
    /// Apply the bound-closure (magic-TC) specialization of
    /// translate/magic_tc.h to each translated graph: closures whose
    /// every use fixes an endpoint constant evaluate as seeded
    /// reachability instead of full closure materialization (the
    /// Figure 12 win).
    bool specialize_bound_closures = false;
  } translation;

  struct Observability {
    /// Record a hierarchical span tree (parse -> translate -> stratify ->
    /// per-stratum fixpoint rounds -> summarize) into
    /// QueryResponse::trace. Off by default; the disabled path costs
    /// one pointer test per instrumentation site.
    bool tracing = false;
    /// Render the translated program, stratum order, and chosen join
    /// plans into QueryResponse::explain before execution. Join-plan
    /// lines of rules in strata above already-materialized IDBs are
    /// labeled "(pre-run)": their estimates cannot see the lower strata's
    /// results yet; EXPLAIN ANALYZE (`profile`) reports the post-run
    /// actuals.
    bool explain = false;
    /// EXPLAIN ANALYZE: fill QueryResponse::profile with plan-level
    /// execution counters — per rule, per plan step (atom), and per
    /// fixpoint round: probes issued, rows matched, dedup-rejected rows,
    /// estimated vs actual cardinality, CSR-vs-row-path served counts,
    /// and per-rule wall-clock. The logical sections are bit-identical
    /// across num_threads and columnar on/off; with `explain` also set,
    /// the text rendering is appended to QueryResponse::explain. Off by
    /// default (zero overhead). See obs/profile.h.
    bool profile = false;
    /// With `explain`: stop after planning — parse, validate, translate,
    /// and plan, but do not execute. The response carries no stats.
    bool explain_only = false;
    /// When set, Run() folds cumulative process-wide metrics into this
    /// registry: `query.runs` / `query.errors` / `query.result_tuples`
    /// counters, the `query.duration_ns` wall-clock histogram (a timing
    /// metric — excluded from the deterministic snapshot projection) and
    /// the engine/kernel counters (threaded through eval.metrics). The
    /// `db.*` and `cache.*` gauges are levels their owner exports on
    /// demand, never a run. Null (the default) is the zero-overhead path.
    /// See obs/metrics.h.
    obs::MetricsRegistry* metrics = nullptr;
    /// When `slow_query_log` is set and a query's wall-clock time reaches
    /// `slow_query_threshold_ns`, Run() captures the request text, the
    /// EXPLAIN rendering (forced on internally; the response's `explain`
    /// stays empty unless the caller asked for it), the stats, and — when
    /// tracing is on — the trace JSON into the log's bounded ring.
    /// Failed queries past the threshold are captured too, with the error.
    /// Governed aborts (kCancelled / kDeadlineExceeded / kBudgetExceeded)
    /// are always captured when a log is set, regardless of the
    /// threshold; with a zero threshold they are the only entries.
    /// See obs/slow_query_log.h.
    uint64_t slow_query_threshold_ns = 0;
    obs::SlowQueryLog* slow_query_log = nullptr;
    /// Attribution fields stamped into slow-query records: the session
    /// name and server epoch the query ran under. Session::Run fills
    /// them; they stay empty/zero for direct graphlog::Run calls, which
    /// run against the caller's Database.
    std::string session;
    uint64_t server_epoch = 0;
  } observability;

  struct Cache {
    /// When set, Run() first looks the request up in this cache and, on a
    /// hit, returns the recorded response (bit-identical to recomputation
    /// at any num_threads) without evaluating; on a miss the finished
    /// response is recorded, keyed by the canonical query fingerprint and
    /// invalidated by per-relation generation counters. Bypassed when
    /// `eval.provenance` is set (a served hit cannot populate a
    /// ProvenanceStore) and for explain_only requests. Truncated
    /// (return_partial) responses are never recorded or served, and cache
    /// lookups charge no governor budget. See cache/result_cache.h.
    cache::ResultCache* result_cache = nullptr;
    /// When set, a GraphLog request whose canonical fingerprint matches a
    /// defined materialized view is answered from the view's relations
    /// (refreshing it first when base facts changed — incrementally when
    /// possible). Same bypass rules as `result_cache`. See
    /// cache/view_catalog.h.
    cache::ViewCatalog* views = nullptr;
  } cache;
};

/// \brief One query to run: the text (or pre-parsed graph) plus options.
struct QueryRequest {
  enum class Language : uint8_t {
    kGraphLog,  ///< GraphLog surface syntax (graphlog/parser.h)
    kDatalog,   ///< raw Datalog program text (datalog/parser.h)
  };

  Language language = Language::kGraphLog;
  std::string text;
  /// When set, evaluated instead of `text` (language must be kGraphLog).
  const gl::GraphicalQuery* graphical = nullptr;
  QueryOptions options;

  static QueryRequest GraphLog(std::string query_text) {
    QueryRequest req;
    req.language = Language::kGraphLog;
    req.text = std::move(query_text);
    return req;
  }
  static QueryRequest Datalog(std::string program_text) {
    QueryRequest req;
    req.language = Language::kDatalog;
    req.text = std::move(program_text);
    return req;
  }
  static QueryRequest Graphical(const gl::GraphicalQuery& q) {
    QueryRequest req;
    req.language = Language::kGraphLog;
    req.graphical = &q;
    return req;
  }
};

/// \brief Everything a query evaluation produced.
struct QueryResponse {
  gl::QueryStats stats;
  /// Span tree; empty unless options.observability.tracing.
  /// `trace.ToJson(false)` is byte-identical across num_threads settings.
  obs::TraceReport trace;
  /// EXPLAIN rendering; empty unless options.observability.explain.
  std::string explain;
  /// EXPLAIN ANALYZE profile; empty unless options.observability.profile.
  /// `profile.ToJson(false)` — the logical projection — is byte-identical
  /// across num_threads and columnar on/off. Cached responses carry the
  /// profile recorded by the run that populated the entry.
  obs::QueryProfile profile;
  /// True when a governed query stopped early on a resource-budget trip
  /// with ResourceBudget::return_partial set: the materialized relations
  /// hold a deterministic partial fixpoint (bit-identical across
  /// num_threads), and query graphs after the tripping one were not run.
  bool truncated = false;
  /// Which budget tripped and where; empty unless `truncated`.
  std::string truncated_by;
  /// True when the response was served by QueryOptions::cache.result_cache
  /// instead of evaluation. Stats/explain/trace are those recorded by the
  /// run that populated the entry.
  bool cache_hit = false;
  /// True when the response was answered from a materialized view
  /// (QueryOptions::cache.views). Stats are the view's accumulated
  /// materialization stats; result_tuples reflects the current view size.
  bool served_from_view = false;
};

/// \brief Evaluates `req` against `db`, materializing each IDB predicate
/// (including translation auxiliaries) as a relation. The query
/// pipeline: cache / view serving, parse -> validate -> order query
/// graphs -> per graph, lambda-translate (Definition 2.4) and run the
/// stratified engine or the path-summarization operator (Section 4),
/// then metrics and slow-log capture. A columnar request without a CSR
/// cache gets one for the request.
///
/// The single-caller front door; Session::Run calls it on the session's
/// private database after filling the session's defaults. Concurrent
/// callers should hold a Server and open a Session per thread instead
/// (server/server.h).
Result<QueryResponse> Run(const QueryRequest& req, storage::Database* db);

/// \brief Builds a materialized-view definition named `name` from a
/// GraphLog query: parses and validates `text`, orders and
/// lambda-translates every query graph into one combined program, and
/// records the canonical fingerprint under which Run() will serve the
/// view. The view's output is the last graph's distinguished predicate.
/// Summarization graphs are rejected (the Section 4 operator has no
/// incremental maintenance story). Install the result with
/// cache::ViewCatalog::Define. `translation` applies the same rewrites
/// Run() would (so the fingerprint matches equally-configured requests).
Result<cache::ViewDefinition> MakeViewDefinition(
    std::string name, std::string text, storage::Database* db,
    const QueryOptions& options = {});

}  // namespace graphlog

// Re-export the server layer: including graphlog/api.h is the whole
// public surface. server/server.h only needs declarations above this
// line, and its own include of this header is satisfied by the guard in
// either inclusion order.
#include "server/server.h"

#endif  // GRAPHLOG_GRAPHLOG_API_H_
