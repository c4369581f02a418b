#include "graphlog/api.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "aggr/path_summary.h"
#include "cache/fingerprint.h"
#include "cache/result_cache.h"
#include "cache/view_catalog.h"
#include "columnar/csr_cache.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/compiled_rule.h"
#include "eval/provenance.h"
#include "gov/governor.h"
#include "graphlog/parser.h"
#include "graphlog/translate.h"
#include "translate/magic_tc.h"

namespace graphlog {

using datalog::Term;
using gl::GraphicalQuery;
using gl::PathSummarySpec;
using gl::QueryGraph;
using gl::QueryNode;
using gl::QueryStats;
using gl::Translation;
using storage::Database;
using storage::Relation;
using storage::Tuple;

namespace {

/// Orders graphs so every graph runs after all graphs defining the IDB
/// predicates it uses (Kahn's algorithm over the graph-level dependence;
/// acyclicity was validated).
Result<std::vector<int>> TopoOrderGraphs(const GraphicalQuery& q) {
  std::vector<Symbol> idb_list = q.IdbPredicates();
  std::set<Symbol> idb(idb_list.begin(), idb_list.end());

  // Predicates used by each graph.
  auto deps = DependenceEdges(q);
  std::map<Symbol, std::set<Symbol>> uses;  // head -> used IDB preds
  for (const auto& [from, to] : deps) {
    if (idb.count(from) > 0) uses[to].insert(from);
  }

  std::vector<int> order;
  std::set<Symbol> done_preds;
  std::vector<bool> emitted(q.graphs.size(), false);
  // A predicate is done when all graphs defining it have run.
  while (order.size() < q.graphs.size()) {
    bool progress = false;
    // First emit every ready graph.
    for (size_t i = 0; i < q.graphs.size(); ++i) {
      if (emitted[i]) continue;
      const std::set<Symbol>& u = uses[q.graphs[i].distinguished.predicate];
      bool ready = std::all_of(u.begin(), u.end(), [&](Symbol p) {
        return done_preds.count(p) > 0;
      });
      if (ready) {
        emitted[i] = true;
        order.push_back(static_cast<int>(i));
        progress = true;
      }
    }
    // Then mark fully-defined predicates done.
    for (Symbol p : idb) {
      if (done_preds.count(p) > 0) continue;
      bool all = true;
      for (size_t i = 0; i < q.graphs.size(); ++i) {
        if (q.graphs[i].distinguished.predicate == p && !emitted[i]) {
          all = false;
          break;
        }
      }
      if (all) done_preds.insert(p);
    }
    if (!progress) {
      return Status::CyclicDependence(
          "could not order query graphs (cyclic dependence)");
    }
  }
  return order;
}

/// Evaluates a summarization graph (Section 4).
Status RunSummaryGraph(const QueryGraph& g, Database* db,
                       const gov::GovernorContext* governor,
                       QueryStats* stats) {
  const PathSummarySpec& spec = *g.summary;
  const SymbolTable& syms = db->symbols();

  if (!g.edges.empty() || !g.constraints.empty()) {
    return Status::Unsupported(
        "a summarization query graph may contain only the summarized "
        "distinguished edge");
  }
  const QueryNode& from = g.nodes[g.distinguished.from];
  const QueryNode& to = g.nodes[g.distinguished.to];
  if (from.arity() != 1 || to.arity() != 1) {
    return Status::Unsupported(
        "summarization endpoints must be single-variable nodes");
  }
  if (g.distinguished.params.size() != 1 ||
      g.distinguished.params[0].is_aggregate ||
      !g.distinguished.params[0].term.is_variable() ||
      g.distinguished.params[0].term.var() != spec.output_var) {
    return Status::InvalidArgument(
        "summarized distinguished edge must carry exactly the output "
        "variable as its parameter");
  }

  const Relation* base = db->Find(spec.base.predicate);
  if (base == nullptr) {
    return Status::NotFound("summarization base relation '" +
                            syms.name(spec.base.predicate) +
                            "' does not exist");
  }
  if (base->arity() != 2 + spec.base.params.size()) {
    return Status::ArityMismatch(
        "summarization base literal arity mismatch for '" +
        syms.name(spec.base.predicate) + "'");
  }

  // Restrict the base by any constant parameters, and locate the weight
  // column (the summed variable's position).
  uint32_t weight_col = 0;
  Relation filtered(base->arity());
  const Relation* effective = base;
  bool need_filter = false;
  for (size_t i = 0; i < spec.base.params.size(); ++i) {
    if (spec.base.params[i].is_constant()) need_filter = true;
  }
  if (need_filter) {
    for (const Tuple& t : base->rows()) {
      bool keep = true;
      for (size_t i = 0; i < spec.base.params.size(); ++i) {
        const Term& p = spec.base.params[i];
        if (p.is_constant() && !(t[2 + i] == p.value())) {
          keep = false;
          break;
        }
      }
      if (keep) filtered.Insert(t);
    }
    effective = &filtered;
  }
  for (size_t i = 0; i < spec.base.params.size(); ++i) {
    const Term& p = spec.base.params[i];
    if (p.is_variable() && p.var() == spec.value_var) {
      weight_col = static_cast<uint32_t>(2 + i);
    }
  }

  aggr::PathSummaryOptions options;
  options.along = spec.along;
  options.across = spec.across;
  options.weight_column = weight_col;
  GRAPHLOG_ASSIGN_OR_RETURN(Relation summary,
                            aggr::PathSummarize(*effective, options, governor));

  // Materialize under the distinguished predicate, honoring constant
  // endpoints (e.g. `distinguished "source" -> T : dist(E)`).
  GRAPHLOG_ASSIGN_OR_RETURN(
      Relation * out, db->Declare(g.distinguished.predicate, 3));
  const Term& from_t = from.label[0];
  const Term& to_t = to.label[0];
  if (out->empty() && !from_t.is_constant() && !to_t.is_constant()) {
    // A fresh head without endpoint filters takes the duplicate-free
    // summary whole, in its order, without re-hashing it.
    stats->datalog.tuples_derived += summary.size();
    out->AdoptRows(summary);
  } else {
    for (const Tuple& t : summary.rows()) {
      if (from_t.is_constant() && !(t[0] == from_t.value())) continue;
      if (to_t.is_constant() && !(t[1] == to_t.value())) continue;
      if (out->Insert(t)) ++stats->datalog.tuples_derived;
    }
  }
  ++stats->graphs_summarized;
  return Status::OK();
}

/// Renders one translated program for EXPLAIN: the rules (numbered in the
/// provenance rule universe), the stratum order, and the join plan each
/// rule would compile to against the *current* relation statistics. A
/// stratum with a closure served by the TC kernel (eval::PlanStratum)
/// also lists its component order, and the served rules name the kernel
/// instead of a join plan. Rules in strata above the first, or after a
/// served component, plan against IDBs the run has not materialized yet
/// — those lines are labeled "(pre-run)"; the per-stratum trace notes
/// record the plans actually chosen at execution time, and EXPLAIN
/// ANALYZE (observability.profile) reports the post-stratum actuals per
/// atom.
std::string RenderProgramExplain(const datalog::Program& prog,
                                 size_t rule_offset, eval::Strategy strategy,
                                 Database* db) {
  const SymbolTable& syms = db->symbols();
  auto rule_id = [&](int i) {
    return std::to_string(rule_offset + static_cast<size_t>(i));
  };
  std::string out = "  program:\n";
  for (size_t i = 0; i < prog.rules.size(); ++i) {
    out += "    [" + rule_id(static_cast<int>(i)) + "] " +
           prog.rules[i].ToString(syms) + "\n";
  }
  auto strat = datalog::Stratify(prog, syms);
  if (!strat.ok()) {
    return out + "  stratification: " + strat.status().ToString() + "\n";
  }
  out += "  stratification: " + std::to_string(strat->num_strata) +
         " strata\n";
  std::set<int> pre_run;  // rules planned before their inputs exist
  std::map<int, Symbol> served_base;  // served rule -> closure base
  for (size_t s = 0; s < strat->rule_groups.size(); ++s) {
    out += "    stratum " + std::to_string(s) + ": rules";
    for (int i : strat->rule_groups[s]) out += " " + rule_id(i);
    out += "\n";
    const std::vector<eval::StratumGroup> groups =
        eval::PlanStratum(prog, strat->rule_groups[s], *db, strategy);
    const bool any_served =
        std::any_of(groups.begin(), groups.end(),
                    [](const eval::StratumGroup& g) { return g.served(); });
    if (any_served) out += "      component order:";
    for (size_t k = 0; k < groups.size(); ++k) {
      const eval::StratumGroup& g = groups[k];
      for (int i : g.rules) {
        if (s > 0 || (any_served && k > 0)) pre_run.insert(i);
        if (g.served()) served_base.emplace(i, g.tc_base);
      }
      if (!any_served) continue;
      out += k == 0 ? " {" : ", {";
      for (size_t j = 0; j < g.rules.size(); ++j) {
        out += (j == 0 ? "" : " ") + rule_id(g.rules[j]);
      }
      out += g.served() ? std::string("} served by ") + eval::kTcKernelName
                        : std::string("} semi-naive");
    }
    if (any_served) out += "\n";
  }
  out += "  join plans (pre-run cardinality estimates):\n";
  eval::CardinalityFn card = eval::MakeDbCardinality(db);
  for (size_t i = 0; i < prog.rules.size(); ++i) {
    out += "    [" + rule_id(static_cast<int>(i)) + "] ";
    if (auto it = served_base.find(static_cast<int>(i));
        it != served_base.end()) {
      out += std::string("served by ") + eval::kTcKernelName + " over " +
             syms.name(it->second) + "\n";
      continue;
    }
    auto compiled = eval::CompiledRule::Compile(prog.rules[i], syms, card);
    out += compiled.ok() ? compiled->PlanToString(syms)
                         : compiled.status().ToString();
    // These rules read IDBs this run has not materialized yet, so their
    // estimates (and possibly the plans themselves) will differ at
    // execution time.
    if (pre_run.count(static_cast<int>(i)) > 0) out += " (pre-run)";
    out += "\n";
  }
  return out;
}

/// The result-affecting option subset of a request — what the cache and
/// view fingerprints are built from (cache/fingerprint.h).
cache::QueryKeyOptions KeyOptionsFor(QueryRequest::Language language,
                                     const QueryOptions& options) {
  cache::QueryKeyOptions ko;
  ko.language = language == QueryRequest::Language::kDatalog ? 1 : 0;
  ko.strategy = options.eval.strategy;
  ko.cardinality_join_ordering = options.eval.cardinality_join_ordering;
  ko.specialize_bound_closures = options.translation.specialize_bound_closures;
  // eval.columnar is deliberately NOT part of the fingerprint: the
  // columnar path produces bit-identical rows and provenance, so a
  // cached row-path answer may serve a columnar query and vice versa.
  // observability.* (including profile) is likewise excluded — profiling
  // never changes results, so a profiled run may serve an unprofiled
  // request and vice versa (the hit carries the recorded profile, which
  // the caller is free to ignore).
  return ko;
}

/// Lambda-translates one query graph (Definition 2.4), then applies the
/// bound-closure specialization when `options.translation` asks for it.
/// `graph` names it in the span notes.
Result<datalog::Program> TranslateGraph(const QueryGraph& g,
                                        std::string_view graph,
                                        const QueryOptions& options,
                                        obs::Tracer* tracer, Database* db) {
  Translation t;
  {
    obs::SpanGuard span(tracer, "translate");
    span.AddNote("graph", graph);
    GRAPHLOG_ASSIGN_OR_RETURN(t, gl::TranslateQueryGraph(g, &db->symbols()));
    span.AddAttr("rules", static_cast<int64_t>(t.program.size()));
    span.AddAttr("aux_predicates",
                 static_cast<int64_t>(t.aux_predicates.size()));
  }
  if (options.translation.specialize_bound_closures) {
    obs::SpanGuard span(tracer, "specialize");
    span.AddNote("graph", graph);
    GRAPHLOG_ASSIGN_OR_RETURN(
        t.program,
        translate::SpecializeBoundClosures(t.program, &db->symbols(),
                                           {g.distinguished.predicate}));
    span.AddAttr("rules", static_cast<int64_t>(t.program.size()));
  }
  return std::move(t.program);
}

/// Runs one program through the engine under an "evaluate" span and folds
/// the run into `resp`: its rules join stats.programs (the provenance rule
/// universe), its EvalStats merge into stats.datalog, and its profile, when
/// profiling, is appended at the response level.
Status EvaluateProgram(const datalog::Program& prog,
                       const QueryOptions& options, obs::Tracer* tracer,
                       std::string_view graph, Database* db,
                       QueryResponse* resp) {
  if (options.eval.provenance != nullptr) {
    // Keep justification rule indexes valid into stats.programs.
    options.eval.provenance->set_rule_offset(
        static_cast<int>(resp->stats.programs.size()));
  }
  obs::SpanGuard span(tracer, "evaluate");
  if (!graph.empty()) span.AddNote("graph", graph);
  eval::EvalOptions eopts = options.eval;
  obs::QueryProfile run_profile;
  const bool prof = options.observability.profile && eopts.profile == nullptr;
  if (prof) eopts.profile = &run_profile;
  Result<eval::EvalStats> r = eval::Evaluate(prog, db, eopts);
  // Append even on a governed abort: the profile of the rounds that did
  // complete is what the slow-query log captures for the abort.
  if (prof && !run_profile.empty()) resp->profile.AppendRun(run_profile);
  GRAPHLOG_RETURN_NOT_OK(r.status());
  resp->stats.programs.Append(prog);
  resp->stats.datalog.Merge(*r);
  return Status::OK();
}

Status RunGraphLog(const QueryRequest& req, const QueryOptions& options,
                   obs::Tracer* tracer, Database* db, QueryResponse* resp,
                   std::set<Symbol>* touched) {
  obs::SpanGuard query_span(tracer, "query");
  query_span.AddNote("language", "graphlog");

  GraphicalQuery parsed;
  const GraphicalQuery* q = req.graphical;
  if (q == nullptr) {
    obs::SpanGuard span(tracer, "parse");
    GRAPHLOG_ASSIGN_OR_RETURN(
        parsed, gl::ParseGraphicalQuery(req.text, &db->symbols()));
    span.AddAttr("graphs", static_cast<int64_t>(parsed.graphs.size()));
    q = &parsed;
  }
  {
    obs::SpanGuard span(tracer, "validate");
    GRAPHLOG_RETURN_NOT_OK(gl::ValidateGraphicalQuery(*q, db->symbols()));
  }
  GRAPHLOG_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrderGraphs(*q));

  const bool explain = options.observability.explain ||
                       options.observability.explain_only;
  const bool execute = !options.observability.explain_only;
  QueryStats& stats = resp->stats;
  size_t rule_offset = 0;  // position in the query's rule universe
  for (int i : order) {
    // Between graphs: a cheap cancellation/deadline check so a
    // multi-graph query cannot outlive its governor in the gaps the
    // engine and the summarizer do not cover (translation, planning).
    if (execute && options.eval.governor != nullptr) {
      GRAPHLOG_RETURN_NOT_OK(
          options.eval.governor->CheckInterrupts("query.graph"));
    }
    const QueryGraph& g = q->graphs[i];
    const std::string head = db->symbols().name(g.distinguished.predicate);
    if (g.summary.has_value()) {
      if (touched != nullptr) {
        touched->insert(g.summary->base.predicate);
        touched->insert(g.distinguished.predicate);
      }
      if (explain) {
        resp->explain +=
            "graph " + head + ": path summarization (Section 4 operator)\n";
      }
      if (!execute) continue;
      obs::SpanGuard span(tracer, "summarize");
      span.AddNote("graph", head);
      GRAPHLOG_RETURN_NOT_OK(
          RunSummaryGraph(g, db, options.eval.governor, &stats));
      continue;
    }
    GRAPHLOG_ASSIGN_OR_RETURN(datalog::Program prog,
                              TranslateGraph(g, head, options, tracer, db));
    if (touched != nullptr) {
      for (Symbol p : prog.AllPredicates()) touched->insert(p);
    }
    if (explain) {
      resp->explain += "graph " + head + ":\n" +
                       RenderProgramExplain(prog, rule_offset,
                                            options.eval.strategy, db);
    }
    rule_offset += prog.size();
    if (!execute) continue;
    GRAPHLOG_RETURN_NOT_OK(
        EvaluateProgram(prog, options, tracer, head, db, resp));
    ++stats.graphs_translated;
    // A budget trip with return_partial ends the whole query at this
    // graph: downstream graphs would read the truncated fixpoint and
    // silently compound the gap.
    if (stats.datalog.truncated) break;
  }
  if (!execute) return Status::OK();
  for (Symbol p : q->IdbPredicates()) {
    const Relation* rel = db->Find(p);
    if (rel != nullptr) stats.result_tuples += rel->size();
  }
  return Status::OK();
}

Status RunDatalog(const QueryRequest& req, const QueryOptions& options,
                  obs::Tracer* tracer, Database* db, QueryResponse* resp,
                  std::set<Symbol>* touched) {
  obs::SpanGuard query_span(tracer, "query");
  query_span.AddNote("language", "datalog");

  datalog::Program prog;
  {
    obs::SpanGuard span(tracer, "parse");
    GRAPHLOG_ASSIGN_OR_RETURN(
        prog, datalog::ParseProgram(req.text, &db->symbols()));
    span.AddAttr("rules", static_cast<int64_t>(prog.size()));
  }
  if (touched != nullptr) {
    for (Symbol p : prog.AllPredicates()) touched->insert(p);
  }
  const bool explain = options.observability.explain ||
                       options.observability.explain_only;
  if (explain) {
    resp->explain +=
        RenderProgramExplain(prog, 0, options.eval.strategy, db);
  }
  if (options.observability.explain_only) return Status::OK();

  GRAPHLOG_RETURN_NOT_OK(
      EvaluateProgram(prog, options, tracer, {}, db, resp));
  for (Symbol p : prog.HeadPredicates()) {
    const Relation* rel = db->Find(p);
    if (rel != nullptr) resp->stats.result_tuples += rel->size();
  }
  return Status::OK();
}

}  // namespace

Result<QueryResponse> Run(const QueryRequest& req, Database* db) {
  QueryResponse resp;
  QueryOptions options = req.options;
  columnar::CsrCache request_csrs;
  if (options.eval.columnar && options.eval.csr_cache == nullptr) {
    options.eval.csr_cache = &request_csrs;
  }
  obs::Tracer local_tracer;
  if (options.observability.tracing && options.eval.tracer == nullptr) {
    options.eval.tracer = &local_tracer;
  }
  obs::Tracer* tracer = options.eval.tracer;

  obs::MetricsRegistry* metrics = options.observability.metrics;
  if (metrics != nullptr && options.eval.metrics == nullptr) {
    options.eval.metrics = metrics;
  }

  obs::SlowQueryLog* slow_log = options.observability.slow_query_log;
  const bool slow_log_armed =
      slow_log != nullptr && options.observability.slow_query_threshold_ns > 0;
  const bool caller_explain = options.observability.explain;

  // Caching eligibility. Pre-parsed graphical requests have no canonical
  // text to fingerprint; explain_only runs compute nothing servable; a
  // provenance-armed run must execute (a served hit cannot populate a
  // ProvenanceStore).
  cache::ResultCache* rcache = options.cache.result_cache;
  cache::ViewCatalog* views = options.cache.views;
  const bool cache_eligible =
      (rcache != nullptr || views != nullptr) && req.graphical == nullptr &&
      !options.observability.explain_only &&
      options.eval.provenance == nullptr;
  std::string canonical_key;  // db-agnostic; the view catalog is db-bound
  std::string cache_key;      // canonical key scoped by Database::uid
  if (cache_eligible) {
    canonical_key =
        cache::CanonicalQueryKey(req.text, KeyOptionsFor(req.language, options));
    cache_key = canonical_key + ";db=" + std::to_string(db->uid());
  }
  const bool record_armed = cache_eligible && rcache != nullptr;
  // The plan is only renderable while the query runs, so a slow log
  // forces EXPLAIN on (even below-threshold, a governed abort must be
  // capturable) — and so does an armed result cache, so a recorded entry
  // can satisfy a later explain-requesting hit. The response's rendering
  // is stripped below when the caller did not ask for it.
  if (slow_log != nullptr || record_armed) options.observability.explain = true;

  const auto started = std::chrono::steady_clock::now();
  Status st = Status::OK();
  // Lookups honor cancellation and the deadline. Serving a cached result
  // charges no resource budget; refreshing a stale view runs under the
  // request's governor with return_partial off, and a failed refresh
  // falls back to normal evaluation.
  if (cache_eligible && options.eval.governor != nullptr) {
    st = options.eval.governor->CheckInterrupts("cache.lookup");
  }
  if (st.ok() && cache_eligible && views != nullptr) {
    views->TryServe(canonical_key, db, metrics, options.eval.governor, &resp);
  }
  if (st.ok() && !resp.served_from_view && cache_eligible &&
      rcache != nullptr) {
    rcache->TryServe(cache_key, db, &resp);
  }
  const bool served = resp.served_from_view || resp.cache_hit;
  const bool will_record = st.ok() && !served && record_armed;
  cache::DbSnapshot pre_snapshot;
  std::set<Symbol> touched;
  if (will_record) pre_snapshot = cache::SnapshotDatabase(*db);
  if (st.ok() && !served) {
    std::set<Symbol>* tp = will_record ? &touched : nullptr;
    st = req.language == QueryRequest::Language::kDatalog
             ? RunDatalog(req, options, tracer, db, &resp, tp)
             : RunGraphLog(req, options, tracer, db, &resp, tp);
  }
  const uint64_t duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  // Harvest the trace even on failure: a span tree that ends at the
  // failing stage is exactly what one wants when debugging — but an error
  // Status is all the Result can carry, so only success returns it. A
  // served response keeps the stored trace of the run that recorded it.
  if (tracer == &local_tracer && !served) {
    resp.trace = local_tracer.TakeReport();
  }

  resp.truncated = resp.stats.datalog.truncated;
  resp.truncated_by = resp.stats.datalog.truncated_by;

  // EXPLAIN ANALYZE: append the profile's actuals to the plan rendering
  // (before recording/slow-log capture, so both carry it). A served
  // response keeps the profile and rendering of the run that recorded it.
  if (!served && !resp.profile.empty() && options.observability.explain) {
    resp.explain += resp.profile.ToText();
  }

  // Record the finished miss-run (before the explain strip, so stored
  // entries always carry the rendering). Record() itself refuses
  // truncated responses and non-grow-only runs.
  if (will_record && st.ok() && !resp.truncated) {
    rcache->Record(cache_key, *db, pre_snapshot, touched, resp);
  }

  // Governed aborts get their own taxonomy counters and are always
  // captured by the slow-query log: a query someone had to kill — or that
  // ran into its budget — is interesting at any duration.
  const bool governed_abort = st.code() == StatusCode::kCancelled ||
                              st.code() == StatusCode::kDeadlineExceeded ||
                              st.code() == StatusCode::kBudgetExceeded;
  if (metrics != nullptr) {
    metrics->counter("query.runs")->Increment();
    if (!st.ok()) metrics->counter("query.errors")->Increment();
    switch (st.code()) {
      case StatusCode::kCancelled:
        metrics->counter("query.cancelled")->Increment();
        break;
      case StatusCode::kDeadlineExceeded:
        metrics->counter("query.deadline_exceeded")->Increment();
        break;
      case StatusCode::kBudgetExceeded:
        metrics->counter("query.budget_exceeded")->Increment();
        break;
      default:
        break;
    }
    if (resp.truncated) metrics->counter("query.truncated")->Increment();
    metrics->counter("query.result_tuples")->Add(resp.stats.result_tuples);
    metrics->histogram("query.duration_ns")
        ->Observe(static_cast<int64_t>(duration_ns));
  }

  if ((slow_log_armed &&
       duration_ns >= options.observability.slow_query_threshold_ns) ||
      (slow_log != nullptr && governed_abort)) {
    obs::SlowQueryRecord rec;
    rec.language = req.language == QueryRequest::Language::kDatalog
                       ? "datalog"
                       : "graphlog";
    rec.text = req.graphical != nullptr ? "<graphical>" : req.text;
    rec.session = options.observability.session;
    rec.server_epoch = options.observability.server_epoch;
    rec.duration_ns = duration_ns;
    rec.threshold_ns = options.observability.slow_query_threshold_ns;
    if (!st.ok()) rec.error = st.ToString();
    rec.cache_hit = resp.cache_hit;
    rec.served_from_view = resp.served_from_view;
    rec.explain = resp.explain;
    if (options.observability.tracing) rec.trace_json = resp.trace.ToJson();
    // Captures the profile of governed aborts too — where the query was
    // when it died is exactly what the record is for.
    if (!resp.profile.empty()) rec.profile_json = resp.profile.ToJson();
    for (const auto& c : eval::kEvalCounters) {
      rec.stats.emplace_back(c.field_name(), resp.stats.datalog.*c.field);
    }
    rec.stats.emplace_back("result_tuples", resp.stats.result_tuples);
    slow_log->Record(std::move(rec));
  }
  if (!caller_explain &&
      (slow_log != nullptr || record_armed || served)) {
    resp.explain.clear();
  }

  GRAPHLOG_RETURN_NOT_OK(st);
  return resp;
}

Result<cache::ViewDefinition> MakeViewDefinition(std::string name,
                                                 std::string text,
                                                 Database* db,
                                                 const QueryOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  cache::ViewDefinition def;
  def.name = std::move(name);
  def.source_text = text;

  GRAPHLOG_ASSIGN_OR_RETURN(GraphicalQuery q,
                            gl::ParseGraphicalQuery(text, &db->symbols()));
  GRAPHLOG_RETURN_NOT_OK(gl::ValidateGraphicalQuery(q, db->symbols()));
  GRAPHLOG_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrderGraphs(q));
  for (int i : order) {
    const QueryGraph& g = q.graphs[i];
    if (g.summary.has_value()) {
      return Status::Unsupported(
          "a materialized view cannot contain a summarization graph (the "
          "Section 4 operator has no incremental maintenance)");
    }
    GRAPHLOG_ASSIGN_OR_RETURN(datalog::Program prog,
                              TranslateGraph(g, {}, options, nullptr, db));
    def.program.Append(prog);
    ++def.graphs;
  }
  def.distinguished = q.graphs.back().distinguished.predicate;
  def.idb_predicates = def.program.HeadPredicates();
  def.edb_predicates = def.program.EdbPredicates();
  def.result_predicates = q.IdbPredicates();
  def.eval = options.eval;
  // The catalog owns refresh scheduling; per-request observability and
  // governance do not belong in a persistent definition.
  def.eval.tracer = nullptr;
  def.eval.metrics = nullptr;
  def.eval.governor = nullptr;
  def.eval.provenance = nullptr;
  def.canonical_key = cache::CanonicalQueryKey(
      text, KeyOptionsFor(QueryRequest::Language::kGraphLog, options));
  return def;
}

}  // namespace graphlog
