// Observability layer: span nesting, histograms, JSON export round-trip,
// EXPLAIN, the EvalStats counter list, and the unified
// QueryRequest/QueryResponse front door. The
// deterministic-across-thread-counts properties are in
// tests/parallel_eval_test.cc; this file covers the subsystem itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "eval/engine.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using obs::Histogram;
using obs::Span;
using obs::SpanGuard;
using obs::Tracer;
using obs::TraceReport;
using storage::Database;

// ---------------------------------------------------------------------------
// Tracer / SpanGuard

TEST(TracerTest, SpansNestByOpenCloseOrder) {
  Tracer t;
  t.BeginSpan("root");
  t.AddAttr("n", 1);
  t.BeginSpan("child-a");
  t.AddNote("k", "v");
  t.EndSpan();
  t.BeginSpan("child-b");
  t.BeginSpan("grandchild");
  t.EndSpan();
  t.EndSpan();
  t.EndSpan();
  TraceReport r = t.TakeReport();
  ASSERT_EQ(r.spans.size(), 1u);
  const Span& root = r.spans[0];
  EXPECT_EQ(root.name, "root");
  ASSERT_EQ(root.attrs.size(), 1u);
  EXPECT_EQ(root.attrs[0].first, "n");
  EXPECT_EQ(root.attrs[0].second, 1);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "child-a");
  ASSERT_EQ(root.children[0].notes.size(), 1u);
  EXPECT_EQ(root.children[0].notes[0].second, "v");
  EXPECT_EQ(root.children[1].name, "child-b");
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "grandchild");
}

TEST(TracerTest, TakeReportClosesOpenSpansAndResets) {
  Tracer t;
  t.BeginSpan("left-open");
  t.BeginSpan("inner");
  TraceReport r = t.TakeReport();
  ASSERT_EQ(r.spans.size(), 1u);
  EXPECT_GE(r.spans[0].end_ns, r.spans[0].start_ns);
  // Reusable after TakeReport.
  t.BeginSpan("fresh");
  t.EndSpan();
  TraceReport r2 = t.TakeReport();
  ASSERT_EQ(r2.spans.size(), 1u);
  EXPECT_EQ(r2.spans[0].name, "fresh");
}

TEST(TracerTest, SiblingRootsSupported) {
  Tracer t;
  t.BeginSpan("first");
  t.EndSpan();
  t.BeginSpan("second");
  t.EndSpan();
  TraceReport r = t.TakeReport();
  ASSERT_EQ(r.spans.size(), 2u);
  EXPECT_EQ(r.spans[0].name, "first");
  EXPECT_EQ(r.spans[1].name, "second");
}

TEST(SpanGuardTest, NullTracerIsDisabledNoOp) {
  SpanGuard g(nullptr, "nothing");
  EXPECT_FALSE(g.enabled());
  g.AddAttr("a", 1);
  g.AddNote("b", "c");
  g.AddTiming("t", 5);  // must not crash
}

TEST(SpanGuardTest, RaiiClosesInDestructionOrder) {
  Tracer t;
  {
    SpanGuard outer(&t, "outer");
    EXPECT_TRUE(outer.enabled());
    SpanGuard inner(&t, "inner");
    inner.AddAttr("depth", 2);
  }
  TraceReport r = t.TakeReport();
  ASSERT_EQ(r.spans.size(), 1u);
  ASSERT_EQ(r.spans[0].children.size(), 1u);
  EXPECT_EQ(r.spans[0].children[0].name, "inner");
}

// ---------------------------------------------------------------------------
// Histogram

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  Histogram h;
  for (int64_t v : {0, 1, 2, 3, 4, 1000}) h.Observe(v);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 1010);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 1000);
  EXPECT_EQ(h.buckets.at(0), 1u);   // 0
  EXPECT_EQ(h.buckets.at(1), 1u);   // 1
  EXPECT_EQ(h.buckets.at(2), 2u);   // 2, 3
  EXPECT_EQ(h.buckets.at(3), 1u);   // 4
  EXPECT_EQ(h.buckets.at(10), 1u);  // 1000
}

// ---------------------------------------------------------------------------
// JSON export / import

TraceReport SampleReport() {
  Tracer t;
  t.BeginSpan("query");
  t.AddNote("language", "graphlog");
  t.BeginSpan("stratum");
  t.AddAttr("index", 0);
  t.AddNote("plan", "t <- scan edge [driver] ; probe \"tc\"(1)");
  t.AddTiming("lane.0", 1234);
  t.EndSpan();
  t.EndSpan();
  return t.TakeReport();
}

TEST(TraceJsonTest, RoundTripsWithTimings) {
  TraceReport r = SampleReport();
  const std::string json = r.ToJson(/*include_timings=*/true);
  auto back = TraceReport::FromJson(json);
  ASSERT_OK(back.status());
  EXPECT_EQ(back->ToJson(true), json);
}

TEST(TraceJsonTest, RoundTripsDeterministicProjection) {
  TraceReport r = SampleReport();
  const std::string json = r.ToJson(/*include_timings=*/false);
  auto back = TraceReport::FromJson(json);
  ASSERT_OK(back.status());
  EXPECT_EQ(back->ToJson(false), json);
}

TEST(TraceJsonTest, DeterministicProjectionOmitsWallClock) {
  TraceReport r = SampleReport();
  const std::string json = r.ToJson(/*include_timings=*/false);
  EXPECT_EQ(json.find("duration_ns"), std::string::npos);
  EXPECT_EQ(json.find("timings"), std::string::npos);
  EXPECT_EQ(json.find("lane.0"), std::string::npos);
  // Structural content survives, including escapes.
  EXPECT_NE(json.find("\"stratum\""), std::string::npos);
  EXPECT_NE(json.find("probe \\\"tc\\\"(1)"), std::string::npos);
}

TEST(TraceJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(TraceReport::FromJson("").ok());
  EXPECT_FALSE(TraceReport::FromJson("{\"spans\":[").ok());
  EXPECT_FALSE(TraceReport::FromJson("[1,2,3]").ok());
}

TEST(TraceTextTest, RendersTreeAndCounters) {
  TraceReport r = SampleReport();
  const std::string text = r.ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("stratum"), std::string::npos);
  EXPECT_NE(text.find("index=0"), std::string::npos);
  EXPECT_NE(text.find("# language: graphlog"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The unified API end to end

constexpr char kTcQuery[] =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

void SeedEdges(Database* db) {
  ASSERT_OK(db->AddSymFact("edge", {"a", "b"}));
  ASSERT_OK(db->AddSymFact("edge", {"b", "c"}));
  ASSERT_OK(db->AddSymFact("edge", {"c", "d"}));
}

/// Collects every span name in the tree (depth first).
void CollectNames(const std::vector<Span>& spans,
                  std::vector<std::string>* out) {
  for (const Span& s : spans) {
    out->push_back(s.name);
    CollectNames(s.children, out);
  }
}

/// Sums every span attr whose key starts with `prefix` (depth first).
int64_t SumAttrs(const std::vector<Span>& spans, const std::string& prefix) {
  int64_t sum = 0;
  for (const Span& s : spans) {
    for (const auto& [k, v] : s.attrs) {
      if (k.compare(0, prefix.size(), prefix) == 0) sum += v;
    }
    sum += SumAttrs(s.children, prefix);
  }
  return sum;
}

TEST(QueryApiTest, TracedRunCoversThePipeline) {
  Database db;
  SeedEdges(&db);
  QueryRequest req = QueryRequest::GraphLog(kTcQuery);
  req.options.observability.tracing = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  std::vector<std::string> names;
  CollectNames(r->trace.spans, &names);
  for (const char* expect :
       {"query", "parse", "validate", "translate", "evaluate", "stratify",
        "stratum", "round"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << "missing span " << expect;
  }
  // The trace carries no counter copies: totals come from the stats. The
  // closure is served by the TC kernel, which its round span names.
  EXPECT_GT(r->stats.datalog.tuples_derived, 0u);
  EXPECT_GT(r->stats.result_tuples, 0u);
  EXPECT_EQ(r->trace.ToJson().find("\"metrics\""), std::string::npos);
  EXPECT_NE(r->trace.ToJson().find(eval::kTcKernelName), std::string::npos);
  EXPECT_GT(SumAttrs(r->trace.spans, "derived"), 0);
  EXPECT_EQ(SumAttrs(r->trace.spans, "strata"),
            static_cast<int64_t>(r->stats.datalog.strata));

  // A fixpoint round span records its per-predicate delta sizes as attrs
  // (the mirrored closure stays on the fixpoint).
  QueryRequest dreq = QueryRequest::Datalog(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n");
  dreq.options.observability.tracing = true;
  auto d = graphlog::Run(dreq, &db);
  ASSERT_OK(d.status());
  EXPECT_GT(SumAttrs(d->trace.spans, "delta."), 0);
}

TEST(QueryApiTest, TracingOffProducesEmptyTrace) {
  Database db;
  SeedEdges(&db);
  auto r = graphlog::Run(QueryRequest::GraphLog(kTcQuery), &db);
  ASSERT_OK(r.status());
  EXPECT_TRUE(r->trace.empty());
  EXPECT_TRUE(r->explain.empty());
  // Query heads only (t: full closure of a 3-edge chain), not auxiliaries.
  EXPECT_EQ(r->stats.result_tuples, 6u);
}

TEST(QueryApiTest, DatalogLanguageRunsThroughSameDoor) {
  Database db;
  SeedEdges(&db);
  QueryRequest req = QueryRequest::Datalog(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n");
  req.options.observability.tracing = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->stats.datalog.tuples_derived, 6u);
  EXPECT_EQ(r->stats.programs.size(), 2u);
  std::vector<std::string> names;
  CollectNames(r->trace.spans, &names);
  EXPECT_NE(std::find(names.begin(), names.end(), "evaluate"), names.end());
}

TEST(QueryApiTest, ExplainRendersRulesStrataAndPlans) {
  Database db;
  SeedEdges(&db);
  QueryRequest req = QueryRequest::GraphLog(kTcQuery);
  req.options.observability.explain = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  EXPECT_NE(r->explain.find("program:"), std::string::npos);
  EXPECT_NE(r->explain.find("stratification:"), std::string::npos);
  EXPECT_NE(r->explain.find("join plans"), std::string::npos);
  EXPECT_NE(r->explain.find("edge-tc"), std::string::npos);
  // explain (without explain_only) still evaluates.
  EXPECT_GT(r->stats.datalog.tuples_derived, 0u);
}

TEST(QueryApiTest, ExplainOnlySkipsEvaluation) {
  Database db;
  SeedEdges(&db);
  QueryRequest req = QueryRequest::GraphLog(kTcQuery);
  req.options.observability.explain = true;
  req.options.observability.explain_only = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  EXPECT_FALSE(r->explain.empty());
  EXPECT_EQ(r->stats.datalog.tuples_derived, 0u);
  EXPECT_EQ(db.Find(db.symbols().Lookup("t")), nullptr);
}

TEST(EvalStatsTest, MergeAddsEveryCounter) {
  eval::EvalStats a{1, 2, 3, 4, 5, 6};
  eval::EvalStats b{10, 20, 30, 40, 50, 60};
  a.Merge(b);
  EXPECT_EQ(a.iterations, 11u);
  EXPECT_EQ(a.rule_firings, 22u);
  EXPECT_EQ(a.tuples_derived, 33u);
  EXPECT_EQ(a.strata, 44u);
  EXPECT_EQ(a.index_builds, 55u);
  EXPECT_EQ(a.index_appends, 66u);
}

TEST(EvalStatsTest, MergeTakesPeakMaxAndFirstTruncationReason) {
  eval::EvalStats a;
  a.peak_delta_rows = 7;
  a.peak_delta_bytes = 900;
  eval::EvalStats b;
  b.peak_delta_rows = 5;
  b.peak_delta_bytes = 1200;
  b.truncated = true;
  b.truncated_by = "max_rounds at eval.round";
  a.Merge(b);
  EXPECT_EQ(a.peak_delta_rows, 7u);     // max, not 12
  EXPECT_EQ(a.peak_delta_bytes, 1200u);  // max, not 2100
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.truncated_by, "max_rounds at eval.round");

  // A later truncated run neither clears the flag nor overwrites the
  // first reason; an untruncated one leaves both alone.
  eval::EvalStats c;
  c.truncated = true;
  c.truncated_by = "max_delta_rows at eval.round";
  a.Merge(c);
  a.Merge(eval::EvalStats{});
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.truncated_by, "max_rounds at eval.round");
}

TEST(EvalStatsTest, CounterListFeedsMergeRegistryAndSlowLog) {
  // Every listed counter is reachable from Merge, with its declared fold.
  for (const auto& c : eval::kEvalCounters) {
    eval::EvalStats a, b;
    a.*c.field = 3;
    b.*c.field = 4;
    a.Merge(b);
    EXPECT_EQ(a.*c.field, c.fold == obs::CounterFold::kSum ? 7u : 4u)
        << c.name;
  }

  // And every one is exported: summed counters to the registry under
  // their own name, all of them to the slow-query record's stats.
  Database db;
  SeedEdges(&db);
  obs::MetricsRegistry registry;
  obs::SlowQueryLog slow_log;
  QueryRequest req = QueryRequest::GraphLog(kTcQuery);
  req.options.observability.metrics = &registry;
  req.options.observability.slow_query_log = &slow_log;
  req.options.observability.slow_query_threshold_ns = 1;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(slow_log.size(), 1u);
  const std::string json = slow_log.Entries()[0].ToJson();
  for (const auto& c : eval::kEvalCounters) {
    const uint64_t value = r->stats.datalog.*c.field;
    const std::string field = "\"" + std::string(c.field_name()) +
                              "\":" + std::to_string(value);
    EXPECT_TRUE(json.find(field + ",") != std::string::npos ||
                json.find(field + "}") != std::string::npos)
        << field;
    if (c.fold == obs::CounterFold::kSum) {
      auto it = snap.counters.find(std::string(c.name));
      ASSERT_NE(it, snap.counters.end()) << c.name;
      EXPECT_EQ(it->second, value) << c.name;
    } else {
      EXPECT_EQ(snap.counters.count(std::string(c.name)), 0u) << c.name;
    }
  }
  EXPECT_EQ(snap.counters.at("eval.runs"), 1u);
}

TEST(QueryApiTest, IndexCountersSurviveMultiGraphQueries) {
  // Two query graphs -> two engine runs accumulated through
  // EvalStats::Merge; the index maintenance counters must survive (the
  // old field-by-field accumulation silently dropped them). Each graph's
  // composition builds an index (the closure edge+ is served by the TC
  // kernel, which builds none), so the merged total must see both.
  Database db;
  ASSERT_OK(workload::RandomDigraph(60, 180, 17, &db));
  QueryRequest req = QueryRequest::GraphLog(
      "query t1 { edge X -> Y : edge edge+; distinguished X -> Y : t1; }\n"
      "query t2 { edge X -> Y : t1 t1; distinguished X -> Y : t2; }\n");
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->stats.graphs_translated, 2u);
  EXPECT_GE(r->stats.datalog.index_builds, 2u);
  // GraphLog translations are linear (they probe only non-growing
  // relations), so incremental appends come from the Datalog door:
  // nonlinear TC probes tc while inserting into it. Same Merge path.
  QueryRequest dreq = QueryRequest::Datalog(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n");
  auto d = graphlog::Run(dreq, &db);
  ASSERT_OK(d.status());
  EXPECT_GT(d->stats.datalog.index_appends, 0u);
  EXPECT_GT(d->stats.datalog.index_builds, 0u);
}

// ---------------------------------------------------------------------------
// Kernel spans (TC, RPQ)

TEST(KernelSpanTest, TransitiveClosureRecordsTcSpan) {
  // The engine serves the closure pair with the TC kernel in one round,
  // whose span names the kernel and counts the closure's pairs.
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 5, &db));
  Tracer tracer;
  eval::EvalOptions opts;
  opts.tracer = &tracer;
  ASSERT_OK(eval::EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                               "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                               &db, opts)
                .status());
  TraceReport report = tracer.TakeReport();
  const Span* round = nullptr;
  for (const Span& s : report.spans) {
    for (const Span& c : s.children) {
      if (c.name == "round") round = &c;
    }
  }
  ASSERT_NE(round, nullptr);
  ASSERT_FALSE(round->notes.empty());
  EXPECT_EQ(round->notes[0].first, "kernel");
  EXPECT_EQ(round->notes[0].second, eval::kTcKernelName);
  bool saw_firings = false;
  for (const auto& [k, v] : round->attrs) {
    if (k == "firings") saw_firings = v > 0;
    if (k == "derived") {
      EXPECT_EQ(static_cast<size_t>(v), testutil::RelationSize(db, "tc"));
    }
  }
  EXPECT_TRUE(saw_firings);
}

TEST(KernelSpanTest, RpqRecordsSearchEffort) {
  Database db;
  SeedEdges(&db);
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  Tracer tracer;
  rpq::RpqOptions opts;
  opts.source = Value::Sym(db.Intern("a"));
  opts.tracer = &tracer;
  auto r = rpq::EvalRpqText(g, "edge+", &db.symbols(), opts);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->size(), 3u);
  TraceReport report = tracer.TakeReport();
  ASSERT_EQ(report.spans.size(), 1u);
  const Span& s = report.spans[0];
  EXPECT_EQ(s.name, "rpq");
  int64_t pairs = -1, visited = 0;
  for (const auto& [k, v] : s.attrs) {
    if (k == "pairs") pairs = v;
    if (k == "product_states_visited") visited = v;
  }
  EXPECT_EQ(pairs, 3);
  EXPECT_GT(visited, 0);
}

}  // namespace
}  // namespace graphlog
