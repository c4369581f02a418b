// Observability layer: span nesting, metrics, JSON export round-trip,
// EXPLAIN, and the unified QueryRequest/QueryResponse front door. The
// deterministic-across-thread-counts properties are in
// tests/parallel_eval_test.cc; this file covers the subsystem itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graphlog/api.h"
#include "obs/trace.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tc/transitive_closure.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using obs::Histogram;
using obs::Metrics;
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
// Metrics

TEST(MetricsTest, CountersAccumulate) {
  Metrics m;
  m.Count("a", 2);
  m.Count("a", 3);
  m.Count("b", 1);
  EXPECT_EQ(m.counters().at("a"), 5u);
  EXPECT_EQ(m.counters().at("b"), 1u);
}

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
  t.metrics().Count("eval.rule_firings", 42);
  t.metrics().Observe("eval.delta_rows", 3);
  t.metrics().Observe("eval.delta_rows", 17);
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
  EXPECT_NE(text.find("eval.rule_firings = 42"), std::string::npos);
  EXPECT_NE(text.find("eval.delta_rows"), std::string::npos);
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
  const auto& counters = r->trace.metrics.counters();
  EXPECT_EQ(counters.at("eval.tuples_derived"),
            r->stats.datalog.tuples_derived);
  EXPECT_GT(counters.at("query.result_tuples"), 0u);
  EXPECT_FALSE(r->trace.metrics.histograms().empty());
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

TEST(QueryApiTest, IndexCountersSurviveMultiGraphQueries) {
  // Two query graphs -> two engine runs accumulated through
  // EvalStats::Merge; the index maintenance counters must survive (the
  // old field-by-field accumulation silently dropped them). Each graph's
  // recursive plan builds an index (probe edge / probe t1), so the merged
  // total must see both.
  Database db;
  ASSERT_OK(workload::RandomDigraph(60, 180, 17, &db));
  QueryRequest req = QueryRequest::GraphLog(
      "query t1 { edge X -> Y : edge+; distinguished X -> Y : t1; }\n"
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
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 5, &db));
  const storage::Relation* edges = db.Find(db.symbols().Lookup("edge"));
  ASSERT_NE(edges, nullptr);
  Tracer tracer;
  auto r = tc::TransitiveClosure(*edges, tc::TcAlgorithm::kSemiNaive,
                                 nullptr, &tracer);
  ASSERT_OK(r.status());
  TraceReport report = tracer.TakeReport();
  ASSERT_EQ(report.spans.size(), 1u);
  const Span& s = report.spans[0];
  EXPECT_EQ(s.name, "tc");
  ASSERT_EQ(s.notes.size(), 1u);
  EXPECT_EQ(s.notes[0].second, "semi-naive");
  bool saw_rounds = false;
  for (const auto& [k, v] : s.attrs) {
    if (k == "rounds") saw_rounds = v > 0;
    if (k == "pairs") {
      EXPECT_EQ(static_cast<size_t>(v), r->size());
    }
  }
  EXPECT_TRUE(saw_rounds);
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
