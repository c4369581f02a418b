// Process-wide metrics registry, its exporters, and the slow-query log.
// The headline property lives here too: the structural projection of a
// registry snapshot (ToJson(include_timings=false)) is byte-identical
// across num_threads settings for the same workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphlog/api.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramCell;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::SlowQueryLog;
using obs::SlowQueryRecord;
using storage::Database;

// ---------------------------------------------------------------------------
// Registry basics

TEST(MetricsRegistryTest, InstrumentsAccumulateAndSnapshot) {
  MetricsRegistry reg;
  Counter* c = reg.counter("eval.runs");
  c->Increment();
  c->Add(4);
  reg.gauge("db.rows")->Set(123);
  reg.gauge("db.rows")->Add(-23);
  reg.histogram("eval.delta_rows")->Observe(0);
  reg.histogram("eval.delta_rows")->Observe(5);
  reg.histogram("eval.delta_rows")->Observe(300);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("eval.runs"), 5u);
  EXPECT_EQ(snap.gauges.at("db.rows"), 100);
  EXPECT_EQ(snap.histograms.at("eval.delta_rows").count, 3u);
  EXPECT_EQ(snap.histograms.at("eval.delta_rows").sum, 305);
  EXPECT_EQ(snap.histograms.at("eval.delta_rows").min, 0);
  EXPECT_EQ(snap.histograms.at("eval.delta_rows").max, 300);
}

TEST(MetricsRegistryTest, HandlesAreStableAndResetZeroesInPlace) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("x");
  Counter* c2 = reg.counter("x");
  EXPECT_EQ(c1, c2);  // same name -> same instrument
  c1->Add(7);
  reg.Reset();
  EXPECT_EQ(c1->value(), 0u);  // zeroed, not replaced
  c1->Increment();
  EXPECT_EQ(reg.Snapshot().counters.at("x"), 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAndRegistrationsAreSafe) {
  MetricsRegistry reg;
  Counter* shared = reg.counter("shared");
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, shared, t] {
      // Hammer a shared counter while registering thread-local names and
      // observing into a shared histogram — the TSan workload.
      Gauge* g = reg.gauge("lane." + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared->Increment();
        g->Add(1);
        reg.histogram("obs")->Observe(i);
      }
    });
  }
  for (auto& w : workers) w.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.histograms.at("obs").count,
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.gauges.at("lane." + std::to_string(t)), kIters);
  }
}

// ---------------------------------------------------------------------------
// Exporters

TEST(MetricsSnapshotTest, JsonRoundTripsBothProjections) {
  MetricsRegistry reg;
  reg.counter("eval.runs")->Add(3);
  reg.counter("query.duration_ns")->Add(123456);  // timing by convention
  reg.gauge("db.relation.edge.rows")->Set(42);
  reg.histogram("eval.stratum_rounds")->Observe(1);
  reg.histogram("eval.stratum_rounds")->Observe(9);
  reg.histogram("io.read_ns")->Observe(5000);  // timing histogram
  MetricsSnapshot snap = reg.Snapshot();

  for (bool timings : {true, false}) {
    std::string json = snap.ToJson(timings);
    ASSERT_OK_AND_ASSIGN(MetricsSnapshot parsed,
                         MetricsSnapshot::FromJson(json));
    EXPECT_EQ(parsed.ToJson(timings), json);
  }

  // The structural projection drops exactly the *_ns instruments.
  std::string structural = snap.ToJson(/*include_timings=*/false);
  EXPECT_EQ(structural.find("query.duration_ns"), std::string::npos);
  EXPECT_EQ(structural.find("io.read_ns"), std::string::npos);
  EXPECT_NE(structural.find("eval.runs"), std::string::npos);
  EXPECT_NE(structural.find("eval.stratum_rounds"), std::string::npos);
}

TEST(MetricsSnapshotTest, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("eval.rule_firings")->Add(17);
  reg.gauge("db.rows")->Set(-3);
  reg.histogram("tc.output_pairs")->Observe(6);  // width 3: [4, 7]
  std::string prom = reg.Snapshot().ToPrometheus();

  EXPECT_NE(prom.find("# TYPE graphlog_eval_rule_firings counter"),
            std::string::npos);
  EXPECT_NE(prom.find("graphlog_eval_rule_firings 17"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE graphlog_db_rows gauge"), std::string::npos);
  EXPECT_NE(prom.find("graphlog_db_rows -3"), std::string::npos);
  // Power-of-two bucket of width 3 covers up to 7; cumulative le buckets.
  EXPECT_NE(prom.find("graphlog_tc_output_pairs_bucket{le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("graphlog_tc_output_pairs_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("graphlog_tc_output_pairs_sum 6"), std::string::npos);
  EXPECT_NE(prom.find("graphlog_tc_output_pairs_count 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism across num_threads

// The mirrored (left-linear) closure: the TC kernel serves only the
// λ form tc(X,Y) :- edge(X,Z), tc(Z,Y), so this one runs the semi-naive
// fixpoint whose deltas these tests measure.
constexpr char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";

/// Runs the workload with a fresh database + registry and returns the
/// structural snapshot projection.
std::string StructuralSnapshotAt(unsigned num_threads) {
  Database db;
  EXPECT_TRUE(workload::RandomDigraph(60, 180, 17, &db).ok());
  MetricsRegistry reg;
  QueryRequest req = QueryRequest::Datalog(kLinearTc);
  req.options.eval.num_threads = num_threads;
  req.options.observability.metrics = &reg;
  auto r = graphlog::Run(req, &db);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  db.ExportResourceMetrics(&reg);
  return reg.Snapshot().ToJson(/*include_timings=*/false);
}

TEST(MetricsDeterminismTest, StructuralSnapshotIdenticalAcrossThreadCounts) {
  const std::string serial = StructuralSnapshotAt(1);
  EXPECT_FALSE(serial.empty());
  // Counters, gauges (resource accounting), and structural histograms must
  // not depend on the lane count; only *_ns instruments may, and those are
  // projected out.
  EXPECT_EQ(serial, StructuralSnapshotAt(2));
  EXPECT_EQ(serial, StructuralSnapshotAt(4));
  // The projection saw real work and real resource gauges.
  EXPECT_NE(serial.find("eval.rule_firings"), std::string::npos);
  EXPECT_NE(serial.find("db.relation.tc.rows"), std::string::npos);
  EXPECT_NE(serial.find("db.relation.tc.bytes"), std::string::npos);
}

TEST(MetricsDeterminismTest, PeakDeltaStatsAreDeterministic) {
  auto peaks = [](unsigned num_threads) {
    Database db;
    EXPECT_TRUE(workload::RandomDigraph(60, 180, 17, &db).ok());
    QueryRequest req = QueryRequest::Datalog(kLinearTc);
    req.options.eval.num_threads = num_threads;
    auto r = graphlog::Run(req, &db);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::pair<uint64_t, uint64_t>(r->stats.datalog.peak_delta_rows,
                                         r->stats.datalog.peak_delta_bytes);
  };
  auto serial = peaks(1);
  EXPECT_GT(serial.first, 0u);
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(serial, peaks(2));
  EXPECT_EQ(serial, peaks(4));
}

// ---------------------------------------------------------------------------
// Slow-query log

TEST(SlowQueryLogTest, RingEvictsOldestAndCountsTotals) {
  SlowQueryLog log(2);
  for (int i = 1; i <= 3; ++i) {
    SlowQueryRecord rec;
    rec.language = "datalog";
    rec.text = "q" + std::to_string(i);
    rec.duration_ns = 1000u * i;
    log.Record(std::move(rec));
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.capacity(), 2u);
  EXPECT_EQ(log.total_recorded(), 3u);
  std::vector<SlowQueryRecord> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sequence, 2u);  // q1 evicted
  EXPECT_EQ(entries[0].text, "q2");
  EXPECT_EQ(entries[1].sequence, 3u);
  EXPECT_EQ(entries[1].text, "q3");

  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total_recorded\":3"), std::string::npos);
  EXPECT_EQ(json.find("q1"), std::string::npos);
  EXPECT_NE(json.find("q3"), std::string::npos);

  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 3u);  // lifetime total survives Clear
}

TEST(SlowQueryLogTest, RunCapturesRequestExplainAndStats) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 5, &db));
  SlowQueryLog log;
  QueryRequest req = QueryRequest::Datalog(kLinearTc);
  req.options.observability.slow_query_log = &log;
  req.options.observability.slow_query_threshold_ns = 1;  // everything trips
  ASSERT_OK_AND_ASSIGN(QueryResponse resp, graphlog::Run(req, &db));

  // EXPLAIN was forced internally for the record but not leaked into the
  // response the caller did not ask it for.
  EXPECT_TRUE(resp.explain.empty());
  ASSERT_EQ(log.size(), 1u);
  SlowQueryRecord rec = log.Entries()[0];
  EXPECT_EQ(rec.language, "datalog");
  EXPECT_EQ(rec.text, kLinearTc);
  EXPECT_GE(rec.duration_ns, rec.threshold_ns);
  EXPECT_TRUE(rec.error.empty());
  EXPECT_NE(rec.explain.find("stratification"), std::string::npos);
  EXPECT_TRUE(rec.trace_json.empty());  // tracing was off
  EXPECT_GT(resp.stats.datalog.peak_delta_rows, 0u);

  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"language\":\"datalog\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\":"), std::string::npos);
  for (const auto& [key, value] :
       {std::pair<std::string, uint64_t>{"tuples_derived",
                                         resp.stats.datalog.tuples_derived},
        {"result_tuples", resp.stats.result_tuples},
        {"peak_delta_rows", resp.stats.datalog.peak_delta_rows}}) {
    const std::string field = "\"" + key + "\":" + std::to_string(value);
    EXPECT_TRUE(json.find(field + ",") != std::string::npos ||
                json.find(field + "}") != std::string::npos)
        << field;
  }
}

TEST(SlowQueryLogTest, CapturesTraceWhenTracingAndErrorsOnFailure) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(20, 60, 7, &db));
  SlowQueryLog log;
  QueryRequest req = QueryRequest::Datalog(kLinearTc);
  req.options.observability.tracing = true;
  req.options.observability.slow_query_log = &log;
  req.options.observability.slow_query_threshold_ns = 1;
  ASSERT_OK(graphlog::Run(req, &db).status());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log.Entries()[0].trace_json.find("\"spans\""),
            std::string::npos);

  // A failing query past the threshold is captured with its error.
  QueryRequest bad = QueryRequest::Datalog("p(X) :- q(X.");
  bad.options.observability.slow_query_log = &log;
  bad.options.observability.slow_query_threshold_ns = 1;
  EXPECT_FALSE(graphlog::Run(bad, &db).ok());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.Entries()[1].error.empty());
}

TEST(SlowQueryLogTest, ZeroThresholdDisablesCapture) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(20, 60, 7, &db));
  SlowQueryLog log;
  QueryRequest req = QueryRequest::Datalog(kLinearTc);
  req.options.observability.slow_query_log = &log;  // threshold stays 0
  ASSERT_OK(graphlog::Run(req, &db).status());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
}

// ---------------------------------------------------------------------------
// One site per instrument name

/// The string literal that starts at `text[pos]` after optional
/// whitespace, with the offset just past its closing quote; "" if none.
std::pair<std::string, size_t> LiteralAt(const std::string& text,
                                         size_t pos) {
  pos = text.find_first_not_of(" \t\n", pos);
  if (pos == std::string::npos || text[pos] != '"') return {"", pos};
  const size_t end = text.find('"', pos + 1);
  if (end == std::string::npos) return {"", pos};
  return {text.substr(pos + 1, end - pos - 1), end + 1};
}

/// Every instrument name string literal under src/ (path injected by
/// CMake), with the sites that spell it: the first argument of a
/// counter()/gauge()/histogram() call, or the name of a counter-list
/// entry (`{"tc.rounds", &TcStats::rounds}`).
std::map<std::string, std::vector<std::string>> InstrumentNameSites() {
  std::map<std::string, std::vector<std::string>> sites;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(GRAPHLOG_SRC_DIR)) {
    const std::string ext = file.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::stringstream buf;
    buf << std::ifstream(file.path()).rdbuf();
    const std::string text = buf.str();
    auto add = [&](const std::string& name, size_t pos) {
      const auto line = 1 + std::count(text.begin(), text.begin() + pos, '\n');
      sites[name].push_back(file.path().filename().string() + ":" +
                            std::to_string(line));
    };
    for (const std::string call : {"counter(", "gauge(", "histogram("}) {
      for (size_t p = text.find(call); p != std::string::npos;
           p = text.find(call, p + 1)) {
        const unsigned char before = p > 0 ? text[p - 1] : ' ';
        if (std::isalnum(before) || before == '_') continue;  // my_counter(
        const std::string name = LiteralAt(text, p + call.size()).first;
        if (!name.empty()) add(name, p);
      }
    }
    for (size_t p = text.find('{'); p != std::string::npos;
         p = text.find('{', p + 1)) {
      const auto [name, after] = LiteralAt(text, p + 1);
      if (name.empty()) continue;
      const size_t comma = text.find_first_not_of(" \t\n", after);
      if (comma == std::string::npos || text[comma] != ',') continue;
      const size_t amp = text.find_first_not_of(" \t\n", comma + 1);
      if (amp != std::string::npos && text[amp] == '&') add(name, p);
    }
  }
  return sites;
}

TEST(MetricNamesAuditTest, EveryInstrumentNameHasOneSite) {
  const auto sites = InstrumentNameSites();
  // If the idioms change and the scan goes blind, fail here rather than
  // pass on an empty set: both kinds of site must be seen.
  EXPECT_GE(sites.size(), 60u);
  for (const char* expected :
       {"query.runs", "server.sessions", "eval.runs", "tc.invocations",
        "eval.rule_firings", "tc.rounds", "cache.rejected",
        "columnar.builds", "view.served", "session.queries"}) {
    EXPECT_EQ(sites.count(expected), 1u) << expected << " not found";
  }
  for (const auto& [name, where] : sites) {
    std::string list;
    for (const std::string& w : where) list += " " + w;
    EXPECT_EQ(where.size(), 1u) << name << " is spelled at" << list;
  }
}

// ---------------------------------------------------------------------------
// One fixpoint loop

TEST(FixpointAuditTest, OnlyTheEngineExecutesRules) {
  // Rule execution belongs to eval::Engine: a fixpoint anywhere else
  // (the view catalog's refresh was one) escapes the governor, the lanes
  // and the trace. Callers extend a fixpoint with eval::EvaluateGrowth.
  size_t scanned = 0;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(GRAPHLOG_SRC_DIR)) {
    const std::string ext = file.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    if (file.path().parent_path().filename() == "eval") continue;
    ++scanned;
    std::stringstream buf;
    buf << std::ifstream(file.path()).rdbuf();
    const std::string text = buf.str();
    for (const char* call : {".Execute(", "->Execute(", "ExecutePartition("}) {
      EXPECT_EQ(text.find(call), std::string::npos)
          << file.path().string() << " calls " << call;
    }
  }
  EXPECT_GE(scanned, 60u);  // the scan saw the tree
}

}  // namespace
}  // namespace graphlog
