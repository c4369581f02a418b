// EXPLAIN ANALYZE profiling and the relation-statistics subsystem.
//
// The profile's logical sections must be bit-identical across num_threads
// and across the columnar path being on or off (the same contract the
// engine's stats and provenance already obey); RelationStats must follow
// the CSR cache's invalidation rules (data_generation + size stamp,
// DropIndexes exempt) while refreshing incrementally on grow-only
// workloads; and turning profiling on must never change what a query
// computes, including its result-cache behavior.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "columnar/csr_cache.h"
#include "eval/engine.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "server/server.h"
#include "storage/database.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

using obs::QueryProfile;
using storage::Database;
using storage::Relation;
using storage::RelationStats;

/// A small graph whose closure takes several rounds and re-derives pairs
/// (diamonds), so every dedup counter is exercised.
void SeedGraph(Database* db) {
  const char* edges[][2] = {{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"},
                            {"a", "c"}, {"b", "d"}, {"c", "e"}, {"e", "f"},
                            {"f", "g"}, {"d", "g"}};
  for (const auto& e : edges) ASSERT_OK(db->AddSymFact("edge", {e[0], e[1]}));
}

/// A closure composed with an edge: the TC kernel serves edge+, and the
/// composition's join re-derives pairs through the diamonds, so both a
/// served closure and a join plan show up in every profile.
constexpr char kClosureQuery[] =
    "query t { edge X -> Y : edge edge+; distinguished X -> Y : t; }";

/// Runs `text` on a fresh seeded database with profiling on and returns
/// the response.
QueryResponse RunProfiled(const std::string& text, unsigned num_threads,
                          bool columnar) {
  Database db;
  SeedGraph(&db);
  columnar::CsrCache csrs;
  QueryRequest req = QueryRequest::GraphLog(text);
  req.options.observability.profile = true;
  req.options.eval.num_threads = num_threads;
  req.options.eval.columnar = columnar;
  if (columnar) req.options.eval.csr_cache = &csrs;
  auto r = graphlog::Run(req, &db);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(*r);
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance bar for the logical profile.

TEST(ProfileDeterminismTest, LogicalJsonByteIdenticalAcrossThreadCounts) {
  const std::string serial = RunProfiled(kClosureQuery, 1, false)
                                 .profile.ToJson(/*include_timings=*/false);
  EXPECT_FALSE(serial.empty());
  for (unsigned threads : {2u, 4u, 8u}) {
    const std::string parallel =
        RunProfiled(kClosureQuery, threads, false)
            .profile.ToJson(/*include_timings=*/false);
    EXPECT_EQ(serial, parallel) << "num_threads=" << threads;
  }
}

TEST(ProfileDeterminismTest, LogicalJsonByteIdenticalAcrossColumnarOnOff) {
  const std::string row = RunProfiled(kClosureQuery, 1, false)
                              .profile.ToJson(/*include_timings=*/false);
  const std::string csr = RunProfiled(kClosureQuery, 1, true)
                              .profile.ToJson(/*include_timings=*/false);
  EXPECT_EQ(row, csr);
  // Columnar x parallel together must also land on the same bytes.
  EXPECT_EQ(row, RunProfiled(kClosureQuery, 4, true)
                     .profile.ToJson(/*include_timings=*/false));
}

TEST(ProfileDeterminismTest, CsrServedCountsAreConfinedToTimingsSection) {
  QueryProfile row = RunProfiled(kClosureQuery, 1, false).profile;
  QueryProfile csr = RunProfiled(kClosureQuery, 1, true).profile;
  uint64_t served = 0;
  for (const auto& r : csr.rules) {
    for (const auto& s : r.steps) served += s.csr_invocations;
  }
  EXPECT_GT(served, 0u) << "columnar run never hit the CSR path";
  // The physical counter differs between the paths, so it may only appear
  // in the timings projection.
  EXPECT_NE(row.ToJson(true), csr.ToJson(true));
  EXPECT_EQ(row.ToJson(false), csr.ToJson(false));
  EXPECT_EQ(row.ToJson(false).find("csr_invocations"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profile contents.

TEST(ProfileTest, DedupAccountingBalancesPerRule) {
  QueryProfile p = RunProfiled(kClosureQuery, 1, false).profile;
  ASSERT_FALSE(p.rules.empty());
  ASSERT_FALSE(p.rounds.empty());
  uint64_t firings = 0;
  for (const auto& r : p.rules) {
    // Every firing either emitted a novel tuple or was rejected by
    // exactly one of the two dedup layers.
    EXPECT_EQ(r.firings, r.rows_emitted + r.dup_in_head + r.dup_in_round)
        << r.rule;
    firings += r.firings;
  }
  EXPECT_GT(firings, 0u);
  // The diamond graph re-derives pairs, so some dedup must have fired.
  uint64_t dups = 0;
  for (const auto& r : p.rules) dups += r.dup_in_head + r.dup_in_round;
  EXPECT_GT(dups, 0u);
}

TEST(ProfileTest, StepsCarryEstimatesAndActuals) {
  QueryProfile p = RunProfiled(kClosureQuery, 1, false).profile;
  bool saw_estimate = false;
  bool saw_rows = false;
  for (const auto& r : p.rules) {
    EXPECT_FALSE(r.rule.empty());
    EXPECT_FALSE(r.plan.empty());
    for (const auto& s : r.steps) {
      EXPECT_FALSE(s.op.empty());
      saw_estimate = saw_estimate || s.estimated_rows > 0;
      saw_rows = saw_rows || s.rows_out > 0;
    }
  }
  EXPECT_TRUE(saw_estimate);
  EXPECT_TRUE(saw_rows);
  const std::string text = p.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("miss="), std::string::npos);
  EXPECT_NE(text.find("rounds:"), std::string::npos);
}

TEST(ProfileTest, RoundLogMatchesEvalStats) {
  QueryResponse resp = RunProfiled(kClosureQuery, 1, false);
  uint64_t derived = 0;
  uint64_t firings = 0;
  for (const auto& r : resp.profile.rounds) {
    derived += r.derived;
    firings += r.firings;
  }
  // The round log is complete: the one-shot seeding pass plus every
  // fixpoint round sums to the run totals.
  EXPECT_EQ(derived, resp.stats.datalog.tuples_derived);
  EXPECT_EQ(firings, resp.stats.datalog.rule_firings);
  // One stratum: its seed pass rides ahead of the counted iterations.
  EXPECT_EQ(resp.profile.rounds.size(), resp.stats.datalog.iterations + 1);
}

TEST(ProfileTest, OffByDefaultAndResponseStaysEmpty) {
  Database db;
  SeedGraph(&db);
  QueryRequest req = QueryRequest::GraphLog(kClosureQuery);
  auto r = graphlog::Run(req, &db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->profile.empty());
  EXPECT_TRUE(r->profile.ToText().find("rule [") == std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN integration: static plans are labeled, ANALYZE appends actuals.

TEST(ProfileTest, ExplainLabelsUpperStrataPreRunAndAppendsAnalyze) {
  Database db;
  SeedGraph(&db);
  for (const char* n : {"a", "b", "c", "d"}) {
    ASSERT_OK(db.AddSymFact("node", {n}));
  }
  // Negation splits the program: `unreach` sits in stratum 1, above the
  // closure it reads.
  QueryRequest req = QueryRequest::Datalog(
      "reach(X, Y) :- edge(X, Y). "
      "reach(X, Y) :- edge(X, Z), reach(Z, Y). "
      "unreach(X, Y) :- node(X), node(Y), !reach(X, Y).");
  req.options.observability.explain = true;
  req.options.observability.profile = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The unreach rule reads the closure stratum's output, which is not
  // materialized at static-EXPLAIN time: its plan line is estimated
  // blind and says so. Stratum-0 plans estimate from real sizes.
  EXPECT_NE(r->explain.find("(pre-run)"), std::string::npos) << r->explain;
  // Scan the static section only; the ANALYZE plan echoes are unlabeled.
  const size_t analyze_at = r->explain.find("EXPLAIN ANALYZE");
  ASSERT_NE(analyze_at, std::string::npos);
  std::istringstream lines(r->explain.substr(0, analyze_at));
  std::string line;
  bool saw_unreach_plan = false;
  while (std::getline(lines, line)) {
    if (line.find("<-") == std::string::npos) continue;  // plan lines only
    if (line.find("unreach <-") != std::string::npos) {
      saw_unreach_plan = true;
      EXPECT_NE(line.find("(pre-run)"), std::string::npos) << line;
    } else {
      EXPECT_EQ(line.find("(pre-run)"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_unreach_plan) << r->explain;
  // The ANALYZE section follows with the post-run actuals.
  EXPECT_NE(r->explain.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_LT(r->explain.find("(pre-run)"), r->explain.find("EXPLAIN ANALYZE"));
}

// ---------------------------------------------------------------------------
// RelationStats: incremental maintenance and invalidation.

/// The catalog's stats for `edge` if current, without refreshing them.
const RelationStats* PeekEdge(const Database& db) {
  const Symbol edge = db.symbols().Lookup("edge");
  return db.stats_catalog().Peek(edge, *db.Find(edge));
}

TEST(RelationStatsTest, ComputesPerColumnDistinctAndDegrees) {
  Database db;
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  ASSERT_OK(db.AddSymFact("edge", {"a", "c"}));
  ASSERT_OK(db.AddSymFact("edge", {"b", "c"}));
  const RelationStats* st = db.StatsFor("edge");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->rows(), 3u);
  EXPECT_EQ(st->distinct(0), 2u);  // {a, b}
  EXPECT_EQ(st->distinct(1), 2u);  // {b, c}
  EXPECT_EQ(st->max_degree(0), 2u);  // a -> {b, c}
  EXPECT_DOUBLE_EQ(st->mean_degree(0), 1.5);
}

TEST(RelationStatsTest, InsertInvalidatesAndRefreshAbsorbsTheSuffix) {
  Database db;
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  ASSERT_NE(db.StatsFor("edge"), nullptr);
  EXPECT_NE(PeekEdge(db), nullptr);
  // A new row stales the stamp; the next StatsFor absorbs just the
  // appended suffix and is current again.
  ASSERT_OK(db.AddSymFact("edge", {"a", "c"}));
  EXPECT_EQ(PeekEdge(db), nullptr);
  const RelationStats* st = db.StatsFor("edge");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->rows(), 2u);
  EXPECT_EQ(st->distinct(1), 2u);
  EXPECT_EQ(st->max_degree(0), 2u);
  EXPECT_NE(PeekEdge(db), nullptr);
}

TEST(RelationStatsTest, ClearAndTruncateForceRecompute) {
  Database db;
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  ASSERT_OK(db.AddSymFact("edge", {"b", "c"}));
  ASSERT_OK(db.AddSymFact("edge", {"c", "d"}));
  ASSERT_NE(db.StatsFor("edge"), nullptr);
  Relation* rel = db.FindMutable(db.symbols().Lookup("edge"));
  ASSERT_NE(rel, nullptr);

  rel->TruncateTo(1);
  EXPECT_EQ(PeekEdge(db), nullptr);
  const RelationStats* st = db.StatsFor("edge");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->rows(), 1u);
  EXPECT_EQ(st->distinct(0), 1u);

  rel->Clear();
  EXPECT_EQ(PeekEdge(db), nullptr);
  st = db.StatsFor("edge");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->rows(), 0u);
  EXPECT_EQ(st->distinct(0), 0u);
  EXPECT_EQ(st->EstimateMatches({0}), 0u);
}

TEST(RelationStatsTest, DropIndexesDoesNotInvalidate) {
  Database db;
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  const Relation* rel = db.Find("edge");
  ASSERT_NE(db.StatsFor("edge"), nullptr);
  ASSERT_NE(PeekEdge(db), nullptr);
  // Index teardown is structural, not data: the stats stay served.
  rel->DropIndexes();
  EXPECT_NE(PeekEdge(db), nullptr);
}

TEST(RelationStatsTest, RolledBackRunsLeaveNoStatsBehind) {
  // Each run plans r against the closure p it derived, then trips the
  // row budget and rolls back, removing p and r: their statistics must
  // go with them.
  Database db;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(db.AddSymFact("e", {"n" + std::to_string(i),
                                  "n" + std::to_string(i + 1)}));
  }
  gov::GovernorContext g;
  g.budget.max_result_rows = 1000;
  QueryRequest req = QueryRequest::Datalog(
      "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).\n"
      "r(X, Y) :- p(X, Z), p(Z, Y).\n");
  req.options.eval.governor = &g;
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EXPECT_EQ(graphlog::Run(req, &db).status().code(),
              StatusCode::kBudgetExceeded);
    EXPECT_EQ(db.relations().size(), 1u);
    EXPECT_LE(db.stats_catalog().size(), db.relations().size());
  }
}

TEST(RelationStatsTest, EstimateMatchesDividesByDistinct) {
  Database db;
  // 8 rows, 4 distinct sources, 2 distinct targets.
  const char* rows[][2] = {{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"},
                           {"c", "x"}, {"c", "y"}, {"d", "x"}, {"d", "y"}};
  for (const auto& r : rows) ASSERT_OK(db.AddSymFact("edge", {r[0], r[1]}));
  const RelationStats* st = db.StatsFor("edge");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->EstimateMatches({}), 8u);      // scan
  EXPECT_EQ(st->EstimateMatches({0}), 2u);     // 8 / 4
  EXPECT_EQ(st->EstimateMatches({1}), 4u);     // 8 / 2
  EXPECT_EQ(st->EstimateMatches({0, 1}), 1u);  // 8 / 8
}

// ---------------------------------------------------------------------------
// Metrics export.

TEST(RelationStatsMetricsTest, DistinctGaugesExportAndRoundTrip) {
  Database db;
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  ASSERT_OK(db.AddSymFact("edge", {"a", "c"}));
  obs::MetricsRegistry registry;
  db.ExportResourceMetrics(&registry);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.at("db.relation.edge.distinct.0"), 1);
  EXPECT_EQ(snap.gauges.at("db.relation.edge.distinct.1"), 2);
  EXPECT_EQ(snap.gauges.at("db.relation.edge.max_degree.0"), 2);
  // JSON round-trip preserves the gauges bit-for-bit.
  ASSERT_OK_AND_ASSIGN(obs::MetricsSnapshot parsed,
                       obs::MetricsSnapshot::FromJson(snap.ToJson()));
  EXPECT_EQ(parsed.ToJson(), snap.ToJson());
  EXPECT_EQ(parsed.gauges.at("db.relation.edge.distinct.1"), 2);
  // Prometheus exposition carries the sanitized name.
  EXPECT_NE(snap.ToPrometheus().find("graphlog_db_relation_edge_distinct_1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiling is an observer: results and cache behavior never change.

TEST(ProfilePropertyTest, TogglingProfilingNeverChangesResults) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string program =
        testing::RandomLinearProgram(testing::RandomProgramOptions{}, seed);
    std::map<bool, std::map<std::string, std::set<std::string>>> results;
    std::map<bool, uint64_t> derived;
    for (bool profiled : {false, true}) {
      Database db;
      SeedGraph(&db);
      ASSERT_OK(db.AddSymFact("e1", {"a", "b"}));
      ASSERT_OK(db.AddSymFact("e1", {"b", "c"}));
      ASSERT_OK(db.AddSymFact("e2", {"c", "d"}));
      ASSERT_OK(db.AddSymFact("n1", {"a"}));
      QueryRequest req = QueryRequest::Datalog(program);
      req.options.observability.profile = profiled;
      req.options.eval.num_threads = profiled ? 4 : 1;
      auto r = graphlog::Run(req, &db);
      ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
      derived[profiled] = r->stats.datalog.tuples_derived;
      for (const auto& [sym, rel] : db.relations()) {
        results[profiled][db.symbols().name(sym)] =
            testutil::RelationSet(db, db.symbols().name(sym));
      }
      EXPECT_EQ(r->profile.empty(), !profiled) << "seed " << seed;
    }
    EXPECT_EQ(results[false], results[true]) << "seed " << seed;
    EXPECT_EQ(derived[false], derived[true]) << "seed " << seed;
  }
}

TEST(ProfilePropertyTest, CacheFingerprintIgnoresProfiling) {
  Database db;
  SeedGraph(&db);
  cache::ResultCache rcache;

  QueryRequest req = QueryRequest::GraphLog(kClosureQuery);
  req.options.cache.result_cache = &rcache;
  req.options.observability.profile = false;
  auto cold = graphlog::Run(req, &db);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);

  // Same query with profiling on must hit the entry recorded without it:
  // observability options are excluded from the fingerprint.
  req.options.observability.profile = true;
  auto warm = graphlog::Run(req, &db);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(rcache.Stats().hits, 1u);
  EXPECT_EQ(rcache.Stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Slow-query log attribution.

TEST(ProfileSlowLogTest, DetachedSessionStampsNameEpochAndProfile) {
  Server server;
  auto session = server.OpenSession({.name = "slow-session"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto w = (*session)->Apply(WriteBatch().Facts(
      "edge(a, b). edge(b, c). edge(c, d)."));
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  obs::SlowQueryLog log;
  QueryRequest req = QueryRequest::GraphLog(kClosureQuery);
  req.options.observability.profile = true;
  req.options.observability.slow_query_log = &log;
  req.options.observability.slow_query_threshold_ns = 1;  // everything
  auto r = (*session)->Run(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ASSERT_EQ(log.size(), 1u);
  const obs::SlowQueryRecord rec = log.Entries()[0];
  EXPECT_EQ(rec.session, "slow-session");
  EXPECT_EQ(rec.server_epoch, (*session)->epoch());
  EXPECT_FALSE(rec.profile_json.empty());
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"session\":\"slow-session\""), std::string::npos);
  EXPECT_NE(json.find("\"server_epoch\":"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":{"), std::string::npos);
}

TEST(ProfileSlowLogTest, RawRunLeavesAttributionEmpty) {
  Database db;
  SeedGraph(&db);
  obs::SlowQueryLog log;
  QueryRequest req = QueryRequest::GraphLog(kClosureQuery);
  req.options.observability.slow_query_log = &log;
  req.options.observability.slow_query_threshold_ns = 1;
  auto r = graphlog::Run(req, &db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(log.size(), 1u);
  const obs::SlowQueryRecord rec = log.Entries()[0];
  EXPECT_TRUE(rec.session.empty());
  EXPECT_EQ(rec.server_epoch, 0u);
  // No session key at all in the JSON when unattributed.
  EXPECT_EQ(rec.ToJson().find("\"session\""), std::string::npos);
}

}  // namespace
}  // namespace graphlog
