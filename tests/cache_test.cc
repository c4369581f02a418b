// The src/cache subsystem: canonical query fingerprinting, the
// generation-invalidated result cache, the materialized view catalog
// with incremental maintenance, and their wiring through graphlog::Run
// (governor interplay, metrics, slow-query log).
//
// The load-bearing property throughout: anything served from the cache
// or a view is indistinguishable from cold recomputation — same
// relation contents in the same insertion order, same stats, same
// EXPLAIN — at every num_threads setting.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/result_cache.h"
#include "cache/view_catalog.h"
#include "columnar/csr_cache.h"
#include "datalog/parser.h"
#include "eval/provenance.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "storage/database.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

using cache::CanonicalQueryKey;
using cache::FingerprintKey;
using cache::NormalizeQueryText;
using cache::QueryKeyOptions;
using cache::ResultCache;
using cache::ViewCatalog;
using storage::Database;
using storage::Relation;
using testutil::RelationSet;
using testutil::RelationSize;

constexpr char kTcQuery[] =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

/// A linear chain a0 -> a1 -> ... -> a(n-1).
Database ChainDb(int n) {
  Database db;
  for (int i = 0; i + 1 < n; ++i) {
    std::string from = "a" + std::to_string(i);
    std::string to = "a" + std::to_string(i + 1);
    EXPECT_OK(db.AddFact("edge",
                         {Value::Sym(db.Intern(from)), Value::Sym(db.Intern(to))}));
  }
  return db;
}

/// Every relation's rows, in insertion order — the byte-identity
/// comparison form (RelationSet is order-insensitive; this is not).
std::map<std::string, std::vector<std::string>> ExactContents(
    const Database& db) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& [name, rel] : db.relations()) {
    std::vector<std::string>& rows = out[db.symbols().name(name)];
    for (const auto& row : rel.rows()) {
      std::string s;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) s += ",";
        s += row[i].ToString(db.symbols());
      }
      rows.push_back(s);
    }
  }
  return out;
}

Result<QueryResponse> RunText(const std::string& text, Database* db,
                              const QueryOptions& options = {}) {
  QueryRequest req = QueryRequest::GraphLog(text);
  req.options = options;
  return Run(req, db);
}

// ---------------------------------------------------------------------------
// Fingerprinting

TEST(FingerprintTest, NormalizationStripsCommentsAndWhitespace) {
  EXPECT_EQ(NormalizeQueryText("a   b\n\tc"), "a b c");
  EXPECT_EQ(NormalizeQueryText("a # trailing comment\nb"), "a b");
  EXPECT_EQ(NormalizeQueryText("a // c++ style\nb"), "a b");
  EXPECT_EQ(NormalizeQueryText("  padded  "), "padded");
  EXPECT_EQ(NormalizeQueryText(""), "");
}

TEST(FingerprintTest, NormalizationPreservesStringLiterals) {
  // Whitespace and comment markers inside string literals are data.
  EXPECT_EQ(NormalizeQueryText("p(\"a  b\")"), "p(\"a  b\")");
  EXPECT_EQ(NormalizeQueryText("p(\"# not a comment\")"),
            "p(\"# not a comment\")");
  EXPECT_EQ(NormalizeQueryText("p(\"esc\\\" # quote\")"),
            "p(\"esc\\\" # quote\")");
}

TEST(FingerprintTest, EquivalentTextsShareTheCanonicalKey) {
  QueryKeyOptions ko;
  EXPECT_EQ(CanonicalQueryKey("query t {  edge X -> Y : edge+; }", ko),
            CanonicalQueryKey("query t {\n  edge X -> Y : edge+; # tc\n}", ko));
  EXPECT_NE(CanonicalQueryKey("query t { edge X -> Y : edge+; }", ko),
            CanonicalQueryKey("query t { edge X -> Y : edge; }", ko));
}

TEST(FingerprintTest, ResultAffectingOptionsChangeTheKey) {
  QueryKeyOptions base;
  const std::string k0 = CanonicalQueryKey(kTcQuery, base);

  QueryKeyOptions o = base;
  o.language = 1;
  EXPECT_NE(CanonicalQueryKey(kTcQuery, o), k0);
  o = base;
  o.cardinality_join_ordering = false;
  EXPECT_NE(CanonicalQueryKey(kTcQuery, o), k0);
  o = base;
  o.specialize_bound_closures = true;
  EXPECT_NE(CanonicalQueryKey(kTcQuery, o), k0);
}

TEST(FingerprintTest, HashIsStableAndDiscriminates) {
  const std::string a = CanonicalQueryKey(kTcQuery, {});
  EXPECT_EQ(FingerprintKey(a), FingerprintKey(a));
  EXPECT_NE(FingerprintKey(a), FingerprintKey(a + "x"));
}

// ---------------------------------------------------------------------------
// Generation counters

TEST(GenerationTest, DataGenerationCountsOnlyDataChanges) {
  Relation r(2);
  const uint64_t g0 = r.data_generation();
  EXPECT_TRUE(r.Insert({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(r.data_generation(), g0 + 1);
  // A duplicate insert is a no-op for the extension.
  EXPECT_FALSE(r.Insert({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(r.data_generation(), g0 + 1);
  // Index maintenance is structural, not data.
  r.DropIndexes();
  EXPECT_EQ(r.data_generation(), g0 + 1);
  r.TruncateTo(0);
  EXPECT_EQ(r.data_generation(), g0 + 2);
  r.Clear();
  EXPECT_EQ(r.data_generation(), g0 + 3);
}

TEST(GenerationTest, RelationUidsAreNeverReused) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Relation * a, db.Declare(db.Intern("a"), 2));
  const uint64_t a_uid = a->uid();
  EXPECT_NE(a_uid, 0u);
  ASSERT_TRUE(db.Remove(db.symbols().Lookup("a")));
  ASSERT_OK_AND_ASSIGN(Relation * a2, db.Declare(db.Intern("a"), 2));
  EXPECT_NE(a2->uid(), a_uid);
}

TEST(GenerationTest, DatabaseUidsAreDistinct) {
  Database a, b;
  EXPECT_NE(a.uid(), b.uid());
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCacheTest, HitIsBitIdenticalToRecomputationAcrossThreads) {
  for (unsigned nt : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    // Cold reference: same query, no cache.
    Database cold = ChainDb(8);
    QueryOptions cold_opts;
    cold_opts.eval.num_threads = nt;
    ASSERT_OK_AND_ASSIGN(QueryResponse ref, RunText(kTcQuery, &cold, cold_opts));

    Database db = ChainDb(8);
    ResultCache cache;
    QueryOptions opts;
    opts.eval.num_threads = nt;
    opts.cache.result_cache = &cache;
    ASSERT_OK_AND_ASSIGN(QueryResponse first, RunText(kTcQuery, &db, opts));
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(ExactContents(db), ExactContents(cold));

    ASSERT_OK_AND_ASSIGN(QueryResponse second, RunText(kTcQuery, &db, opts));
    EXPECT_TRUE(second.cache_hit);
    // The database is untouched and the response matches both the first
    // run and the cold reference.
    EXPECT_EQ(ExactContents(db), ExactContents(cold));
    EXPECT_EQ(second.stats.result_tuples, ref.stats.result_tuples);
    EXPECT_EQ(second.stats.datalog.tuples_derived,
              ref.stats.datalog.tuples_derived);
    EXPECT_EQ(second.stats.datalog.rule_firings, ref.stats.datalog.rule_firings);
    EXPECT_EQ(cache.Stats().hits, 1u);
    EXPECT_EQ(cache.Stats().misses, 1u);
  }
}

TEST(ResultCacheTest, InsertionInvalidates) {
  Database db = ChainDb(4);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());
  ASSERT_OK(db.AddFact("edge", {Value::Sym(db.Intern("a3")),
                                Value::Sym(db.Intern("a4"))}));
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_FALSE(r.cache_hit);

  Database cold = ChainDb(5);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));
}

TEST(ResultCacheTest, PreStateReplayRebuildsRemovedRelations) {
  Database db = ChainDb(6);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  const auto pre = ExactContents(db);
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());
  const auto post = ExactContents(db);

  // Drop everything the query materialized; the database now looks
  // exactly like it did before the original run.
  for (const auto& [name, rows] : post) {
    if (pre.count(name) == 0) {
      ASSERT_TRUE(db.Remove(db.symbols().Lookup(name)));
    }
  }
  ASSERT_EQ(ExactContents(db), pre);

  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(cache.Stats().replays, 1u);
  // Replay rebuilt the exact post-run state, insertion order included.
  EXPECT_EQ(ExactContents(db), post);

  // And the replayed entry serves the next lookup as a plain post-state
  // hit (relation uids changed, so the entry re-snapshot must hold).
  ASSERT_OK_AND_ASSIGN(QueryResponse again, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(cache.Stats().hits, 2u);
  EXPECT_EQ(cache.Stats().replays, 1u);
}

TEST(ResultCacheTest, ByteBudgetEvicts) {
  Database db = ChainDb(6);
  ResultCache cache(/*max_bytes=*/32 * 1024, /*num_shards=*/1);
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  // Distinct queries -> distinct entries, each a few KiB.
  for (int i = 0; i < 12; ++i) {
    std::string q = "query t" + std::to_string(i) + " { edge X -> Y : edge+; "
                    "distinguished X -> Y : t" + std::to_string(i) + "; }";
    ASSERT_OK(RunText(q, &db, opts).status());
  }
  cache::ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.inserts, 12u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, cache.max_bytes());
  EXPECT_LT(s.entries, s.inserts);
}

TEST(ResultCacheTest, TruncatedResponsesAreNeverCachedOrServed) {
  Database db = ChainDb(10);
  ResultCache cache;
  gov::GovernorContext governor;
  // The closure is one served round, so a row cap (not a round cap)
  // truncates it.
  governor.budget.max_result_rows = 5;
  governor.budget.return_partial = true;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  opts.eval.governor = &governor;
  ASSERT_OK_AND_ASSIGN(QueryResponse first, RunText(kTcQuery, &db, opts));
  ASSERT_TRUE(first.truncated);
  EXPECT_EQ(cache.Stats().inserts, 0u);
  ASSERT_OK_AND_ASSIGN(QueryResponse second, RunText(kTcQuery, &db, opts));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.truncated);
}

TEST(ResultCacheTest, EntriesAreScopedPerDatabase) {
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;

  Database db1 = ChainDb(4);
  Database db2 = ChainDb(7);
  ASSERT_OK(RunText(kTcQuery, &db1, opts).status());
  // Same query text, different database: must not serve db1's entry.
  ASSERT_OK_AND_ASSIGN(QueryResponse r2, RunText(kTcQuery, &db2, opts));
  EXPECT_FALSE(r2.cache_hit);
  Database cold = ChainDb(7);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db2, "t"), RelationSet(cold, "t"));
}

TEST(ResultCacheTest, ProvenanceAndExplainOnlyBypass) {
  Database db = ChainDb(4);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;

  eval::ProvenanceStore store;
  QueryOptions prov = opts;
  prov.eval.provenance = &store;
  ASSERT_OK(RunText(kTcQuery, &db, prov).status());
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, prov));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.Stats().inserts, 0u);

  QueryOptions ex = opts;
  ex.observability.explain = true;
  ex.observability.explain_only = true;
  ASSERT_OK(RunText(kTcQuery, &db, ex).status());
  ASSERT_OK_AND_ASSIGN(QueryResponse r2, RunText(kTcQuery, &db, ex));
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(cache.Stats().inserts, 0u);
}

TEST(ResultCacheTest, ClearDropsEntries) {
  Database db = ChainDb(4);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());
  EXPECT_EQ(cache.Stats().entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_FALSE(r.cache_hit);
}

// ---------------------------------------------------------------------------
// Run() wiring: explain, governor, metrics, slow-query log

TEST(RunCacheTest, StoredExplainServesLaterExplainRequests) {
  Database db = ChainDb(5);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  // Recorded without an explain request...
  ASSERT_OK_AND_ASSIGN(QueryResponse first, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(first.explain.empty());

  // ...but a later hit that asks for EXPLAIN gets the rendering the
  // original run produced — identical to a cold explain run.
  QueryOptions ex = opts;
  ex.observability.explain = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse hit, RunText(kTcQuery, &db, ex));
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_FALSE(hit.explain.empty());

  Database cold = ChainDb(5);
  QueryOptions cold_ex;
  cold_ex.observability.explain = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse ref, RunText(kTcQuery, &cold, cold_ex));
  EXPECT_EQ(hit.explain, ref.explain);

  // Without the request, the hit's explain stays stripped.
  ASSERT_OK_AND_ASSIGN(QueryResponse quiet, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(quiet.cache_hit);
  EXPECT_TRUE(quiet.explain.empty());
}

TEST(RunCacheTest, HitsChargeNoResourceBudget) {
  Database db = ChainDb(8);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());

  // A budget this tight fails the query when recomputed...
  Database cold = ChainDb(8);
  gov::GovernorContext tight;
  tight.budget.max_result_rows = 1;
  QueryOptions governed;
  governed.eval.governor = &tight;
  auto cold_run = RunText(kTcQuery, &cold, governed);
  ASSERT_FALSE(cold_run.ok());
  EXPECT_EQ(cold_run.status().code(), StatusCode::kBudgetExceeded);

  // ...but the cache serves the hit without charging it.
  gov::GovernorContext tight2;
  tight2.budget.max_result_rows = 1;
  QueryOptions hit_opts = opts;
  hit_opts.eval.governor = &tight2;
  ASSERT_OK_AND_ASSIGN(QueryResponse hit, RunText(kTcQuery, &db, hit_opts));
  EXPECT_TRUE(hit.cache_hit);
}

TEST(RunCacheTest, CancelledLookupDoesNotServe) {
  Database db = ChainDb(5);
  ResultCache cache;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());

  gov::GovernorContext governor;
  governor.token.Cancel();
  QueryOptions cancelled = opts;
  cancelled.eval.governor = &governor;
  auto r = RunText(kTcQuery, &db, cancelled);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(RunCacheTest, MetricsAndSlowLogRecordServing) {
  Database db = ChainDb(5);
  ResultCache cache;
  obs::MetricsRegistry metrics;
  obs::SlowQueryLog slowlog;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  opts.observability.metrics = &metrics;
  opts.observability.slow_query_log = &slowlog;
  opts.observability.slow_query_threshold_ns = 1;  // capture everything

  ASSERT_OK(RunText(kTcQuery, &db, opts).status());
  ASSERT_OK_AND_ASSIGN(QueryResponse hit, RunText(kTcQuery, &db, opts));
  ASSERT_TRUE(hit.cache_hit);

  // The owner publishes the cache's gauges; queries never do.
  cache.ExportMetrics(&metrics);
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.gauges.at("cache.hits"), 1);
  EXPECT_EQ(snap.gauges.at("cache.misses"), 1);
  EXPECT_GT(snap.gauges.at("cache.bytes"), 0);

  std::vector<obs::SlowQueryRecord> entries = slowlog.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].cache_hit);
  EXPECT_TRUE(entries[1].cache_hit);
  EXPECT_NE(entries[1].ToJson().find("\"cache_hit\":true"), std::string::npos);
}

TEST(RunCacheTest, OversizedAnswerIsPublishedAsRejected) {
  // A one-byte, one-shard cache cannot hold any answer: Record() rejects
  // it, and the rejection must show up beside the other cache gauges.
  Database db = ChainDb(5);
  ResultCache cache(/*max_bytes=*/1, /*num_shards=*/1);
  obs::MetricsRegistry metrics;
  QueryOptions opts;
  opts.cache.result_cache = &cache;
  opts.observability.metrics = &metrics;
  ASSERT_OK(RunText(kTcQuery, &db, opts).status());

  cache.ExportMetrics(&metrics);
  obs::MetricsSnapshot snap = metrics.Snapshot();
  ASSERT_EQ(snap.gauges.count("cache.rejected"), 1u);
  EXPECT_EQ(snap.gauges.at("cache.rejected"), 1);
  EXPECT_EQ(snap.gauges.at("cache.inserts"), 0);
  EXPECT_EQ(cache.Stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Materialized views

TEST(ViewCatalogTest, DefineMaterializesAndServes) {
  Database db = ChainDb(6);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));
  EXPECT_EQ(views.size(), 1u);

  Database cold = ChainDb(6);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));

  QueryOptions opts;
  opts.cache.views = &views;
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(r.served_from_view);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.stats.result_tuples, cold.Find("t")->size());
  EXPECT_EQ(views.StatsOf("tc").served, 1u);
}

TEST(ViewCatalogTest, IncrementalMaintenanceMatchesRecomputation) {
  for (unsigned nt : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    Database db = ChainDb(5);
    ViewCatalog views;
    QueryOptions def_opts;
    def_opts.eval.num_threads = nt;
    ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                         MakeViewDefinition("tc", kTcQuery, &db, def_opts));
    ASSERT_OK(views.Define(std::move(def), &db));

    // Grow the base: one new edge extending the chain, one branching off.
    ASSERT_OK(db.AddFact("edge", {Value::Sym(db.Intern("a4")),
                                  Value::Sym(db.Intern("a5"))}));
    ASSERT_OK(db.AddFact("edge", {Value::Sym(db.Intern("a2")),
                                  Value::Sym(db.Intern("b0"))}));
    EXPECT_FALSE(views.StatsOf("tc", &db).fresh);
    ASSERT_OK(views.Refresh("tc", &db));

    cache::ViewStats vs = views.StatsOf("tc", &db);
    EXPECT_EQ(vs.full_refreshes, 1u);  // only the Define() one
    EXPECT_EQ(vs.incremental_refreshes, 1u);
    EXPECT_TRUE(vs.fresh);

    Database cold = ChainDb(5);
    ASSERT_OK(cold.AddFact("edge", {Value::Sym(cold.Intern("a4")),
                                    Value::Sym(cold.Intern("a5"))}));
    ASSERT_OK(cold.AddFact("edge", {Value::Sym(cold.Intern("a2")),
                                    Value::Sym(cold.Intern("b0"))}));
    ASSERT_OK(RunText(kTcQuery, &cold).status());
    EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));
    EXPECT_EQ(vs.result_rows, cold.Find("t")->size());
  }
}

TEST(ViewCatalogTest, ServingRefreshesStaleViews) {
  Database db = ChainDb(4);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));
  ASSERT_OK(db.AddFact("edge", {Value::Sym(db.Intern("a3")),
                                Value::Sym(db.Intern("a4"))}));

  QueryOptions opts;
  opts.cache.views = &views;
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(r.served_from_view);
  Database cold = ChainDb(5);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));
  EXPECT_EQ(r.stats.result_tuples, cold.Find("t")->size());
  EXPECT_EQ(views.StatsOf("tc").incremental_refreshes, 1u);
}

TEST(ViewCatalogTest, NegationForcesFullRefresh) {
  Database db;
  auto sym = [&](const char* s) { return Value::Sym(db.Intern(s)); };
  ASSERT_OK(db.AddFact("parent", {sym("ann"), sym("bob")}));
  ASSERT_OK(db.AddFact("parent", {sym("art"), sym("bea")}));
  ASSERT_OK(db.AddFact("parent", {sym("bob"), sym("cid")}));
  for (const char* p : {"ann", "art", "bea", "bob", "cid"}) {
    ASSERT_OK(db.AddFact("person", {sym(p)}));
  }
  const std::string q =
      "query nd {\n"
      "  node P2 [person];\n"
      "  edge P1 -> P3 : parent+;\n"
      "  edge P2 -> P3 : !parent+;\n"
      "  distinguished P1 -> P3 : nd(P2);\n"
      "}\n";
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("nd", q, &db));
  ASSERT_OK(views.Define(std::move(def), &db));

  // Inserting into the negated base can *retract* view tuples, so the
  // refresh must be full, and the result must match recomputation.
  ASSERT_OK(db.AddFact("parent", {sym("art"), sym("cid")}));
  ASSERT_OK(views.Refresh("nd", &db));
  cache::ViewStats vs = views.StatsOf("nd", &db);
  EXPECT_EQ(vs.full_refreshes, 2u);
  EXPECT_EQ(vs.incremental_refreshes, 0u);

  Database cold;
  auto csym = [&](const char* s) { return Value::Sym(cold.Intern(s)); };
  ASSERT_OK(cold.AddFact("parent", {csym("ann"), csym("bob")}));
  ASSERT_OK(cold.AddFact("parent", {csym("art"), csym("bea")}));
  ASSERT_OK(cold.AddFact("parent", {csym("bob"), csym("cid")}));
  ASSERT_OK(cold.AddFact("parent", {csym("art"), csym("cid")}));
  for (const char* p : {"ann", "art", "bea", "bob", "cid"}) {
    ASSERT_OK(cold.AddFact("person", {csym(p)}));
  }
  ASSERT_OK(RunText(q, &cold).status());
  EXPECT_EQ(RelationSet(db, "nd"), RelationSet(cold, "nd"));
}

TEST(ViewCatalogTest, TamperedOutputForcesFullRefresh) {
  Database db = ChainDb(4);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));

  // A foreign write into the view's output relation.
  ASSERT_OK(db.AddFact("t", {Value::Sym(db.Intern("x")),
                             Value::Sym(db.Intern("y"))}));
  ASSERT_OK(views.Refresh("tc", &db));
  EXPECT_EQ(views.StatsOf("tc").full_refreshes, 2u);
  // The full refresh evicted the foreign row.
  EXPECT_FALSE(RelationSet(db, "t").count("x,y"));

  Database cold = ChainDb(4);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));
}

TEST(ViewCatalogTest, ShrunkBaseForcesFullRefresh) {
  Database db = ChainDb(6);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));

  db.FindMutable(db.symbols().Lookup("edge"))->Clear();
  ASSERT_OK(db.AddFact("edge", {Value::Sym(db.Intern("a0")),
                                Value::Sym(db.Intern("a1"))}));
  ASSERT_OK(views.Refresh("tc", &db));
  EXPECT_EQ(views.StatsOf("tc").full_refreshes, 2u);
  EXPECT_EQ(RelationSize(db, "t"), 1u);
}

TEST(ViewCatalogTest, SummarizationViewsAreRejected) {
  Database db;
  auto sym = [&](const char* s) { return Value::Sym(db.Intern(s)); };
  ASSERT_OK(db.AddFact("w", {sym("a"), sym("b"), Value::Int(1)}));
  auto r = MakeViewDefinition("sum",
                              "query longest {\n"
                              "  summarize E = max<sum<D>> over w(D);\n"
                              "  distinguished X -> Y : longest(E);\n"
                              "}\n",
                              &db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(ViewCatalogTest, CatalogIsBoundToOneDatabase) {
  Database db1 = ChainDb(4);
  Database db2 = ChainDb(4);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db1));
  ASSERT_OK(views.Define(std::move(def), &db1));
  EXPECT_FALSE(views.Refresh("tc", &db2).ok());
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def2,
                       MakeViewDefinition("tc2", kTcQuery, &db2));
  EXPECT_FALSE(views.Define(std::move(def2), &db2).ok());
}

TEST(ViewCatalogTest, ConflictingOutputPredicatesAreRejected) {
  Database db = ChainDb(4);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("v1", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));
  // Same program, different view name -> same output relations.
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def2,
                       MakeViewDefinition("v2", kTcQuery, &db));
  EXPECT_FALSE(views.Define(std::move(def2), &db).ok());
  // Replacing the view under its own name is fine.
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def3,
                       MakeViewDefinition("v1", kTcQuery, &db));
  EXPECT_OK(views.Define(std::move(def3), &db));
}

TEST(ViewCatalogTest, DropForgetsTheView) {
  Database db = ChainDb(4);
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));
  EXPECT_TRUE(views.Drop("tc"));
  EXPECT_FALSE(views.Drop("tc"));
  EXPECT_EQ(views.size(), 0u);
  // The materialized relations remain — they are ordinary relations.
  EXPECT_GT(RelationSize(db, "t"), 0u);
}

TEST(ViewCatalogTest, ViewsWinOverResultCacheAndExportMetrics) {
  Database db = ChainDb(5);
  ViewCatalog views;
  ResultCache cache;
  obs::MetricsRegistry metrics;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db, &metrics));

  QueryOptions opts;
  opts.cache.views = &views;
  opts.cache.result_cache = &cache;
  opts.observability.metrics = &metrics;
  ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
  EXPECT_TRUE(r.served_from_view);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.Stats().inserts, 0u);

  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("view.refreshes_full"), 1);
  EXPECT_EQ(snap.counters.at("view.served"), 1);
}

// ---------------------------------------------------------------------------
// Incremental refresh runs on the engine: lanes, random programs, governor.

/// Appends the edges a(from-1) -> a(from) ... a(to-1) -> a(to) plus a
/// branch a(k) -> b(k) off every fifth node in that range.
void GrowChain(Database* db, int from, int to) {
  for (int k = from; k <= to; ++k) {
    auto sym = [&](std::string s) { return Value::Sym(db->Intern(s)); };
    EXPECT_OK(db->AddFact("edge", {sym("a" + std::to_string(k - 1)),
                                   sym("a" + std::to_string(k))}));
    if (k % 5 == 0) {
      EXPECT_OK(db->AddFact("edge", {sym("a" + std::to_string(k)),
                                     sym("b" + std::to_string(k))}));
    }
  }
}

TEST(ViewCatalogTest, IncrementalRefreshIsIdenticalAcrossLanes) {
  std::map<std::string, std::vector<std::string>> contents[2];
  eval::EvalStats served[2];
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "1 lane" : "4 lanes");
    Database db = ChainDb(120);
    ViewCatalog views;
    QueryOptions opts;
    opts.eval.num_threads = i == 0 ? 1 : 4;
    ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                         MakeViewDefinition("tc", kTcQuery, &db, opts));
    ASSERT_OK(views.Define(std::move(def), &db));
    GrowChain(&db, 120, 200);
    ASSERT_OK(views.Refresh("tc", &db));
    EXPECT_EQ(views.StatsOf("tc").incremental_refreshes, 1u);
    contents[i] = ExactContents(db);
    opts.cache.views = &views;
    ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kTcQuery, &db, opts));
    EXPECT_TRUE(r.served_from_view);
    served[i] = r.stats.datalog;
  }
  EXPECT_EQ(contents[0], contents[1]);
  for (const auto& c : eval::kEvalCounters) {
    EXPECT_EQ(served[0].*c.field, served[1].*c.field) << c.field_name();
  }
}

TEST(ViewCatalogTest, IncrementalRefreshFromAnEmptyBaseServesTheClosure) {
  // The closure head stays empty while its base is, so the refresh serves
  // it with the TC kernel and feeds its rows to the rule reading it.
  Database db;
  ASSERT_OK(db.Declare("edge", 2).status());
  ViewCatalog views;
  ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                       MakeViewDefinition("tc", kTcQuery, &db));
  ASSERT_OK(views.Define(std::move(def), &db));
  EXPECT_EQ(RelationSize(db, "t"), 0u);
  GrowChain(&db, 1, 30);
  ASSERT_OK(views.Refresh("tc", &db));
  EXPECT_EQ(views.StatsOf("tc").incremental_refreshes, 1u);

  Database cold;
  GrowChain(&cold, 1, 30);
  ASSERT_OK(RunText(kTcQuery, &cold).status());
  EXPECT_EQ(RelationSet(db, "t"), RelationSet(cold, "t"));
  EXPECT_GT(RelationSize(db, "t"), 30u);
}

/// A view over a Datalog program: the engine-level definition that
/// MakeViewDefinition builds from GraphLog text.
cache::ViewDefinition DatalogView(const std::string& text, Database* db,
                                  unsigned threads) {
  cache::ViewDefinition def;
  def.name = "v";
  def.source_text = text;
  def.canonical_key = "datalog:" + text;
  Result<datalog::Program> prog = datalog::ParseProgram(text, &db->symbols());
  EXPECT_OK(prog.status());
  if (prog.ok()) def.program = *prog;
  def.idb_predicates = def.program.HeadPredicates();
  def.edb_predicates = def.program.EdbPredicates();
  def.result_predicates = def.idb_predicates;
  def.eval.num_threads = threads;
  return def;
}

/// Inserts `count` random e1/e2 edges and n1 nodes over n0..n11.
void AddRandomFacts(Database* db, uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  auto node = [&] {
    return Value::Sym(db->Intern("n" + std::to_string(rng() % 12)));
  };
  for (int k = 0; k < count; ++k) {
    switch (rng() % 5) {
      case 0:
        EXPECT_OK(db->AddFact("n1", {node()}));
        break;
      case 1:
      case 2:
        EXPECT_OK(db->AddFact("e2", {node(), node()}));
        break;
      default:
        EXPECT_OK(db->AddFact("e1", {node(), node()}));
        break;
    }
  }
}

TEST(ViewCatalogTest, GrowThenRefreshMatchesColdEvaluateOnRandomPrograms) {
  testing::RandomProgramOptions gen;
  gen.negation_prob = 0.0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Positive programs, so every refresh is incremental: drop the
    // generator's final consumer rule, which negates the top predicate.
    std::string text = testing::RandomLinearProgram(gen, seed);
    text.erase(text.find("non-result("));
    Database db;
    AddRandomFacts(&db, seed, 20);
    ViewCatalog views;
    ASSERT_OK(
        views.Define(DatalogView(text, &db, seed % 2 == 0 ? 1 : 4), &db));
    AddRandomFacts(&db, seed + 1000, 15);
    ASSERT_OK(views.Refresh("v", &db));
    EXPECT_EQ(views.StatsOf("v").incremental_refreshes, 1u);

    Database cold;
    AddRandomFacts(&cold, seed, 20);
    AddRandomFacts(&cold, seed + 1000, 15);
    ASSERT_OK(eval::EvaluateText(text, &cold).status());
    for (Symbol p : views.Find("v")->idb_predicates) {
      const std::string name = db.symbols().name(p);
      EXPECT_EQ(RelationSet(db, name), RelationSet(cold, name)) << name;
    }
  }
}

/// The rows of `name` in a fresh database holding only `db`'s current
/// edges, after a cold evaluation of `query`.
std::set<std::string> ColdRows(const Database& db, const std::string& query,
                               std::string_view name,
                               const QueryOptions& opts = {}) {
  Database cold;
  for (const auto& row : db.Find("edge")->rows()) {
    std::vector<Value> t;
    for (const Value& v : row) {
      t.push_back(Value::Sym(cold.Intern(db.symbols().name(v.AsSymbol()))));
    }
    EXPECT_OK(cold.AddFact("edge", t));
  }
  EXPECT_OK(RunText(query, &cold, opts).status());
  return RelationSet(cold, name);
}

/// Removes the last edge, so the next refresh of a view over `edge` is a
/// full one (its base shrank).
void DropLastEdge(Database* db) {
  storage::Relation* rel = db->FindMutable(db->symbols().Lookup("edge"));
  ASSERT_NE(rel, nullptr);
  rel->TruncateTo(rel->size() - 1);
}

TEST(ViewCatalogTest, GovernedRefreshFailsAndLeavesTheViewUnchanged) {
  // graphlog::Run refreshes a stale view under the request's governor
  // before serving it. Each failure fires inside that refresh: a stall at
  // the first fixpoint round outlives the deadline or is woken by the
  // cancellation, and a pool.task fault fails a lane. The fallback
  // evaluation of the same request then fails as well.
  for (StatusCode want : {StatusCode::kDeadlineExceeded,
                          StatusCode::kCancelled, StatusCode::kInternal}) {
    for (bool full : {false, true}) {
      SCOPED_TRACE(std::string(StatusCodeToString(want)) +
                   (full ? " full" : " incremental"));
      Database db = ChainDb(60);
      ViewCatalog views;
      QueryOptions opts;
      opts.eval.num_threads = 4;
      ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                           MakeViewDefinition("tc", kTcQuery, &db, opts));
      ASSERT_OK(views.Define(std::move(def), &db));
      if (full) DropLastEdge(&db);
      GrowChain(&db, 60, 90);
      const auto before = ExactContents(db);

      gov::GovernorContext g;
      gov::FaultInjector faults;
      g.faults = &faults;
      gov::FaultSpec spec;
      const char* site = "eval.round";
      std::thread canceller;
      if (want == StatusCode::kInternal) {
        site = "pool.task";
        spec.trigger_hit = 2;  // fails a lane after the first work item
        spec.repeat = true;
      } else {
        spec.action = gov::FaultAction::kStall;
        if (want == StatusCode::kDeadlineExceeded) {
          g.deadline = gov::Deadline::AfterMillis(200);
          spec.stall_ms = 400;
        } else {
          spec.stall_ms = 60'000;  // until the cancellation wakes it
          canceller = std::thread([&] {
            while (faults.hits("eval.round") == 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            g.token.Cancel();
          });
        }
      }
      faults.Arm(site, spec);
      opts.cache.views = &views;
      opts.eval.governor = &g;
      Result<QueryResponse> r = RunText(kTcQuery, &db, opts);
      if (canceller.joinable()) canceller.join();
      EXPECT_EQ(r.status().code(), want);
      EXPECT_GT(faults.hits(site), 0u);  // the refresh ran
      EXPECT_EQ(ExactContents(db), before);
      EXPECT_EQ(views.StatsOf("tc").full_refreshes, 1u);
      EXPECT_EQ(views.StatsOf("tc").incremental_refreshes, 0u);

      // The next refresh succeeds, of the same kind, and matches a cold
      // evaluation.
      ASSERT_OK(views.Refresh("tc", &db));
      EXPECT_EQ(views.StatsOf("tc").full_refreshes, full ? 2u : 1u);
      EXPECT_EQ(views.StatsOf("tc").incremental_refreshes, full ? 0u : 1u);
      EXPECT_EQ(RelationSet(db, "t"), ColdRows(db, kTcQuery, "t"));
    }
  }
}

/// Replaces `db`'s edges by the chain nodes[0] -> nodes[1] -> ...
void ReplaceChain(Database* db, const std::vector<std::string>& nodes) {
  if (storage::Relation* rel =
          db->FindMutable(db->symbols().Lookup("edge"))) {
    rel->Clear();
  }
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    EXPECT_OK(db->AddFact("edge", {Value::Sym(db->Intern(nodes[i])),
                                   Value::Sym(db->Intern(nodes[i + 1]))}));
  }
}

TEST(ViewCatalogTest, FailedRefreshLeavesNoStaleCsrBehind) {
  // A columnar view shares the caller's CSR cache, which serves a snapshot
  // while the relation's (uid, data_generation, size) stamp matches. A
  // failed full refresh builds a CSR of `t` for the join of `r` before it
  // fails. The restored `t`, and every later state of it, must carry
  // stamps that snapshot never saw, even when a later refresh derives as
  // many rows of `t` from other edges over the same nodes.
  constexpr char kQuery[] =
      "query t { edge X -> Y : edge+; distinguished X -> Y : t; }\n"
      "query r { edge X -> Y : t t; distinguished X -> Y : r; }";
  const std::vector<std::string> forward = {"n0", "n1", "n2",
                                            "n3", "n4", "n5"};
  const std::vector<std::string> backward(forward.rbegin(), forward.rend());
  columnar::CsrCache csrs[2];
  // A view over the a-chain, whose base then becomes the forward chain.
  auto setup = [&](Database* db, ViewCatalog* views, int i,
                   QueryOptions* opts) {
    ReplaceChain(db, {"a0", "a1", "a2", "a3", "a4", "a5"});
    opts->eval.columnar = true;
    opts->eval.csr_cache = &csrs[i];
    ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                         MakeViewDefinition("v", kQuery, db, *opts));
    ASSERT_OK(views->Define(std::move(def), db));
    ReplaceChain(db, forward);
    opts->cache.views = views;
  };

  // The number of fixpoint rounds a successful refresh takes, on a twin
  // of the database below.
  uint64_t rounds = 0;
  {
    Database twin;
    ViewCatalog views;
    QueryOptions opts;
    setup(&twin, &views, 0, &opts);
    gov::GovernorContext g;
    gov::FaultInjector faults;
    g.faults = &faults;
    opts.eval.governor = &g;
    ASSERT_OK_AND_ASSIGN(QueryResponse r, RunText(kQuery, &twin, opts));
    ASSERT_TRUE(r.served_from_view);
    rounds = faults.hits("eval.round");
  }

  Database db;
  ViewCatalog views;
  QueryOptions opts;
  setup(&db, &views, 1, &opts);
  const auto before = ExactContents(db);
  gov::GovernorContext g;
  gov::FaultInjector faults;
  gov::FaultSpec spec;  // fails the refresh's last round and every later
  spec.trigger_hit = rounds;
  spec.repeat = true;
  faults.Arm("eval.round", spec);
  g.faults = &faults;
  opts.eval.governor = &g;
  EXPECT_EQ(RunText(kQuery, &db, opts).status().code(), StatusCode::kInternal);
  EXPECT_EQ(ExactContents(db), before);

  ReplaceChain(&db, backward);
  ASSERT_OK(views.Refresh("v", &db));
  EXPECT_EQ(views.StatsOf("v").full_refreshes, 2u);
  QueryOptions cold;
  cold.eval.columnar = true;
  EXPECT_EQ(RelationSet(db, "t"), ColdRows(db, kQuery, "t", cold));
  EXPECT_EQ(RelationSet(db, "r"), ColdRows(db, kQuery, "r", cold));
  EXPECT_EQ(RelationSize(db, "r"), 10u);
}

}  // namespace
}  // namespace graphlog
