// Columnar/CSR layer: CSR construction, the bitset primitive, cache
// invalidation, and — the load-bearing contract — bit-identical engine
// output (rows, insertion order, provenance, logical stats) between the
// row path and the columnar path, at every thread count. The columnar
// kernels (ColumnarTransitiveClosure, EvalRpqBitset) are checked
// set-equal against their oracles (TcAlgorithm::kNaive, EvalRpq) and
// order-deterministic across thread counts.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "columnar/bitset.h"
#include "columnar/csr.h"
#include "columnar/csr_cache.h"
#include "eval/engine.h"
#include "eval/provenance.h"
#include "obs/metrics.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using columnar::Bitset;
using columnar::BuildCsr;
using columnar::Csr;
using columnar::CsrCache;
using eval::EvalOptions;
using eval::EvalStats;
using eval::Justification;
using eval::ProvenanceStore;
using storage::Database;
using storage::Relation;
using storage::Tuple;

// ---------------------------------------------------------------------------
// Bitset

TEST(BitsetTest, SetTestCount) {
  Bitset b(200);
  EXPECT_FALSE(b.Any());
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(199);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(199));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(198));
  EXPECT_EQ(b.Count(), 4u);
  EXPECT_TRUE(b.Any());
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Any());
}

TEST(BitsetTest, TestAndSet) {
  Bitset b(70);
  EXPECT_TRUE(b.TestAndSet(65));
  EXPECT_FALSE(b.TestAndSet(65));
  EXPECT_TRUE(b.Test(65));
}

TEST(BitsetTest, ForEachSetAscending) {
  Bitset b(300);
  const std::vector<uint32_t> want = {2, 63, 64, 65, 128, 299};
  for (uint32_t i : want) b.Set(i);
  std::vector<uint32_t> got;
  b.ForEachSet([&](uint32_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitsetTest, OrWithAndNot) {
  Bitset a(130), c(130);
  a.Set(1);
  a.Set(100);
  c.Set(100);
  c.Set(129);
  a.OrWith(c);
  EXPECT_EQ(a.Count(), 3u);

  // frontier &~ visited: only 1 survives.
  Bitset frontier(130), visited(130);
  frontier.Set(1);
  frontier.Set(100);
  visited.Set(100);
  EXPECT_TRUE(frontier.AndNot(visited));
  EXPECT_TRUE(frontier.Test(1));
  EXPECT_FALSE(frontier.Test(100));
  visited.Set(1);
  EXPECT_FALSE(frontier.AndNot(visited));
  EXPECT_FALSE(frontier.Any());
}

// ---------------------------------------------------------------------------
// CSR construction

Value Sym(Database* db, const std::string& s) {
  return Value::Sym(db->Intern(s));
}

TEST(CsrTest, ThreeLayoutsAgreeWithRows) {
  Database db;
  // b appears as a target before it appears as a source: dense ids
  // follow row-order first appearance across both columns.
  ASSERT_OK(db.AddFact("edge", {Sym(&db, "a"), Sym(&db, "b")}));
  ASSERT_OK(db.AddFact("edge", {Sym(&db, "a"), Sym(&db, "c")}));
  ASSERT_OK(db.AddFact("edge", {Sym(&db, "b"), Sym(&db, "c")}));
  ASSERT_OK(db.AddFact("edge", {Sym(&db, "c"), Sym(&db, "a")}));
  const Relation* rel = db.Find("edge");
  ASSERT_NE(rel, nullptr);

  ASSERT_OK_AND_ASSIGN(Csr csr, BuildCsr(*rel));
  EXPECT_EQ(csr.num_nodes(), 3u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.source_uid, rel->uid());
  EXPECT_EQ(csr.source_size, rel->size());

  // Forward spans enumerate targets in row insertion order — the same
  // order a posting-list probe of the row path would produce.
  const int64_t a = csr.IdOf(Sym(&db, "a"));
  const int64_t b = csr.IdOf(Sym(&db, "b"));
  const int64_t c = csr.IdOf(Sym(&db, "c"));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_GE(c, 0);
  EXPECT_EQ(csr.IdOf(Sym(&db, "zzz")), -1);
  auto fwd_a = csr.Fwd(static_cast<uint32_t>(a));
  ASSERT_EQ(fwd_a.size(), 2u);
  EXPECT_EQ(csr.values[fwd_a[0]], Sym(&db, "b"));
  EXPECT_EQ(csr.values[fwd_a[1]], Sym(&db, "c"));

  // Reverse spans mirror: sources of c in row order are a then b.
  auto rev_c = csr.Rev(static_cast<uint32_t>(c));
  ASSERT_EQ(rev_c.size(), 2u);
  EXPECT_EQ(csr.values[rev_c[0]], Sym(&db, "a"));
  EXPECT_EQ(csr.values[rev_c[1]], Sym(&db, "b"));

  // Sorted spans ascend; HasEdge binary-searches them.
  auto sorted_a = csr.Fwd(static_cast<uint32_t>(a));
  for (size_t i = 1; i < sorted_a.size(); ++i) {
    EXPECT_LE(csr.Sorted(static_cast<uint32_t>(a))[i - 1],
              csr.Sorted(static_cast<uint32_t>(a))[i]);
  }
  EXPECT_TRUE(csr.HasEdge(static_cast<uint32_t>(a), static_cast<uint32_t>(b)));
  EXPECT_TRUE(csr.HasEdge(static_cast<uint32_t>(c), static_cast<uint32_t>(a)));
  EXPECT_FALSE(
      csr.HasEdge(static_cast<uint32_t>(b), static_cast<uint32_t>(a)));

  // Decoding every (fwd) span reproduces the relation's exact rows.
  std::multiset<std::string> decoded, original;
  for (uint32_t u = 0; u < csr.num_nodes(); ++u) {
    for (uint32_t t : csr.Fwd(u)) {
      decoded.insert(csr.values[u].ToString(db.symbols()) + "," +
                     csr.values[t].ToString(db.symbols()));
    }
  }
  for (const Tuple& t : rel->rows()) {
    original.insert(t[0].ToString(db.symbols()) + "," +
                    t[1].ToString(db.symbols()));
  }
  EXPECT_EQ(decoded, original);
}

TEST(CsrTest, RejectsNonBinaryRelations) {
  Relation r(3);
  EXPECT_FALSE(BuildCsr(r).ok());
}

TEST(CsrTest, EmptyRelationBuildsEmptySnapshot) {
  Relation r(2);
  ASSERT_OK_AND_ASSIGN(Csr csr, BuildCsr(r));
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrTest, BuildFoldsMetrics) {
  Relation r(2);
  r.Insert(Tuple{Value::Int(1), Value::Int(2)});
  obs::MetricsRegistry metrics;
  ASSERT_OK(BuildCsr(r, &metrics).status());
  EXPECT_EQ(metrics.counter("columnar.builds")->value(), 1u);
  EXPECT_GT(metrics.counter("columnar.build_ns")->value(), 0u);
}

// ---------------------------------------------------------------------------
// CsrCache

TEST(CsrCacheTest, ReusesUntilDataChanges) {
  Database db;
  ASSERT_OK(db.AddFact("edge", {Value::Int(1), Value::Int(2)}));
  const Relation* rel = db.Find("edge");
  ASSERT_NE(rel, nullptr);

  CsrCache cache;
  ASSERT_OK_AND_ASSIGN(auto c1, cache.Get(*rel));
  ASSERT_OK_AND_ASSIGN(auto c2, cache.Get(*rel));
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().reuses, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // Data change: the stale snapshot must never be served again.
  ASSERT_OK(db.AddFact("edge", {Value::Int(2), Value::Int(3)}));
  ASSERT_OK_AND_ASSIGN(auto c3, cache.Get(*rel));
  EXPECT_NE(c1.get(), c3.get());
  EXPECT_EQ(c3->num_edges(), 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(CsrCacheTest, ClearAndTruncateInvalidate) {
  Database db;
  ASSERT_OK(db.AddFact("edge", {Value::Int(1), Value::Int(2)}));
  ASSERT_OK(db.AddFact("edge", {Value::Int(3), Value::Int(4)}));
  Relation* rel = db.FindMutable(db.Intern("edge"));
  ASSERT_NE(rel, nullptr);

  CsrCache cache;
  ASSERT_OK(cache.Get(*rel).status());
  rel->TruncateTo(1);
  ASSERT_OK_AND_ASSIGN(auto c, cache.Get(*rel));
  EXPECT_EQ(c->num_edges(), 1u);

  rel->Clear();
  ASSERT_OK_AND_ASSIGN(auto c2, cache.Get(*rel));
  EXPECT_EQ(c2->num_edges(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(CsrCacheTest, DropIndexesDoesNotInvalidate) {
  Database db;
  ASSERT_OK(db.AddFact("edge", {Value::Int(1), Value::Int(2)}));
  const Relation* rel = db.Find("edge");
  ASSERT_NE(rel, nullptr);

  CsrCache cache;
  ASSERT_OK_AND_ASSIGN(auto c1, cache.Get(*rel));
  rel->DropIndexes();  // bumps generation() but not data_generation()
  ASSERT_OK_AND_ASSIGN(auto c2, cache.Get(*rel));
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(cache.stats().reuses, 1u);
}

TEST(CsrCacheTest, UnownedRelationsAreNeverCached) {
  // uid 0 (not Database-owned): per-round engine deltas. Caching by uid
  // would alias unrelated relations, so every Get builds fresh.
  Relation r(2);
  r.Insert(Tuple{Value::Int(1), Value::Int(2)});
  ASSERT_EQ(r.uid(), 0u);
  CsrCache cache;
  ASSERT_OK_AND_ASSIGN(auto c1, cache.Get(r));
  ASSERT_OK_AND_ASSIGN(auto c2, cache.Get(r));
  EXPECT_NE(c1.get(), c2.get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().reuses, 0u);
}

// ---------------------------------------------------------------------------
// Relation satellite changes: MemoryBytes caching, AppendUnique

TEST(RelationTest, MemoryBytesCacheTracksMutations) {
  // r1 interleaves MemoryBytes() reads with mutations; r2 performs the
  // same mutations and reads once. The cached estimate must match the
  // from-scratch one at every point.
  Relation r1(2), r2(2);
  for (int i = 0; i < 50; ++i) {
    r1.Insert(Tuple{Value::Int(i), Value::Int(i + 1)});
    r2.Insert(Tuple{Value::Int(i), Value::Int(i + 1)});
    ASSERT_EQ(r1.MemoryBytes(), r1.MemoryBytes());
  }
  EXPECT_EQ(r1.MemoryBytes(), r2.MemoryBytes());

  r1.BuildIndex({0});
  r2.BuildIndex({0});
  EXPECT_EQ(r1.MemoryBytes(), r2.MemoryBytes());
  const size_t with_index = r1.MemoryBytes();

  r1.DropIndexes();
  EXPECT_LT(r1.MemoryBytes(), with_index);

  r1.TruncateTo(10);
  r2.DropIndexes();
  r2.TruncateTo(10);
  EXPECT_EQ(r1.MemoryBytes(), r2.MemoryBytes());

  r1.Clear();
  EXPECT_EQ(r1.MemoryBytes(), Relation(2).MemoryBytes());
}

TEST(RelationTest, AppendUniqueSyncsLazily) {
  Relation r(2);
  r.Insert(Tuple{Value::Int(0), Value::Int(1)});
  for (int i = 1; i < 20; ++i) {
    r.AppendUnique(Tuple{Value::Int(i), Value::Int(i + 1)});
  }
  EXPECT_EQ(r.size(), 20u);
  // Contains forces the lazy dedup-set rebuild.
  EXPECT_TRUE(r.Contains(Tuple{Value::Int(19), Value::Int(20)}));
  EXPECT_FALSE(r.Contains(Tuple{Value::Int(19), Value::Int(21)}));
  // Insert after sync still dedups.
  EXPECT_FALSE(r.Insert(Tuple{Value::Int(5), Value::Int(6)}));
  EXPECT_TRUE(r.Insert(Tuple{Value::Int(99), Value::Int(100)}));
  EXPECT_EQ(r.size(), 21u);
}

// ---------------------------------------------------------------------------
// Engine equivalence: columnar must be bit-identical to the row path

/// Everything observable about one evaluation (same shape as the
/// parallel determinism suite).
struct RunResult {
  EvalStats stats;
  std::map<std::string, std::vector<Tuple>> rows;
  std::map<std::string, std::vector<Justification>> provenance;
};

RunResult RunProgram(const std::string& program, bool columnar,
                     unsigned num_threads,
                     const std::function<void(Database*)>& setup) {
  Database db;
  setup(&db);
  ProvenanceStore store;
  EvalOptions opts;
  opts.columnar = columnar;
  opts.num_threads = num_threads;
  opts.provenance = &store;
  auto r = eval::EvaluateText(program, &db, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  RunResult out;
  if (r.ok()) out.stats = *r;
  for (const auto& [sym, rel] : db.relations()) {
    const std::string name = db.symbols().name(sym);
    out.rows[name] = rel.rows();
    std::vector<Justification>& js = out.provenance[name];
    for (const Tuple& t : rel.rows()) {
      const Justification* j = store.Find(sym, t);
      js.push_back(j == nullptr ? Justification{} : *j);
    }
  }
  return out;
}

/// Rows (contents AND order), provenance, and every logical stat must be
/// identical. index_builds/index_appends are deliberately excluded: the
/// columnar path serves probes from CSR snapshots instead of hash
/// indexes, so its index counters legitimately differ.
void ExpectBitIdentical(const RunResult& row, const RunResult& col,
                        const std::string& label) {
  EXPECT_EQ(row.stats.iterations, col.stats.iterations) << label;
  EXPECT_EQ(row.stats.rule_firings, col.stats.rule_firings) << label;
  EXPECT_EQ(row.stats.tuples_derived, col.stats.tuples_derived) << label;
  EXPECT_EQ(row.stats.strata, col.stats.strata) << label;
  EXPECT_EQ(row.stats.peak_delta_rows, col.stats.peak_delta_rows) << label;
  EXPECT_EQ(row.stats.truncated, col.stats.truncated) << label;
  ASSERT_EQ(row.rows.size(), col.rows.size()) << label;
  for (const auto& [name, rows] : row.rows) {
    auto it = col.rows.find(name);
    ASSERT_NE(it, col.rows.end()) << label << " " << name;
    ASSERT_EQ(rows, it->second)
        << label << ": " << name << " differs in contents or order";
  }
  for (const auto& [name, js] : row.provenance) {
    auto it = col.provenance.find(name);
    ASSERT_NE(it, col.provenance.end()) << label << " " << name;
    ASSERT_EQ(js.size(), it->second.size()) << label << " " << name;
    for (size_t i = 0; i < js.size(); ++i) {
      EXPECT_EQ(js[i].rule_index, it->second[i].rule_index)
          << label << " " << name << " row " << i;
      EXPECT_EQ(js[i].premises, it->second[i].premises)
          << label << " " << name << " row " << i;
    }
  }
}

void CheckColumnarEquivalence(const std::string& program,
                              const std::function<void(Database*)>& setup) {
  for (unsigned threads : {1u, 4u}) {
    RunResult row = RunProgram(program, /*columnar=*/false, threads, setup);
    RunResult col = RunProgram(program, /*columnar=*/true, threads, setup);
    ExpectBitIdentical(row, col, std::to_string(threads) + " lanes");
  }
}

void SeedRandomGraph(Database* db, int n, int m, uint64_t seed) {
  ASSERT_OK(workload::RandomDigraph(n, m, seed, db));
}

TEST(ColumnarEngineTest, LinearTransitiveClosure) {
  CheckColumnarEquivalence(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
      [](Database* db) { SeedRandomGraph(db, 150, 600, 7); });
}

TEST(ColumnarEngineTest, NonlinearTransitiveClosure) {
  CheckColumnarEquivalence(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n",
      [](Database* db) { SeedRandomGraph(db, 100, 400, 11); });
}

TEST(ColumnarEngineTest, SameGenerationStyleRecursion) {
  CheckColumnarEquivalence(
      "sg(X, X) :- person(X).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
      [](Database* db) {
        SeedRandomGraph(db, 80, 240, 3);
        ASSERT_OK(eval::EvaluateText("up(X, Y) :- edge(X, Y).\n"
                                     "down(X, Y) :- edge(Y, X).\n"
                                     "person(X) :- edge(X, Y).\n"
                                     "person(Y) :- edge(X, Y).\n",
                                     db)
                      .status());
      });
}

TEST(ColumnarEngineTest, StratifiedNegationAndAggregates) {
  // Negation over a binary relation exercises the CSR existence checks
  // (HasEdge / non-empty span) in kNegCheck.
  CheckColumnarEquivalence(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "unreachable(X, Y) :- node(X), node(Y), !tc(X, Y).\n"
      "outdeg(X, count<Y>) :- tc(X, Y).\n",
      [](Database* db) {
        SeedRandomGraph(db, 40, 100, 5);
        ASSERT_OK(eval::EvaluateText("node(X) :- edge(X, Y).\n"
                                     "node(Y) :- edge(X, Y).\n",
                                     db)
                      .status());
      });
}

TEST(ColumnarEngineTest, RepeatedVariableAndConstantPatterns) {
  // Self-loops via a repeated variable (eq_cols) and bound constants
  // (fully-bound probe) — the CSR branches beyond plain {0}/{1} probes.
  CheckColumnarEquivalence(
      "loop(X) :- edge(X, X).\n"
      "two_hop(X, Y) :- edge(X, Z), edge(Z, Y).\n"
      "from_zero(Y) :- edge(0, Y).\n",
      [](Database* db) {
        for (int i = 0; i < 30; ++i) {
          ASSERT_OK(db->AddFact(
              "edge", {Value::Int(i % 7), Value::Int((i * 3) % 7)}));
        }
      });
}

TEST(ColumnarEngineTest, RandomLinearPrograms) {
  // Differential sweep: random stratified linear programs over random
  // EDBs, row vs columnar, both thread counts.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    testing::RandomProgramOptions gen;
    const std::string program = testing::RandomLinearProgram(gen, seed);
    auto setup = [seed](Database* db) {
      ASSERT_OK(workload::RandomDigraph(12, 30, seed, db, "e1"));
      ASSERT_OK(workload::RandomDigraph(12, 24, seed + 101, db, "e2"));
      for (int i = 0; i < 12; i += 2) {
        ASSERT_OK(db->AddFact("n1", {Value::Int(i)}));
      }
    };
    for (unsigned threads : {1u, 4u}) {
      RunResult row =
          RunProgram(program, /*columnar=*/false, threads, setup);
      RunResult col = RunProgram(program, /*columnar=*/true, threads, setup);
      ExpectBitIdentical(row, col,
                         "seed " + std::to_string(seed) + " at " +
                             std::to_string(threads) + " lanes");
    }
  }
}

TEST(ColumnarEngineTest, SharedCacheServesRepeatedRuns) {
  Database db;
  SeedRandomGraph(&db, 60, 200, 9);
  CsrCache cache;
  EvalOptions opts;
  opts.columnar = true;
  opts.csr_cache = &cache;
  ASSERT_OK(eval::EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                               "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                               &db, opts)
                .status());
  const uint64_t builds_first = cache.stats().builds;
  EXPECT_GT(builds_first, 0u);
  // Second run re-derives from scratch into already-populated IDBs; the
  // edge CSR must be reused, not rebuilt.
  ASSERT_OK(eval::EvaluateText("tc2(X, Y) :- edge(X, Z), edge(Z, Y).\n",
                               &db, opts)
                .status());
  EXPECT_GT(cache.stats().reuses, 0u);
}

// ---------------------------------------------------------------------------
// Columnar TC kernel

TEST(ColumnarTcTest, MatchesRowKernels) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(40, 120, seed, &db));
    const Relation* edges = db.Find("edge");
    ASSERT_NE(edges, nullptr);

    ASSERT_OK_AND_ASSIGN(Relation naive, tc::TransitiveClosure(
                                             *edges, tc::TcAlgorithm::kNaive));
    ASSERT_OK_AND_ASSIGN(Relation col, tc::ColumnarTransitiveClosure(*edges));
    EXPECT_TRUE(col.SetEquals(naive)) << "seed " << seed;
  }
}

TEST(ColumnarTcTest, OrderIdenticalAcrossThreadCounts) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(60, 180, 21, &db));
  const Relation* edges = db.Find("edge");
  ASSERT_NE(edges, nullptr);
  ASSERT_OK_AND_ASSIGN(Relation serial,
                       tc::ColumnarTransitiveClosure(*edges, 1));
  for (unsigned threads : {2u, 4u}) {
    ASSERT_OK_AND_ASSIGN(Relation parallel,
                         tc::ColumnarTransitiveClosure(*edges, threads));
    ASSERT_EQ(serial.rows(), parallel.rows())
        << threads << " lanes changed contents or insertion order";
  }
}

TEST(ColumnarTcTest, EmptyAndCyclicInputs) {
  Relation empty(2);
  ASSERT_OK_AND_ASSIGN(Relation closure, tc::ColumnarTransitiveClosure(empty));
  EXPECT_EQ(closure.size(), 0u);

  Relation cycle(2);
  cycle.Insert(Tuple{Value::Int(0), Value::Int(1)});
  cycle.Insert(Tuple{Value::Int(1), Value::Int(2)});
  cycle.Insert(Tuple{Value::Int(2), Value::Int(0)});
  ASSERT_OK_AND_ASSIGN(Relation cyc, tc::ColumnarTransitiveClosure(cycle));
  // Every node reaches every node, including itself.
  EXPECT_EQ(cyc.size(), 9u);
}

TEST(ColumnarTcTest, ReusesCacheAndFoldsMetrics) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(30, 90, 5, &db));
  const Relation* edges = db.Find("edge");
  ASSERT_NE(edges, nullptr);
  CsrCache cache;
  obs::MetricsRegistry metrics;
  tc::TcStats stats;
  ASSERT_OK(tc::ColumnarTransitiveClosure(*edges, 0, &metrics, nullptr,
                                          &stats, &cache)
                .status());
  EXPECT_GT(stats.pair_visits, 0u);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(metrics.counter("tc.invocations")->value(), 1u);
  ASSERT_OK(tc::ColumnarTransitiveClosure(*edges, 0, &metrics, nullptr,
                                          nullptr, &cache)
                .status());
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().reuses, 1u);
}

// ---------------------------------------------------------------------------
// RPQ bitset kernel

TEST(RpqBitsetTest, AgreesWithNfaOnRandomExpressions) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(10, 22, seed, &db, "p"));
    ASSERT_OK(workload::RandomDigraph(10, 16, seed + 77, &db, "q"));
    testing::RandomPreOptions gen;
    gl::PathExpr expr =
        testing::RandomPathExpr(gen, seed * 13 + 5, &db.symbols());
    graph::DataGraph g = graph::DataGraph::FromDatabase(db);
    ASSERT_OK_AND_ASSIGN(Relation via_nfa, rpq::EvalRpq(g, expr));
    ASSERT_OK_AND_ASSIGN(Relation via_bitset, rpq::EvalRpqBitset(g, expr));
    EXPECT_TRUE(via_bitset.SetEquals(via_nfa))
        << "expr " << expr.ToString(db.symbols()) << " seed " << seed;
  }
}

TEST(RpqBitsetTest, EndpointRestrictions) {
  Database db;
  ASSERT_OK(db.AddFact("p", {Sym(&db, "a"), Sym(&db, "b")}));
  ASSERT_OK(db.AddFact("p", {Sym(&db, "b"), Sym(&db, "c")}));
  ASSERT_OK(db.AddFact("p", {Sym(&db, "c"), Sym(&db, "d")}));
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  SymbolTable& syms = db.symbols();

  ASSERT_OK_AND_ASSIGN(gl::PathExpr expr, gl::ParsePathExpr("p+", &syms));

  rpq::RpqOptions opts;
  opts.source = Sym(&db, "a");
  ASSERT_OK_AND_ASSIGN(Relation from_a, rpq::EvalRpqBitset(g, expr, opts));
  EXPECT_EQ(from_a.size(), 3u);  // a->b, a->c, a->d

  opts.target = Sym(&db, "d");
  ASSERT_OK_AND_ASSIGN(Relation a_to_d, rpq::EvalRpqBitset(g, expr, opts));
  EXPECT_EQ(a_to_d.size(), 1u);

  rpq::RpqOptions missing;
  missing.source = Sym(&db, "zzz");
  ASSERT_OK_AND_ASSIGN(Relation none, rpq::EvalRpqBitset(g, expr, missing));
  EXPECT_EQ(none.size(), 0u);
}

TEST(RpqBitsetTest, ZeroLengthMatchesAndStats) {
  Database db;
  ASSERT_OK(db.AddFact("p", {Sym(&db, "a"), Sym(&db, "b")}));
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  ASSERT_OK_AND_ASSIGN(gl::PathExpr expr,
                       gl::ParsePathExpr("p*", &db.symbols()));
  rpq::RpqStats stats;
  ASSERT_OK_AND_ASSIGN(Relation out, rpq::EvalRpqBitset(g, expr, {}, &stats));
  // a->a, b->b (zero length) plus a->b.
  EXPECT_EQ(out.size(), 3u);
  EXPECT_GT(stats.product_states_visited, 0u);
  ASSERT_OK_AND_ASSIGN(Relation via_nfa, rpq::EvalRpq(g, expr));
  EXPECT_TRUE(out.SetEquals(via_nfa));
}

}  // namespace
}  // namespace graphlog
