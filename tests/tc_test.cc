// Tests for transitive closure: the columnar kernel (at 1 and 4 lanes)
// reproduces hand-computed closures and agrees with the oracle, the
// engine's plain fixpoint (testutil::NaiveClosure); and the three
// round-based closure algorithms, which the engine runs as Datalog
// programs, agree with the kernel.

#include <gtest/gtest.h>

#include <string>

#include "eval/engine.h"
#include "storage/relation.h"
#include "tc/columnar_tc.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog::tc {
namespace {

using eval::EvalOptions;
using eval::EvalStats;
using storage::Database;
using storage::Relation;
using storage::Tuple;

Relation MakeEdges(Database* db, std::vector<std::pair<int, int>> pairs) {
  Relation r(2);
  for (auto [a, b] : pairs) {
    r.Insert(Tuple{Value::Sym(db->Intern("n" + std::to_string(a))),
                   Value::Sym(db->Intern("n" + std::to_string(b)))});
  }
  return r;
}

/// The round-based closure algorithms, each as the engine's fixpoint over
/// a TC program the kernel does not serve.
enum class TcAlgorithm : uint8_t {
  kNaive,      ///< Strategy::kNaive: the full join T∘E every round
  kSemiNaive,  ///< the left-linear pair: only last round's pairs join E
  kSquaring,   ///< T := T ∪ T∘T, O(log diameter) rounds
};

/// The closure of `edges` by `algorithm`; `stats` gets the run's counters.
Result<Relation> EngineClosure(const Relation& edges, TcAlgorithm algorithm,
                               EvalStats* stats = nullptr) {
  Database db;
  db.relations().emplace(db.Intern("edge"), edges);
  EvalOptions opts;
  std::string program = "tc(X, Y) :- edge(X, Y).\n";
  switch (algorithm) {
    case TcAlgorithm::kNaive:
      opts.strategy = eval::Strategy::kNaive;
      program += "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
      break;
    case TcAlgorithm::kSemiNaive:
      program += "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";
      break;
    case TcAlgorithm::kSquaring:
      program += "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n";
      break;
  }
  GRAPHLOG_ASSIGN_OR_RETURN(EvalStats run,
                            eval::EvaluateText(program, &db, opts));
  if (stats != nullptr) *stats = run;
  return *db.Find("tc");
}

class TcAlgorithmTest : public ::testing::TestWithParam<TcAlgorithm> {};

TEST_P(TcAlgorithmTest, ChainClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_OK_AND_ASSIGN(Relation tc, EngineClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 10u);  // 5 choose 2
}

TEST_P(TcAlgorithmTest, CycleClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, EngineClosure(edges, GetParam()));
  // Every node reaches every node including itself: 9 pairs.
  EXPECT_EQ(tc.size(), 9u);
}

TEST_P(TcAlgorithmTest, DisconnectedComponents) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {2, 3}});
  ASSERT_OK_AND_ASSIGN(Relation tc, EngineClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 2u);
}

TEST_P(TcAlgorithmTest, EmptyRelation) {
  Relation edges(2);
  ASSERT_OK_AND_ASSIGN(Relation tc, EngineClosure(edges, GetParam()));
  EXPECT_TRUE(tc.empty());
}

TEST_P(TcAlgorithmTest, SelfLoopOnly) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, EngineClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 1u);
}

// The per-source BFS here is the columnar kernel, itself checked against
// the naive fixpoint by ColumnarCorpusTest below, so every instance
// (kNaive included) compares two independent algorithms.
TEST_P(TcAlgorithmTest, AgreesWithBfsOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(25, 60, seed, &db));
    const Relation& edges = *db.Find("edge");
    ASSERT_OK_AND_ASSIGN(Relation got, EngineClosure(edges, GetParam()));
    ASSERT_OK_AND_ASSIGN(Relation oracle, ColumnarTransitiveClosure(edges));
    EXPECT_TRUE(got.SetEquals(oracle)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TcAlgorithmTest,
                         ::testing::Values(TcAlgorithm::kNaive,
                                           TcAlgorithm::kSemiNaive,
                                           TcAlgorithm::kSquaring),
                         [](const auto& info) {
                           switch (info.param) {
                             case TcAlgorithm::kNaive:
                               return "Naive";
                             case TcAlgorithm::kSemiNaive:
                               return "SemiNaive";
                             case TcAlgorithm::kSquaring:
                               return "Squaring";
                           }
                           return "Unknown";
                         });

// The same corpus through the columnar kernel, parameterized over lane
// count: equal to the naive fixpoint as a set, and in the single-lane
// run's insertion order at every lane count.
class ColumnarCorpusTest : public ::testing::TestWithParam<unsigned> {
 protected:
  Relation Close(const Relation& edges) {
    Result<Relation> got = ColumnarTransitiveClosure(edges, GetParam());
    Result<Relation> one_lane = ColumnarTransitiveClosure(edges, 1);
    Result<Relation> oracle = testutil::NaiveClosure(edges);
    if (!got.ok() || !one_lane.ok() || !oracle.ok()) {
      ADD_FAILURE() << "a closure kernel failed";
      return Relation(2);
    }
    EXPECT_TRUE(got->SetEquals(*oracle)) << "differs from the naive fixpoint";
    EXPECT_EQ(got->rows(), one_lane->rows())
        << "insertion order differs from the single-lane run";
    return std::move(got).ValueOrDie();
  }
};

TEST_P(ColumnarCorpusTest, ChainClosure) {
  Database db;
  EXPECT_EQ(Close(MakeEdges(&db, {{0, 1}, {1, 2}, {2, 3}, {3, 4}})).size(),
            10u);
}

TEST_P(ColumnarCorpusTest, CycleClosure) {
  Database db;
  EXPECT_EQ(Close(MakeEdges(&db, {{0, 1}, {1, 2}, {2, 0}})).size(), 9u);
}

TEST_P(ColumnarCorpusTest, DisconnectedComponents) {
  Database db;
  EXPECT_EQ(Close(MakeEdges(&db, {{0, 1}, {2, 3}})).size(), 2u);
}

TEST_P(ColumnarCorpusTest, EmptyRelation) {
  EXPECT_TRUE(Close(Relation(2)).empty());
}

TEST_P(ColumnarCorpusTest, SelfLoopOnly) {
  Database db;
  EXPECT_EQ(Close(MakeEdges(&db, {{0, 0}})).size(), 1u);
}

TEST_P(ColumnarCorpusTest, AgreesWithNaiveOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db;
    ASSERT_OK(workload::RandomDigraph(25, 60, seed, &db));
    Close(*db.Find("edge"));
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ColumnarCorpusTest, ::testing::Values(1u, 4u));

TEST(TcStatsTest, SquaringUsesFewerRounds) {
  Database db;
  ASSERT_OK(workload::Chain(64, &db));
  const Relation& edges = *db.Find("edge");
  EvalStats semi, sq;
  ASSERT_OK(
      EngineClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  ASSERT_OK(EngineClosure(edges, TcAlgorithm::kSquaring, &sq).status());
  // Squaring: O(log diameter) rounds; semi-naive: O(diameter).
  EXPECT_GT(semi.iterations, 60u);
  EXPECT_LT(sq.iterations, 10u);
}

TEST(TcStatsTest, NaiveVisitsMorePairsThanSemiNaive) {
  Database db;
  ASSERT_OK(workload::Chain(40, &db));
  const Relation& edges = *db.Find("edge");
  EvalStats naive, semi;
  ASSERT_OK(EngineClosure(edges, TcAlgorithm::kNaive, &naive).status());
  ASSERT_OK(
      EngineClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  EXPECT_GT(naive.rule_firings, semi.rule_firings);
}

TEST(TcStatsTest, EveryKernelPublishesItsListedCounters) {
  // The kernel exports through ExportTcMetrics, so the registry's
  // tc.rounds and tc.pair_visits equal the run's TcStats at 1 and 4
  // lanes.
  Database db;
  ASSERT_OK(workload::Chain(16, &db));
  const Relation& edges = *db.Find("edge");
  for (unsigned lanes : {1u, 4u}) {
    obs::MetricsRegistry metrics;
    TcStats stats;
    ASSERT_OK(
        ColumnarTransitiveClosure(edges, lanes, &metrics, nullptr, &stats)
            .status());
    const obs::MetricsSnapshot snap = metrics.Snapshot();
    auto counter = [&snap](const char* name) {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? ~uint64_t{0} : it->second;
    };
    ASSERT_GT(stats.rounds, 0u);
    EXPECT_EQ(counter("tc.invocations"), 1u) << lanes;
    EXPECT_EQ(counter("tc.rounds"), stats.rounds) << lanes;
    EXPECT_EQ(counter("tc.pair_visits"), stats.pair_visits) << lanes;
  }
}

TEST(TcTest, WrongArityRejected) {
  Relation r(3);
  for (unsigned lanes : {1u, 4u}) {
    EXPECT_EQ(ColumnarTransitiveClosure(r, lanes).status().code(),
              StatusCode::kInvalidArgument)
        << lanes << " lanes";
  }
}

// The multi-lane columnar kernel is the parallel closure: an empty edge set
// closes to nothing and a non-binary relation is refused.
TEST(ParallelTcTest, EmptyAndWrongArity) {
  Relation empty(2);
  ASSERT_OK_AND_ASSIGN(Relation tc, ColumnarTransitiveClosure(empty, 2));
  EXPECT_TRUE(tc.empty());
  Relation bad(3);
  EXPECT_FALSE(ColumnarTransitiveClosure(bad, 2).ok());
}

}  // namespace
}  // namespace graphlog::tc
