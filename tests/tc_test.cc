// Tests for the transitive-closure kernels: the round-based algorithms and
// the columnar kernel (at 1 and 4 lanes) reproduce hand-computed closures
// and agree with kNaive, the oracle; parameterized over kernel.

#include <gtest/gtest.h>

#include "storage/relation.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog::tc {
namespace {

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

class TcAlgorithmTest : public ::testing::TestWithParam<TcAlgorithm> {};

TEST_P(TcAlgorithmTest, ChainClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 10u);  // 5 choose 2
}

TEST_P(TcAlgorithmTest, CycleClosure) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {1, 2}, {2, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  // Every node reaches every node including itself: 9 pairs.
  EXPECT_EQ(tc.size(), 9u);
}

TEST_P(TcAlgorithmTest, DisconnectedComponents) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 1}, {2, 3}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 2u);
}

TEST_P(TcAlgorithmTest, EmptyRelation) {
  Relation edges(2);
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_TRUE(tc.empty());
}

TEST_P(TcAlgorithmTest, SelfLoopOnly) {
  Database db;
  Relation edges = MakeEdges(&db, {{0, 0}});
  ASSERT_OK_AND_ASSIGN(Relation tc, TransitiveClosure(edges, GetParam()));
  EXPECT_EQ(tc.size(), 1u);
}

// The per-source BFS here is the columnar kernel, itself checked against
// kNaive by ColumnarCorpusTest below, so every instance (kNaive included)
// compares two independent algorithms.
TEST_P(TcAlgorithmTest, AgreesWithBfsOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(25, 60, seed, &db));
    const Relation& edges = *db.Find("edge");
    ASSERT_OK_AND_ASSIGN(Relation got, TransitiveClosure(edges, GetParam()));
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
// count: equal to kNaive as a set, and in the single-lane run's
// insertion order at every lane count.
class ColumnarCorpusTest : public ::testing::TestWithParam<unsigned> {
 protected:
  Relation Close(const Relation& edges) {
    Result<Relation> got = ColumnarTransitiveClosure(edges, GetParam());
    Result<Relation> one_lane = ColumnarTransitiveClosure(edges, 1);
    Result<Relation> oracle = TransitiveClosure(edges, TcAlgorithm::kNaive);
    if (!got.ok() || !one_lane.ok() || !oracle.ok()) {
      ADD_FAILURE() << "a closure kernel failed";
      return Relation(2);
    }
    EXPECT_TRUE(got->SetEquals(*oracle)) << "differs from kNaive";
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
  TcStats semi, sq;
  ASSERT_OK(
      TransitiveClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  ASSERT_OK(TransitiveClosure(edges, TcAlgorithm::kSquaring, &sq).status());
  // Squaring: O(log diameter) rounds; semi-naive: O(diameter).
  EXPECT_GT(semi.rounds, 60u);
  EXPECT_LT(sq.rounds, 10u);
}

TEST(TcStatsTest, NaiveVisitsMorePairsThanSemiNaive) {
  Database db;
  ASSERT_OK(workload::Chain(40, &db));
  const Relation& edges = *db.Find("edge");
  TcStats naive, semi;
  ASSERT_OK(TransitiveClosure(edges, TcAlgorithm::kNaive, &naive).status());
  ASSERT_OK(
      TransitiveClosure(edges, TcAlgorithm::kSemiNaive, &semi).status());
  EXPECT_GT(naive.pair_visits, semi.pair_visits);
}

TEST(TcTest, WrongArityRejected) {
  Relation r(3);
  EXPECT_EQ(TransitiveClosure(r, TcAlgorithm::kNaive).status().code(),
            StatusCode::kInvalidArgument);
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
