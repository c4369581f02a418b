// Tests for the stratified bottom-up evaluation engine.

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "gov/governor.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace graphlog::eval {
namespace {

using storage::Database;
using testutil::RelationSet;
using testutil::RelationSize;

Database ChainDb(int n) {
  // edge(0,1), edge(1,2), ..., edge(n-1,n)
  Database db;
  for (int i = 0; i < n; ++i) {
    EXPECT_OK(db.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}));
  }
  return db;
}

TEST(EvalEngineTest, NonRecursiveJoin) {
  Database db;
  ASSERT_OK(db.AddSymFact("parent", {"ann", "bob"}));
  ASSERT_OK(db.AddSymFact("parent", {"bob", "cid"}));
  ASSERT_OK_AND_ASSIGN(
      EvalStats stats,
      EvaluateText("grandparent(X, Z) :- parent(X, Y), parent(Y, Z).", &db));
  EXPECT_EQ(RelationSet(db, "grandparent"),
            (std::set<std::string>{"ann,cid"}));
  EXPECT_EQ(stats.tuples_derived, 1u);
}

TEST(EvalEngineTest, TransitiveClosureOnChain) {
  Database db = ChainDb(10);
  ASSERT_OK(EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                         "tc(X, Y) :- edge(X, Z), tc(Z, Y).",
                         &db)
                .status());
  // 10 nodes in a chain: 10*11/2 = 55 pairs.
  EXPECT_EQ(RelationSize(db, "tc"), 55u);
}

TEST(EvalEngineTest, NaiveAndSemiNaiveAgree) {
  Database db1 = ChainDb(20);
  Database db2 = ChainDb(20);
  const char* prog =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
  EvalOptions naive;
  naive.strategy = Strategy::kNaive;
  EvalOptions semi;
  semi.strategy = Strategy::kSemiNaive;
  ASSERT_OK(EvaluateText(prog, &db1, naive).status());
  ASSERT_OK(EvaluateText(prog, &db2, semi).status());
  EXPECT_EQ(RelationSet(db1, "tc"), RelationSet(db2, "tc"));
  EXPECT_EQ(RelationSize(db1, "tc"), 210u);
}

TEST(EvalEngineTest, SemiNaiveDoesLessWork) {
  Database db1 = ChainDb(40);
  Database db2 = ChainDb(40);
  const char* prog =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  EvalOptions naive;
  naive.strategy = Strategy::kNaive;
  EvalOptions semi;
  semi.strategy = Strategy::kSemiNaive;
  ASSERT_OK_AND_ASSIGN(EvalStats sn, EvaluateText(prog, &db1, naive));
  ASSERT_OK_AND_ASSIGN(EvalStats ss, EvaluateText(prog, &db2, semi));
  EXPECT_LT(ss.rule_firings, sn.rule_firings);
}

TEST(EvalEngineTest, StratifiedNegation) {
  Database db;
  ASSERT_OK(db.AddSymFact("node", {"a"}));
  ASSERT_OK(db.AddSymFact("node", {"b"}));
  ASSERT_OK(db.AddSymFact("node", {"c"}));
  ASSERT_OK(db.AddSymFact("edge", {"a", "b"}));
  ASSERT_OK(EvaluateText("reach(X) :- edge(a, X).\n"
                         "reach(X) :- reach(Y), edge(Y, X).\n"
                         "unreach(X) :- node(X), !reach(X), X != a.\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSet(db, "unreach"), (std::set<std::string>{"c"}));
}

TEST(EvalEngineTest, NegationThroughRecursionFails) {
  Database db;
  ASSERT_OK(db.AddSymFact("p", {"a"}));
  auto r = EvaluateText("win(X) :- p(X), !win(X).", &db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnstratifiable);
}

TEST(EvalEngineTest, UnsafeRuleRejected) {
  Database db;
  ASSERT_OK(db.AddSymFact("p", {"a"}));
  auto r = EvaluateText("q(X, Y) :- p(X).", &db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsafeRule);
}

TEST(EvalEngineTest, ArityMismatchRejected) {
  Database db;
  ASSERT_OK(db.AddSymFact("p", {"a"}));
  auto r = EvaluateText("q(X) :- p(X), p(X, X).", &db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kArityMismatch);
}

TEST(EvalEngineTest, ComparisonsFilter) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db.AddFact("num", {Value::Int(i)}));
  }
  ASSERT_OK(EvaluateText("small(X) :- num(X), X < 3.\n"
                         "edgev(X) :- num(X), X >= 8.\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSet(db, "small"), (std::set<std::string>{"0", "1", "2"}));
  EXPECT_EQ(RelationSet(db, "edgev"), (std::set<std::string>{"8", "9"}));
}

TEST(EvalEngineTest, ArithmeticAssignment) {
  Database db;
  ASSERT_OK(db.AddFact("point", {Value::Int(3), Value::Int(4)}));
  ASSERT_OK(EvaluateText("sum(S) :- point(X, Y), S = X + Y.\n"
                         "scaled(S) :- point(X, Y), S = 2 * X + Y * Y.\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSet(db, "sum"), (std::set<std::string>{"7"}));
  EXPECT_EQ(RelationSet(db, "scaled"), (std::set<std::string>{"22"}));
}

TEST(EvalEngineTest, DivisionByZeroFailsLiteral) {
  Database db;
  ASSERT_OK(db.AddFact("p", {Value::Int(1), Value::Int(0)}));
  ASSERT_OK(db.AddFact("p", {Value::Int(6), Value::Int(2)}));
  ASSERT_OK(EvaluateText("q(Z) :- p(X, Y), Z = X / Y.", &db).status());
  // Only the (6,2) row survives; (1,0) silently fails the builtin.
  EXPECT_EQ(RelationSet(db, "q"), (std::set<std::string>{"3"}));
}

TEST(EvalEngineTest, AggregatesGroupBy) {
  Database db;
  ASSERT_OK(db.AddFact("sale", {Value::Sym(db.Intern("east")), Value::Int(10)}));
  ASSERT_OK(db.AddFact("sale", {Value::Sym(db.Intern("east")), Value::Int(5)}));
  ASSERT_OK(db.AddFact("sale", {Value::Sym(db.Intern("west")), Value::Int(7)}));
  ASSERT_OK(
      EvaluateText("total(R, sum<V>) :- sale(R, V).\n"
                   "biggest(R, max<V>) :- sale(R, V).\n"
                   "cnt(R, count<V>) :- sale(R, V).\n",
                   &db)
          .status());
  EXPECT_EQ(RelationSet(db, "total"),
            (std::set<std::string>{"east,15", "west,7"}));
  EXPECT_EQ(RelationSet(db, "biggest"),
            (std::set<std::string>{"east,10", "west,7"}));
  EXPECT_EQ(RelationSet(db, "cnt"),
            (std::set<std::string>{"east,2", "west,1"}));
}

TEST(EvalEngineTest, AggregateOverIdb) {
  Database db = ChainDb(5);
  ASSERT_OK(EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                         "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
                         "reachable-count(X, count<Y>) :- tc(X, Y).\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSet(db, "reachable-count"),
            (std::set<std::string>{"0,5", "1,4", "2,3", "3,2", "4,1"}));
}

TEST(EvalEngineTest, RecursionThroughAggregationFails) {
  Database db;
  ASSERT_OK(db.AddFact("e", {Value::Int(1), Value::Int(2)}));
  auto r = EvaluateText("p(X, sum<Y>) :- e(X, Y).\n"
                        "e2(X, Y) :- p(X, Y).\n"
                        "p(X, sum<Y>) :- e2(X, Y).\n",
                        &db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnstratifiable);
}

TEST(EvalEngineTest, MutualRecursion) {
  Database db = ChainDb(8);
  // even/odd distance reachability from node 0.
  ASSERT_OK(EvaluateText("odd(X) :- edge(0, X).\n"
                         "odd(Y) :- even(X), edge(X, Y).\n"
                         "even(Y) :- odd(X), edge(X, Y).\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSet(db, "odd"),
            (std::set<std::string>{"1", "3", "5", "7"}));
  EXPECT_EQ(RelationSet(db, "even"),
            (std::set<std::string>{"2", "4", "6", "8"}));
}

TEST(EvalEngineTest, ConstantsInRules) {
  Database db = ChainDb(5);
  ASSERT_OK(EvaluateText("from-two(Y) :- edge(2, Y).", &db).status());
  EXPECT_EQ(RelationSet(db, "from-two"), (std::set<std::string>{"3"}));
}

TEST(EvalEngineTest, FactsInProgram) {
  Database db;
  ASSERT_OK(EvaluateText("color(red).\ncolor(blue).\n"
                         "pair(X, Y) :- color(X), color(Y), X != Y.\n",
                         &db)
                .status());
  EXPECT_EQ(RelationSize(db, "pair"), 2u);
}

TEST(EvalEngineTest, NegatedAtomWithLocalExistentialVar) {
  // !q(X, _): "no q-tuple whose first column is X, with anything second."
  Database db;
  ASSERT_OK(db.AddSymFact("p", {"a"}));
  ASSERT_OK(db.AddSymFact("p", {"b"}));
  ASSERT_OK(db.AddSymFact("q", {"a", "z"}));
  ASSERT_OK(EvaluateText("r(X) :- p(X), !q(X, _).", &db).status());
  EXPECT_EQ(RelationSet(db, "r"), (std::set<std::string>{"b"}));
}

TEST(EvalEngineTest, SameGenerationFromPaper) {
  // Figure 8 of the paper.
  Database db;
  ASSERT_OK(db.AddSymFact("person", {"ann"}));
  ASSERT_OK(db.AddSymFact("person", {"bob"}));
  ASSERT_OK(db.AddSymFact("person", {"cid"}));
  ASSERT_OK(db.AddSymFact("person", {"dee"}));
  // parent(child, parent): ann,bob children of cid; cid child of dee.
  ASSERT_OK(db.AddSymFact("parent", {"ann", "cid"}));
  ASSERT_OK(db.AddSymFact("parent", {"bob", "cid"}));
  ASSERT_OK(db.AddSymFact("parent", {"cid", "dee"}));
  ASSERT_OK(EvaluateText("sg(X, X) :- person(X).\n"
                         "sg(X, Y) :- parent(X, Z), sg(Z, W), parent(Y, W).\n",
                         &db)
                .status());
  auto sg = RelationSet(db, "sg");
  EXPECT_TRUE(sg.count("ann,bob"));
  EXPECT_TRUE(sg.count("bob,ann"));
  EXPECT_TRUE(sg.count("ann,ann"));
  EXPECT_FALSE(sg.count("ann,cid"));
  EXPECT_FALSE(sg.count("ann,dee"));
}

TEST(EvalEngineTest, MaxIterationsGuard) {
  // The mirrored closure runs the fixpoint, one round per chain hop; a
  // strict max_rounds budget stops it with kBudgetExceeded.
  Database db = ChainDb(100);
  gov::GovernorContext g;
  g.budget.max_rounds = 3;
  EvalOptions opts;
  opts.governor = &g;
  auto r = EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                        "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
                        &db, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
}

TEST(EvalEngineTest, StatsAreReported) {
  Database db = ChainDb(10);
  ASSERT_OK_AND_ASSIGN(EvalStats stats,
                       EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                                    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
                                    &db));
  EXPECT_EQ(stats.tuples_derived, 55u);
  EXPECT_GT(stats.iterations, 1u);
  EXPECT_GE(stats.rule_firings, 55u);
  EXPECT_EQ(stats.strata, 1u);
}

TEST(EvalEngineTest, ServedClosureStatsAreOneRound) {
  // The λ form is served by the TC kernel: one round, one firing per
  // closure pair the kernel visits.
  Database db = ChainDb(10);
  ASSERT_OK_AND_ASSIGN(EvalStats stats,
                       EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                                    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                                    &db));
  EXPECT_EQ(stats.tuples_derived, 55u);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_EQ(stats.rule_firings, 55u);
  EXPECT_EQ(stats.strata, 1u);
}

}  // namespace
}  // namespace graphlog::eval
