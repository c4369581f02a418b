// Property sweeps: randomized differential testing across the
// repository's independent implementations of the same semantics.
//
//  * Algorithm 3.1 preserves semantics on random stratified linear
//    programs (Theorem 3.2, fuzzed),
//  * naive and semi-naive evaluation agree on random programs,
//  * the three RPQ strategies (NFA product, DFA bitset kernel,
//    lambda/Datalog) agree on random path expressions over random graphs,
//  * the TC kernels agree (covered per-kernel in tc_test; here the
//    Datalog engine joins the panel).

#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "graphlog/query_graph.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tc/transitive_closure.h"
#include "testing/equivalence.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"
#include "translate/sl_to_stc.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using storage::Database;
using storage::Relation;

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, Algorithm31PreservesSemantics) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing::RandomProgramOptions gen;
  std::string program = testing::RandomLinearProgram(gen, seed);

  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(datalog::Program parsed,
                       datalog::ParseProgram(program, &syms));
  ASSERT_OK(datalog::CheckLinear(parsed, syms));
  ASSERT_OK(datalog::Stratify(parsed, syms).status());

  ASSERT_OK_AND_ASSIGN(auto translated,
                       translate::TranslateSlToStc(parsed, &syms));
  EXPECT_TRUE(datalog::IsTcProgram(translated.program))
      << "seed " << seed << "\n"
      << program;

  testing::EquivalenceOptions opts;
  opts.trials = 4;
  opts.edb.domain_size = 6;
  opts.edb.fill = 0.25;
  opts.edb.seed = seed * 31 + 7;
  opts.compare = {"result", "non-result"};
  ASSERT_OK_AND_ASSIGN(
      auto report,
      testing::CheckEquivalent(program,
                               translated.program.ToString(syms), opts));
  EXPECT_TRUE(report.equivalent)
      << "seed " << seed << ": " << report.detail << "\n"
      << program;
}

TEST_P(RandomProgramTest, NaiveAndSemiNaiveAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing::RandomProgramOptions gen;
  std::string program = testing::RandomLinearProgram(gen, seed + 1000);

  testing::EquivalenceOptions opts;
  opts.trials = 3;
  opts.edb.seed = seed;
  opts.compare = {"result", "non-result"};
  opts.eval.strategy = eval::Strategy::kNaive;
  // Left = naive, right = semi-naive: run via two option sets by abusing
  // the harness twice.
  testing::EquivalenceOptions semi = opts;
  semi.eval.strategy = eval::Strategy::kSemiNaive;

  // Evaluate both strategies on identical EDBs and compare directly.
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    uint64_t s = rng();
    Database d1, d2;
    std::mt19937_64 r1(s), r2(s);
    std::vector<testing::RelationSchema> schemas = {
        {"e1", 2}, {"e2", 2}, {"n1", 1}};
    testing::FillRandomEdb(schemas, opts.edb, &r1, &d1);
    testing::FillRandomEdb(schemas, opts.edb, &r2, &d2);
    eval::EvalOptions naive_opts, semi_opts;
    naive_opts.strategy = eval::Strategy::kNaive;
    semi_opts.strategy = eval::Strategy::kSemiNaive;
    ASSERT_OK(eval::EvaluateText(program, &d1, naive_opts).status());
    ASSERT_OK(eval::EvaluateText(program, &d2, semi_opts).status());
    for (const char* pred : {"result", "non-result"}) {
      EXPECT_EQ(testutil::RelationSet(d1, pred),
                testutil::RelationSet(d2, pred))
          << "seed " << seed << " trial " << trial << " pred " << pred;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1, 13));

class RandomPreTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPreTest, ThreeRpqStrategiesAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  ASSERT_OK(workload::RandomDigraph(10, 22, seed, &db, "p"));
  ASSERT_OK(workload::RandomDigraph(10, 16, seed + 77, &db, "q"));

  testing::RandomPreOptions gen;
  gl::PathExpr expr =
      testing::RandomPathExpr(gen, seed * 13 + 5, &db.symbols());
  std::string expr_text = expr.ToString(db.symbols());

  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  ASSERT_OK_AND_ASSIGN(Relation via_nfa, rpq::EvalRpq(g, expr));
  ASSERT_OK_AND_ASSIGN(Relation via_dfa, rpq::EvalRpqBitset(g, expr));
  EXPECT_TRUE(via_nfa.SetEquals(via_dfa))
      << "expr " << expr_text << " seed " << seed;

  // Datalog strategy via the surface syntax.
  std::string text = "query rq { edge X -> Y : " + expr_text +
                     "; distinguished X -> Y : rq; }";
  ASSERT_OK(graphlog::Run(QueryRequest::GraphLog(text), &db).status());
  std::set<std::string> datalog_set = testutil::RelationSet(db, "rq");
  std::set<std::string> nfa_set;
  for (const auto& t : via_nfa.rows()) {
    nfa_set.insert(t[0].ToString(db.symbols()) + "," +
                   t[1].ToString(db.symbols()));
  }
  EXPECT_EQ(nfa_set, datalog_set) << "expr " << expr_text << " seed "
                                  << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPreTest, ::testing::Range(1, 25));

TEST(TcPanelTest, DatalogEngineAgreesWithTcKernels) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(20, 50, seed, &db));
    ASSERT_OK(eval::EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                                 "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                                 &db)
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Relation oracle,
        tc::TransitiveClosure(*db.Find("edge"), tc::TcAlgorithm::kNaive));
    EXPECT_TRUE(db.Find("tc")->SetEquals(oracle)) << "seed " << seed;
  }
}

TEST(RandomGeneratorTest, ProgramsAreDeterministic) {
  testing::RandomProgramOptions gen;
  EXPECT_EQ(testing::RandomLinearProgram(gen, 5),
            testing::RandomLinearProgram(gen, 5));
  EXPECT_NE(testing::RandomLinearProgram(gen, 5),
            testing::RandomLinearProgram(gen, 6));
}

TEST(PrinterRoundTripTest, RandomPreTextIsStable) {
  // ToString -> parse -> ToString is a fixpoint for random expressions.
  SymbolTable syms;
  testing::RandomPreOptions gen;
  gen.max_depth = 5;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    gl::PathExpr e = testing::RandomPathExpr(gen, seed, &syms);
    std::string once = e.ToString(syms);
    auto reparsed = gl::ParsePathExpr(once, &syms);
    ASSERT_TRUE(reparsed.ok())
        << once << ": " << reparsed.status().ToString();
    EXPECT_EQ(once, reparsed->ToString(syms)) << "seed " << seed;
  }
}

TEST(PrinterRoundTripTest, RandomProgramTextIsStable) {
  testing::RandomProgramOptions gen;
  for (uint64_t seed = 100; seed < 120; ++seed) {
    std::string text = testing::RandomLinearProgram(gen, seed);
    SymbolTable syms;
    auto prog = datalog::ParseProgram(text, &syms);
    ASSERT_TRUE(prog.ok()) << text;
    std::string once = prog->ToString(syms);
    auto again = datalog::ParseProgram(once, &syms);
    ASSERT_TRUE(again.ok()) << once;
    EXPECT_EQ(once, again->ToString(syms)) << "seed " << seed;
  }
}

TEST(RandomGeneratorTest, PreHasNoTopLevelIdentity) {
  SymbolTable syms;
  testing::RandomPreOptions gen;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    gl::PathExpr e = testing::RandomPathExpr(gen, seed, &syms);
    ASSERT_OK_AND_ASSIGN(gl::ExpandedPre x, gl::ExpandEquality(e));
    EXPECT_FALSE(x.has_identity) << e.ToString(syms);
    EXPECT_FALSE(x.alternatives.empty()) << e.ToString(syms);
  }
}

}  // namespace
}  // namespace graphlog
