// Tests for the DFA pipeline: determinization, minimization, and
// agreement of the DFA bitset kernel (EvalRpqBitset) with the NFA product
// evaluator.

#include <gtest/gtest.h>

#include "graph/data_graph.h"
#include "rpq/dfa.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog::rpq {
namespace {

using graph::DataGraph;
using storage::Database;
using storage::Relation;

Result<Dfa> CompileDfa(const char* expr_text, SymbolTable* syms) {
  GRAPHLOG_ASSIGN_OR_RETURN(gl::PathExpr e,
                            gl::ParsePathExpr(expr_text, syms));
  GRAPHLOG_ASSIGN_OR_RETURN(Nfa nfa, Nfa::Compile(e));
  return Dfa::Determinize(nfa);
}

TEST(DfaTest, SingleLabel) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("p", &syms));
  EXPECT_EQ(dfa.alphabet().size(), 1u);
  EXPECT_FALSE(dfa.IsAccepting(dfa.start()));
  uint32_t next = dfa.Next(dfa.start(), 0);
  ASSERT_NE(next, Dfa::kNoTransition);
  EXPECT_TRUE(dfa.IsAccepting(next));
}

TEST(DfaTest, StarStartIsAccepting) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("p*", &syms));
  EXPECT_TRUE(dfa.IsAccepting(dfa.start()));
}

TEST(DfaTest, InverseBecomesDistinctLabel) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("p (-p)", &syms));
  EXPECT_EQ(dfa.alphabet().size(), 2u);
}

TEST(DfaTest, FiltersRejected) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(gl::PathExpr e, gl::ParsePathExpr("p(1)", &syms));
  ASSERT_OK_AND_ASSIGN(Nfa nfa, Nfa::Compile(e));
  auto r = Dfa::Determinize(nfa);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(DfaTest, WildcardFiltersAllowed) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("p(_)+", &syms));
  EXPECT_EQ(dfa.alphabet().size(), 1u);
}

TEST(DfaTest, MinimizeShrinksThompsonBlowup) {
  SymbolTable syms;
  // Thompson NFAs for unions of equal branches have many redundant
  // states; (p|p|p)+ must minimize to 2 states.
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("(p | p | p)+", &syms));
  Dfa min = dfa.Minimize();
  EXPECT_LE(min.num_states(), 2u);
  EXPECT_LE(min.num_states(), dfa.num_states());
}

TEST(DfaTest, MinimizePreservesStartAcceptance) {
  SymbolTable syms;
  ASSERT_OK_AND_ASSIGN(Dfa dfa, CompileDfa("p* q?", &syms));
  Dfa min = dfa.Minimize();
  EXPECT_EQ(dfa.IsAccepting(dfa.start()), min.IsAccepting(min.start()));
}

class DfaVsNfaTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DfaVsNfaTest, SameResultsOnRandomGraphs) {
  const char* expr_text = GetParam();
  for (uint64_t seed : {5u, 6u, 7u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(15, 30, seed, &db, "p"));
    ASSERT_OK(workload::RandomDigraph(15, 20, seed + 50, &db, "q"));
    DataGraph g = DataGraph::FromDatabase(db);
    ASSERT_OK_AND_ASSIGN(gl::PathExpr expr,
                         gl::ParsePathExpr(expr_text, &db.symbols()));
    ASSERT_OK_AND_ASSIGN(Relation via_nfa, EvalRpq(g, expr));
    ASSERT_OK_AND_ASSIGN(Relation via_dfa, EvalRpqBitset(g, expr));
    EXPECT_TRUE(via_nfa.SetEquals(via_dfa))
        << "expr " << expr_text << " seed " << seed << ": nfa="
        << via_nfa.size() << " dfa=" << via_dfa.size();
  }
}

INSTANTIATE_TEST_SUITE_P(ExpressionCorpus, DfaVsNfaTest,
                         ::testing::Values("p", "p+", "p*", "p q", "p | q",
                                           "(p | q)+", "p q+ p?", "-p",
                                           "(-p | q)+", "-(p q)",
                                           "p (q | -p)* q"));

TEST(DfaEvalTest, FixedEndpointsWork) {
  Database db;
  ASSERT_OK(db.AddSymFact("p", {"a", "b"}));
  ASSERT_OK(db.AddSymFact("p", {"b", "c"}));
  DataGraph g = DataGraph::FromDatabase(db);
  ASSERT_OK_AND_ASSIGN(gl::PathExpr expr,
                       gl::ParsePathExpr("p+", &db.symbols()));
  RpqOptions opts;
  opts.source = Value::Sym(db.Intern("a"));
  opts.target = Value::Sym(db.Intern("c"));
  ASSERT_OK_AND_ASSIGN(Relation r, EvalRpqBitset(g, expr, opts));
  EXPECT_EQ(r.size(), 1u);
}

}  // namespace
}  // namespace graphlog::rpq
