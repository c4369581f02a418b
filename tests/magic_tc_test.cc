// Tests for the bound-closure (magic-TC) specialization.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "graphlog/api.h"
#include "graphlog/parser.h"
#include "storage/database.h"
#include "testing/equivalence.h"
#include "tests/test_util.h"
#include "translate/magic_tc.h"
#include "workload/generators.h"

namespace graphlog::translate {
namespace {

using datalog::Program;
using storage::Database;
using testutil::RelationSet;

Program Parse(const char* text, SymbolTable* syms) {
  auto r = datalog::ParseProgram(text, syms);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

using Heads = std::map<std::string, int>;

/// Rule count per head predicate: the seeded predicates a rewrite
/// declares, and which closure rules it kept.
Heads RulesPerHead(const Program& prog, const SymbolTable& syms) {
  Heads heads;
  for (const datalog::Rule& r : prog.rules) {
    ++heads[syms.name(r.head.predicate)];
  }
  return heads;
}

/// The predicates the body literals of `head`'s rules use.
std::set<std::string> BodyPredicates(const Program& prog,
                                     const SymbolTable& syms,
                                     const std::string& head) {
  std::set<std::string> used;
  for (const datalog::Rule& r : prog.rules) {
    if (syms.name(r.head.predicate) != head) continue;
    for (const datalog::Literal& l : r.body) {
      if (l.is_relational()) used.insert(syms.name(l.atom.predicate));
    }
  }
  return used;
}

TEST(MagicTcTest, ForwardSeedRewrite) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "answer(Y) :- tc(rome, Y).\n",
      &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  // One seeded predicate replaces tc's TC pair; the one use reads it.
  EXPECT_EQ(RulesPerHead(out, syms), (Heads{{"answer", 1},
                                            {"tc-from-rome", 2}}));
  EXPECT_EQ(BodyPredicates(out, syms, "answer"),
            std::set<std::string>{"tc-from-rome"});
  std::string text = out.ToString(syms);
  EXPECT_NE(text.find("tc-from-rome"), std::string::npos);
  // No rule defines or uses the original tc anymore.
  EXPECT_EQ(text.find("tc("), std::string::npos);
}

TEST(MagicTcTest, BackwardSeedRewrite) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "answer(X) :- tc(X, tokyo).\n",
      &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  std::string text = out.ToString(syms);
  EXPECT_NE(text.find("tc-to-tokyo"), std::string::npos);
}

TEST(MagicTcTest, UnboundUseBlocksSpecialization) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "answer(Y) :- tc(rome, Y).\n"
      "all(X, Y) :- tc(X, Y).\n",
      &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  EXPECT_EQ(RulesPerHead(out, syms),
            (Heads{{"all", 1}, {"answer", 1}, {"tc", 2}}));
  EXPECT_EQ(out.ToString(syms), p.ToString(syms));
}

TEST(MagicTcTest, ProtectedPredicateKeepsRules) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "answer(Y) :- tc(rome, Y).\n",
      &syms);
  Symbol tc = syms.Lookup("tc");
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms, {tc}));
  // tc keeps its TC pair, but its one use still reads the seeded form.
  EXPECT_EQ(RulesPerHead(out, syms),
            (Heads{{"answer", 1}, {"tc", 2}, {"tc-from-rome", 2}}));
  EXPECT_EQ(BodyPredicates(out, syms, "answer"),
            std::set<std::string>{"tc-from-rome"});
}

TEST(MagicTcTest, PreservesSemantics) {
  SymbolTable syms;
  const char* prog =
      "tc(X, Y) :- e1(X, Y).\n"
      "tc(X, Y) :- e1(X, Z), tc(Z, Y).\n"
      "answer(Y) :- tc(d0, Y).\n"
      "answer2(X) :- tc(X, d1).\n";
  Program p = Parse(prog, &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  testing::EquivalenceOptions opts;
  opts.trials = 10;
  opts.compare = {"answer", "answer2"};
  ASSERT_OK_AND_ASSIGN(
      auto report,
      testing::CheckEquivalent(prog, out.ToString(syms), opts));
  EXPECT_TRUE(report.equivalent) << report.detail;
}

TEST(MagicTcTest, ParameterizedClosure) {
  SymbolTable syms;
  const char* prog =
      "tc(X, Y, W) :- e1(X, Y, W).\n"
      "tc(X, Y, W) :- e1(X, Z, W), tc(Z, Y, W).\n"
      "answer(Y, W) :- tc(d0, Y, W).\n";
  Program p = Parse(prog, &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  EXPECT_EQ(RulesPerHead(out, syms),
            (Heads{{"answer", 1}, {"tc-from-d0", 2}}));
  // e1 here is ternary (edge + parameter).
  testing::EquivalenceOptions opts;
  opts.trials = 8;
  opts.compare = {"answer"};
  ASSERT_OK_AND_ASSIGN(
      auto report,
      testing::CheckEquivalent(prog, out.ToString(syms), opts));
  EXPECT_TRUE(report.equivalent) << report.detail;
}

TEST(MagicTcTest, DistinctConstantsGetDistinctSeeds) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "a(Y) :- tc(u, Y).\n"
      "b(Y) :- tc(v, Y).\n",
      &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  EXPECT_EQ(RulesPerHead(out, syms),
            (Heads{{"a", 1}, {"b", 1}, {"tc-from-u", 2}, {"tc-from-v", 2}}));
  std::string text = out.ToString(syms);
  EXPECT_NE(text.find("tc-from-u"), std::string::npos);
  EXPECT_NE(text.find("tc-from-v"), std::string::npos);
}

TEST(MagicTcTest, NegatedUseDisqualifies) {
  SymbolTable syms;
  Program p = Parse(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "a(X) :- node(X), !tc(u, X).\n",
      &syms);
  ASSERT_OK_AND_ASSIGN(Program out, SpecializeBoundClosures(p, &syms));
  EXPECT_EQ(RulesPerHead(out, syms), (Heads{{"a", 1}, {"tc", 2}}));
  EXPECT_EQ(out.ToString(syms), p.ToString(syms));
}

TEST(MagicTcTest, EndToEndThroughGraphLogEngine) {
  // The Figure 12 pattern evaluated with and without specialization must
  // agree, and the specialized run must derive fewer tuples.
  auto build = [](Database* db) {
    EXPECT_OK(workload::RandomDigraph(40, 120, 3, db, "cp"));
  };
  const char* query =
      "query rt-scale {\n"
      "  edge \"n0\" -> C : cp+;\n"
      "  edge C -> \"n1\" : cp+;\n"
      "  distinguished C -> C : rt-scale;\n"
      "}\n";

  Database plain_db;
  build(&plain_db);
  ASSERT_OK_AND_ASSIGN(
      gl::GraphicalQuery q1,
      gl::ParseGraphicalQuery(query, &plain_db.symbols()));
  ASSERT_OK_AND_ASSIGN(QueryResponse plain_resp,
                       graphlog::Run(QueryRequest::Graphical(q1), &plain_db));

  Database magic_db;
  build(&magic_db);
  ASSERT_OK_AND_ASSIGN(
      gl::GraphicalQuery q2,
      gl::ParseGraphicalQuery(query, &magic_db.symbols()));
  QueryRequest magic_req = QueryRequest::Graphical(q2);
  magic_req.options.translation.specialize_bound_closures = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse magic_resp,
                       graphlog::Run(magic_req, &magic_db));

  EXPECT_EQ(RelationSet(plain_db, "rt-scale"),
            RelationSet(magic_db, "rt-scale"));
  EXPECT_LT(magic_resp.stats.datalog.tuples_derived,
            plain_resp.stats.datalog.tuples_derived);
}

}  // namespace
}  // namespace graphlog::translate
