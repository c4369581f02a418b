// Tests for the engine's served closure route: every unbound binary TC
// rule pair p(X,Y) :- q(X,Y). p(X,Y) :- q(X,Z), p(Z,Y). is evaluated by
// one tc::ColumnarTransitiveClosure call (eval::PlanStratum), and every
// other component by the semi-naive fixpoint.
//
// The contracts under test:
//  * the served route gives the rows Strategy::kNaive (the oracle, which
//    never serves) gives, and the same insertion order at 1 and 4 lanes;
//  * wider shapes, the mirrored pair and a pre-filled head stay on the
//    fixpoint;
//  * `.why` trees of served pairs are valid and well-founded;
//  * governed aborts leave no head relation behind, and row budgets trip
//    deterministically;
//  * EXPLAIN, EXPLAIN ANALYZE and the trace name the kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "eval/provenance.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/database.h"
#include "storage/io.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using eval::EvalOptions;
using eval::EvalStats;
using eval::Strategy;
using storage::Database;
using storage::Relation;
using storage::Tuple;

constexpr char kTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

/// Every relation of `db` by name, rows rendered in insertion order.
using Snapshot = std::map<std::string, std::vector<std::string>>;

Snapshot Rows(const Database& db) {
  Snapshot out;
  for (const auto& [pred, rel] : db.relations()) {
    std::vector<std::string>& rows = out[db.symbols().name(pred)];
    for (const Tuple& t : rel.rows()) {
      std::string s;
      for (const Value& v : t) s += v.ToString(db.symbols()) + ",";
      rows.push_back(s);
    }
  }
  return out;
}

/// The same relations with each one's rows sorted: set comparison.
Snapshot Sorted(Snapshot s) {
  for (auto& [_, rows] : s) std::sort(rows.begin(), rows.end());
  return s;
}

/// Counts the served groups PlanStratum finds in `text` over `db`.
size_t ServedGroups(std::string_view text, Database* db) {
  auto prog = datalog::ParseProgram(text, &db->symbols());
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  auto strat = datalog::Stratify(*prog, db->symbols());
  EXPECT_TRUE(strat.ok()) << strat.status().ToString();
  size_t served = 0;
  for (const auto& rules : strat->rule_groups) {
    for (const eval::StratumGroup& g :
         eval::PlanStratum(*prog, rules, *db, Strategy::kSemiNaive)) {
      served += g.served() ? 1 : 0;
    }
  }
  return served;
}

/// The `tc.invocations` counter of `metrics` (0 when never counted).
uint64_t KernelCalls(const obs::MetricsRegistry& metrics) {
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  auto it = snap.counters.find("tc.invocations");
  return it == snap.counters.end() ? 0 : it->second;
}

/// Loads an n-edge chain n0 -> n1 -> ... -> n{n} as `edge`.
void LoadChain(Database* db, int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  ASSERT_OK(storage::LoadFacts(text, db).status());
}

// ---------------------------------------------------------------------------
// Which components are served.

TEST(ServedTcPlanTest, ServesTheLambdaPairAheadOfItsReaders) {
  Database db;
  const char* text =
      "out(X, Y) :- tc(X, Y), mark(Y).\n"
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  auto prog = datalog::ParseProgram(text, &db.symbols());
  ASSERT_OK(prog.status());
  const std::vector<eval::StratumGroup> groups =
      eval::PlanStratum(*prog, {0, 1, 2}, db, Strategy::kSemiNaive);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0].served());
  EXPECT_EQ(groups[0].rules, (std::vector<int>{1, 2}));
  EXPECT_EQ(db.symbols().name(groups[0].tc_head), "tc");
  EXPECT_EQ(db.symbols().name(groups[0].tc_base), "edge");
  EXPECT_FALSE(groups[1].served());
  EXPECT_EQ(groups[1].rules, (std::vector<int>{0}));
}

TEST(ServedTcPlanTest, OtherShapesStayOnTheFixpoint) {
  Database db;
  // The mirrored pair, which MatchTcRules does not match.
  EXPECT_EQ(ServedGroups("tc(X, Y) :- edge(X, Y).\n"
                         "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
                         &db),
            0u);
  // A wider shape: Algorithm 3.1's n=2 TC.
  EXPECT_EQ(ServedGroups("w(A, B, C, D) :- e4(A, B, C, D).\n"
                         "w(A, B, C, D) :- e4(A, B, X, Y), w(X, Y, C, D).\n",
                         &db),
            0u);
  // A parameterized pair (w = 1).
  EXPECT_EQ(ServedGroups("r(X, Y, W) :- e3(X, Y, W).\n"
                         "r(X, Y, W) :- e3(X, Z, W), r(Z, Y, W).\n",
                         &db),
            0u);
  // A base that reads the head back is not complete when p starts.
  EXPECT_EQ(ServedGroups("tc(X, Y) :- q(X, Y).\n"
                         "tc(X, Y) :- q(X, Z), tc(Z, Y).\n"
                         "q(X, Y) :- edge(X, Y).\n"
                         "q(X, Y) :- tc(Y, X).\n",
                         &db),
            0u);
  // A third rule for the head.
  EXPECT_EQ(ServedGroups("tc(X, Y) :- edge(X, Y).\n"
                         "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
                         "tc(X, X) :- edge(X, Y).\n",
                         &db),
            0u);
  // The λ pair itself is served.
  EXPECT_EQ(ServedGroups(kTc, &db), 1u);

  // kNaive is the oracle: it never serves.
  auto prog = datalog::ParseProgram(kTc, &db.symbols());
  ASSERT_OK(prog.status());
  const auto naive = eval::PlanStratum(*prog, {0, 1}, db, Strategy::kNaive);
  ASSERT_EQ(naive.size(), 1u);
  EXPECT_FALSE(naive[0].served());
}

TEST(ServedTcPlanTest, PrefilledHeadAndMirroredPairStayOnTheFixpoint) {
  for (const char* text :
       {kTc,  // with a pre-filled head
        "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n"}) {
    const bool prefill = text == kTc;
    Snapshot got, want;
    uint64_t iterations = 0;
    for (Strategy strategy : {Strategy::kSemiNaive, Strategy::kNaive}) {
      Database db;
      LoadChain(&db, 12);
      if (prefill) ASSERT_OK(db.AddSymFact("tc", {"n5", "zz"}));
      obs::MetricsRegistry metrics;
      EvalOptions opts;
      opts.strategy = strategy;
      opts.metrics = &metrics;
      ASSERT_OK_AND_ASSIGN(EvalStats stats,
                           eval::EvaluateText(text, &db, opts));
      // The fixpoint never called the kernel.
      EXPECT_EQ(KernelCalls(metrics), 0u);
      if (strategy == Strategy::kSemiNaive) {
        got = Rows(db);
        iterations = stats.iterations;
      } else {
        want = Rows(db);
      }
    }
    EXPECT_EQ(Sorted(got), Sorted(want)) << text;
    EXPECT_GT(iterations, 1u) << text;
    // The fixpoint extended the existing row: tc(n4, zz) is derived.
    if (prefill) {
      const auto& tc = got["tc"];
      EXPECT_NE(std::find(tc.begin(), tc.end(), "n4,zz,"), tc.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: the served route against the naive oracle.

/// Evaluates `text` over a database built by `seed_db` under kNaive and
/// under the served route at 1 and 4 lanes. Every relation must be
/// set-equal to the oracle's, and the two lane counts must agree on
/// insertion order too.
void ExpectServedMatchesNaive(const std::string& text,
                              const std::function<void(Database*)>& seed_db,
                              const std::string& where) {
  Snapshot naive, lanes[2];
  {
    Database db;
    seed_db(&db);
    EvalOptions opts;
    opts.strategy = Strategy::kNaive;
    const Status st = eval::EvaluateText(text, &db, opts).status();
    ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
    naive = Rows(db);
  }
  EvalStats stats[2];
  for (int i = 0; i < 2; ++i) {
    Database db;
    seed_db(&db);
    EvalOptions opts;
    opts.num_threads = i == 0 ? 1 : 4;
    Result<EvalStats> r = eval::EvaluateText(text, &db, opts);
    ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    stats[i] = *r;
    lanes[i] = Rows(db);
  }
  EXPECT_EQ(Sorted(lanes[0]), Sorted(naive)) << where;
  EXPECT_EQ(lanes[0], lanes[1]) << where;
  EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings) << where;
  EXPECT_EQ(stats[0].tuples_derived, stats[1].tuples_derived) << where;
  EXPECT_EQ(stats[0].iterations, stats[1].iterations) << where;
}

TEST(ServedTcDifferentialTest, RandomProgramsMatchNaiveAcrossLanes) {
  testing::RandomProgramOptions gen;
  gen.recursion_prob = 1.0;
  gen.second_base_prob = 0.0;
  size_t served_programs = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string text = testing::RandomLinearProgram(gen, seed);
    auto seed_db = [seed](Database* db) {
      ASSERT_OK(workload::RandomDigraph(14, 30, seed, db, "e1"));
      ASSERT_OK(workload::RandomDigraph(14, 24, seed + 101, db, "e2"));
      for (int i = 0; i < 14; i += 3) {
        ASSERT_OK(db->AddFact("n1", {Value::Sym(db->Intern(
                                        "n" + std::to_string(i)))}));
      }
    };
    Database probe;
    seed_db(&probe);
    if (ServedGroups(text, &probe) > 0) ++served_programs;
    ExpectServedMatchesNaive(text, seed_db, "seed " + std::to_string(seed));
  }
  // The sweep exercised the served route, not only the fixpoint.
  EXPECT_GT(served_programs, 5u);
}

TEST(ServedTcDifferentialTest, RandomPathQueriesMatchNaiveAcrossLanes) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    auto seed_db = [seed](Database* db) {
      ASSERT_OK(workload::RandomDigraph(10, 22, seed, db, "p"));
      ASSERT_OK(workload::RandomDigraph(10, 16, seed + 77, db, "q"));
    };
    Snapshot naive, lanes[2];
    for (int i = 0; i < 3; ++i) {
      Database db;
      seed_db(&db);
      const std::string expr =
          testing::RandomPathExpr({}, seed * 13 + 5, &db.symbols())
              .ToString(db.symbols());
      QueryRequest req = QueryRequest::GraphLog(
          "query rq { edge X -> Y : " + expr +
          "; distinguished X -> Y : rq; }");
      if (i == 0) req.options.eval.strategy = Strategy::kNaive;
      req.options.eval.num_threads = i == 2 ? 4 : 1;
      const Status st = graphlog::Run(req, &db).status();
      ASSERT_TRUE(st.ok()) << expr << ": " << st.ToString();
      (i == 0 ? naive : lanes[i - 1]) = Rows(db);
    }
    EXPECT_EQ(Sorted(lanes[0]), Sorted(naive)) << "seed " << seed;
    EXPECT_EQ(lanes[0], lanes[1]) << "seed " << seed;
  }
}

constexpr char kFig2Query[] =
    "query not-desc-of {\n"
    "  node P2 [person];\n"
    "  edge P1 -> P3 : descendant+;\n"
    "  edge P2 -> P3 : !descendant+;\n"
    "  distinguished P1 -> P3 : not-desc-of(P2);\n"
    "}\n";

constexpr char kFig4Query[] =
    "query feasible {\n"
    "  edge F1 -> A1 : arrival;\n"
    "  edge F2 -> D2 : departure;\n"
    "  edge A1 -> D2 : <;\n"
    "  edge F1 -> C : to;\n"
    "  edge F2 -> C : from;\n"
    "  distinguished F1 -> F2 : feasible;\n"
    "}\n"
    "query stop-connected {\n"
    "  edge C1 -> C2 : (-from) feasible+ to;\n"
    "  distinguished C1 -> C2 : stop-connected;\n"
    "}\n";

constexpr char kFig6Query[] =
    "query module-calls {\n"
    "  edge M1 -> M2 : -(in-module) (calls-local)* calls-extn in-module;\n"
    "  distinguished M1 -> M2 : module-calls;\n"
    "}\n"
    "query uses-async {\n"
    "  edge M -> F : -(in-module) (calls-local | calls-extn)+;\n"
    "  edge F -> \"lib0\" : in-library;\n"
    "  distinguished M -> M : uses-async;\n"
    "}\n"
    "query self-used {\n"
    "  edge M -> M : module-calls+;\n"
    "  edge M -> M : uses-async;\n"
    "  distinguished M -> M : self-used;\n"
    "}\n";

TEST(ServedTcDifferentialTest, FigureQueriesMatchNaiveAcrossLanes) {
  struct Case {
    const char* name;
    const char* query;
    std::function<Status(Database*)> seed_db;
  };
  const Case cases[] = {
      {"fig02", kFig2Query,
       [](Database* db) {
         workload::FamilyOptions o;
         o.generations = 5;
         return workload::Family(o, db);
       }},
      {"fig04", kFig4Query,
       [](Database* db) {
         workload::FlightsOptions o;
         o.num_flights = 120;
         o.num_cities = 12;
         return workload::Flights(o, db);
       }},
      {"fig06", kFig6Query,
       [](Database* db) {
         workload::ModulesOptions o;
         o.num_modules = 12;
         return workload::Modules(o, db);
       }},
  };
  for (const Case& c : cases) {
    Snapshot naive, lanes[2];
    uint64_t kernel_calls = 0;
    for (int i = 0; i < 3; ++i) {
      Database db;
      ASSERT_OK(c.seed_db(&db));
      obs::MetricsRegistry metrics;
      QueryRequest req = QueryRequest::GraphLog(c.query);
      if (i == 0) req.options.eval.strategy = Strategy::kNaive;
      req.options.eval.num_threads = i == 2 ? 4 : 1;
      req.options.observability.metrics = &metrics;
      const Status st = graphlog::Run(req, &db).status();
      ASSERT_TRUE(st.ok()) << c.name << ": " << st.ToString();
      (i == 0 ? naive : lanes[i - 1]) = Rows(db);
      const uint64_t calls =
          KernelCalls(metrics);
      if (i == 0) {
        EXPECT_EQ(calls, 0u) << c.name << ": the oracle never serves";
      } else {
        kernel_calls = calls;
      }
    }
    EXPECT_GT(kernel_calls, 0u) << c.name;
    EXPECT_EQ(Sorted(lanes[0]), Sorted(naive)) << c.name;
    EXPECT_EQ(lanes[0], lanes[1]) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Provenance.

TEST(ServedTcProvenanceTest, WhyTreesOfServedPairsAreValid) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(25, 60, 9, &db));
  auto prog = datalog::ParseProgram(kTc, &db.symbols());
  ASSERT_OK(prog.status());
  eval::ProvenanceStore store;
  EvalOptions opts;
  opts.provenance = &store;
  opts.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(EvalStats stats, eval::Evaluate(*prog, &db, opts));
  EXPECT_EQ(stats.iterations, 1u);  // served
  const Symbol tc = db.symbols().Lookup("tc");
  const Symbol edge = db.symbols().Lookup("edge");
  const Relation& closure = *db.Find(tc);
  const Relation& edges = *db.Find(edge);
  ASSERT_GT(closure.size(), edges.size());
  EXPECT_EQ(store.size(), closure.size());

  // Every justification is a rule instance over existing facts, and the
  // recursion bottoms out: walking p(z, y) premises always reaches a
  // base-rule pair within |closure| steps.
  size_t deep = 0;
  for (const Tuple& row : closure.rows()) {
    const eval::Justification* j = store.Find(tc, row);
    ASSERT_NE(j, nullptr);
    if (j->rule_index == 0) {
      ASSERT_EQ(j->premises.size(), 1u);
      EXPECT_EQ(j->premises[0].first, edge);
      EXPECT_EQ(j->premises[0].second, row);
      EXPECT_TRUE(edges.Contains(row));
      continue;
    }
    ++deep;
    ASSERT_EQ(j->rule_index, 1);
    ASSERT_EQ(j->premises.size(), 2u);
    const auto& [qp, qt] = j->premises[0];
    const auto& [pp, pt] = j->premises[1];
    EXPECT_EQ(qp, edge);
    EXPECT_EQ(pp, tc);
    EXPECT_EQ(qt[0], row[0]);
    EXPECT_EQ(qt[1], pt[0]);
    EXPECT_EQ(pt[1], row[1]);
    EXPECT_TRUE(edges.Contains(qt));
    EXPECT_TRUE(closure.Contains(pt));
    Tuple at = pt;
    size_t steps = 0;
    for (const eval::Justification* k = store.Find(tc, at);
         k != nullptr && k->rule_index == 1; k = store.Find(tc, at)) {
      at = k->premises[1].second;
      ASSERT_LT(++steps, closure.size()) << "cyclic justification";
    }
  }
  EXPECT_GT(deep, 0u);

  // The rendered tree of a deep pair bottoms out in [edb] leaves.
  const Tuple& last = closure.rows()[closure.size() - 1];
  ASSERT_OK_AND_ASSIGN(
      std::string tree,
      eval::ExplainFact(store, *prog, db.symbols(),
                        "tc(" + last[0].ToString(db.symbols()) + ", " +
                            last[1].ToString(db.symbols()) + ")",
                        /*max_depth=*/64));
  EXPECT_NE(tree.find("[edb]"), std::string::npos);
  EXPECT_EQ(tree.find(". ..."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Governance.

TEST(ServedTcGovernorTest, InterruptsLeaveNoHeadRelation) {
  enum Kind { kExpiredDeadline, kPreCancelled, kStallWithDeadline };
  for (Kind kind : {kExpiredDeadline, kPreCancelled, kStallWithDeadline}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 200, 3, &db));
    gov::FaultInjector faults;
    gov::GovernorContext g;
    StatusCode want = StatusCode::kDeadlineExceeded;
    switch (kind) {
      case kExpiredDeadline:
        g.deadline = gov::Deadline::AfterNanos(0);
        break;
      case kPreCancelled:
        g.token.Cancel();
        want = StatusCode::kCancelled;
        break;
      case kStallWithDeadline: {
        gov::FaultSpec spec;
        spec.action = gov::FaultAction::kStall;
        spec.stall_ms = 100;
        faults.Arm("tc.expand", spec);
        g.faults = &faults;
        g.deadline = gov::Deadline::AfterNanos(20'000'000);
        break;
      }
    }
    EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = 4;
    auto r = eval::EvaluateText(kTc, &db, opts);
    ASSERT_FALSE(r.ok()) << "case " << kind;
    EXPECT_EQ(r.status().code(), want) << r.status().ToString();
    EXPECT_EQ(db.Find("tc"), nullptr) << "case " << kind;
    EXPECT_EQ(testutil::RelationSize(db, "edge"), 200u);
    if (kind == kStallWithDeadline) {
      // The stall fired inside the kernel, not at a round boundary.
      EXPECT_GE(faults.hits("tc.expand"), 1u);
    }
  }
}

TEST(ServedTcGovernorTest, StrictRowBudgetFailsAndRollsBack) {
  std::string messages[2];
  for (int i = 0; i < 2; ++i) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 200, 3, &db));
    gov::GovernorContext g;
    g.budget.max_result_rows = 10;
    EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = i == 0 ? 1 : 4;
    auto r = eval::EvaluateText(kTc, &db, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
    EXPECT_EQ(db.Find("tc"), nullptr);
    messages[i] = r.status().message();
  }
  // Reported against the run's budget at the kernel's site, at the first
  // row past it, whichever sources the lanes finished first.
  EXPECT_EQ(messages[0],
            "max_result_rows budget exceeded at tc.expand: 11 > 10");
  EXPECT_EQ(messages[1], messages[0]);
}

TEST(ServedTcGovernorTest, StrictByteBudgetFailsBeforeTheMerge) {
  // The bytes left over the database become the kernel's row cap, so the
  // closure (60 nodes, thousands of pairs) is never built past it.
  std::string messages[2];
  for (int i = 0; i < 2; ++i) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 200, 3, &db));
    gov::GovernorContext g;
    g.budget.max_bytes =
        db.TotalBytes() + 100 * storage::Relation::RowBytes(2) + 7;
    EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = i == 0 ? 1 : 4;
    obs::MetricsRegistry metrics;
    opts.metrics = &metrics;
    auto r = eval::EvaluateText(kTc, &db, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
    EXPECT_EQ(db.Find("tc"), nullptr);
    EXPECT_EQ(KernelCalls(metrics), 0u) << "the kernel stopped early";
    messages[i] = r.status().message();
  }
  // Observed: the database plus the 101st closure row.
  Database db;
  ASSERT_OK(workload::RandomDigraph(60, 200, 3, &db));
  const uint64_t want_observed =
      db.TotalBytes() + 101 * storage::Relation::RowBytes(2);
  const uint64_t limit =
      db.TotalBytes() + 100 * storage::Relation::RowBytes(2) + 7;
  EXPECT_EQ(messages[0], "max_bytes budget exceeded at tc.expand: " +
                             std::to_string(want_observed) + " > " +
                             std::to_string(limit));
  EXPECT_EQ(messages[1], messages[0]);
}

TEST(ServedTcGovernorTest, PartialByteBudgetKeepsThePrefixThatFits) {
  Snapshot rows[2];
  EvalStats stats[2];
  for (int i = 0; i < 2; ++i) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 200, 3, &db));
    gov::GovernorContext g;
    g.budget.max_bytes = db.TotalBytes() + 100 * storage::Relation::RowBytes(2);
    g.budget.return_partial = true;
    EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = i == 0 ? 1 : 4;
    ASSERT_OK_AND_ASSIGN(stats[i], eval::EvaluateText(kTc, &db, opts));
    EXPECT_TRUE(stats[i].truncated);
    EXPECT_NE(stats[i].truncated_by.find("max_bytes at tc.expand"),
              std::string::npos)
        << stats[i].truncated_by;
    // Exactly the rows the budget has room for, and the database within it.
    EXPECT_EQ(testutil::RelationSize(db, "tc"), 100u);
    EXPECT_LE(db.TotalBytes(), g.budget.max_bytes);
    rows[i] = Rows(db);
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings);
}

TEST(ServedTcGovernorTest, PartialRowBudgetIsIdenticalAcrossLanes) {
  // Rows derived before the closure count against the budget: the
  // kernel gets what is left, so tc holds exactly the remainder.
  const char* text =
      "a(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- a(X, Y).\n"
      "tc(X, Y) :- a(X, Z), tc(Z, Y).\n";
  Snapshot rows[2];
  EvalStats stats[2];
  for (int i = 0; i < 2; ++i) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(40, 120, 7, &db));
    gov::GovernorContext g;
    g.budget.max_result_rows = 120 + 50;
    g.budget.return_partial = true;
    EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = i == 0 ? 1 : 4;
    ASSERT_OK_AND_ASSIGN(stats[i], eval::EvaluateText(text, &db, opts));
    EXPECT_TRUE(stats[i].truncated);
    EXPECT_NE(stats[i].truncated_by.find("max_result_rows at tc.expand"),
              std::string::npos)
        << stats[i].truncated_by;
    EXPECT_EQ(testutil::RelationSize(db, "a"), 120u);
    EXPECT_EQ(testutil::RelationSize(db, "tc"), 50u);
    rows[i] = Rows(db);
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(stats[0].tuples_derived, stats[1].tuples_derived);
  EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings);
}

// ---------------------------------------------------------------------------
// EXPLAIN, EXPLAIN ANALYZE and the trace name the kernel.

/// True when some span in the tree named `span` carries note `key`.
bool HasNote(const std::vector<obs::Span>& spans, const std::string& span,
             const std::string& key, const std::string& value) {
  for (const obs::Span& s : spans) {
    if (s.name == span) {
      for (const auto& [k, v] : s.notes) {
        if (k == key && v == value) return true;
      }
    }
    if (HasNote(s.children, span, key, value)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Which evaluations of a long-lived session take the served route.

TEST(ServedTcSessionTest, RerunsAreServedWhenTheirClosureHeadIsFresh) {
  // A session keeps the relations its queries materialize, and a served
  // closure needs an empty head. λ names each closure literal's head with
  // SymbolTable::Fresh, so every rerun of a GraphLog query gets a new,
  // empty head and is served again. A Datalog program names its own
  // head, so its rerun finds the head filled and takes the fixpoint,
  // which extends the existing rows (here: derives none).
  Server srv;
  std::string facts;
  for (int i = 0; i < 40; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string((i * 7 + 3) % 40) + ").\n";
  }
  ASSERT_OK(srv.Apply(WriteBatch().Facts(facts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, srv.OpenSession());
  const std::string kernel = eval::kTcKernelName;
  struct Run {
    QueryResponse resp;
    uint64_t kernel_calls = 0;
    std::vector<std::string> answer;
  };
  auto run = [&](QueryRequest req, const std::string& answer) -> Run {
    req.options.observability.tracing = true;
    obs::MetricsRegistry metrics;
    req.options.eval.metrics = &metrics;
    Result<QueryResponse> resp = session->Run(req);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) return {};
    EXPECT_FALSE(resp->cache_hit);
    return {*std::move(resp), KernelCalls(metrics),
            Rows(session->database())[answer]};
  };
  const QueryRequest graphlog = QueryRequest::GraphLog(
      "query t { edge X -> Y : edge+; distinguished X -> Y : t; }");
  const QueryRequest datalog = QueryRequest::Datalog(kTc);
  Run g1 = run(graphlog, "t"), g2 = run(graphlog, "t");
  Run d1 = run(datalog, "tc"), d2 = run(datalog, "tc");
  for (const Run* r : {&g1, &g2, &d1}) {
    EXPECT_EQ(r->kernel_calls, 1u);
    EXPECT_TRUE(HasNote(r->resp.trace.spans, "stratum", "kernel", kernel));
  }
  EXPECT_EQ(d2.kernel_calls, 0u);
  EXPECT_FALSE(HasNote(d2.resp.trace.spans, "stratum", "kernel", kernel));
  EXPECT_EQ(d2.resp.stats.datalog.tuples_derived, 0u);
  EXPECT_FALSE(g1.answer.empty());
  EXPECT_EQ(g2.answer, g1.answer);
  EXPECT_EQ(d1.answer, g1.answer);
  EXPECT_EQ(d2.answer, d1.answer);
}

TEST(ServedTcObservabilityTest, ExplainProfileAndTraceNameTheKernel) {
  const std::string kernel = eval::kTcKernelName;
  std::string logical;
  for (unsigned threads : {1u, 4u}) {
    for (bool columnar : {false, true}) {
      Database db;
      ASSERT_OK(workload::RandomDigraph(30, 80, 5, &db));
      QueryRequest req = QueryRequest::GraphLog(
          "query t { edge X -> Y : edge edge+; distinguished X -> Y : t; }");
      req.options.observability.explain = true;
      req.options.observability.profile = true;
      req.options.observability.tracing = true;
      req.options.eval.num_threads = threads;
      req.options.eval.columnar = columnar;
      ASSERT_OK_AND_ASSIGN(QueryResponse resp, graphlog::Run(req, &db));
      // Static EXPLAIN: the component order and the served rules.
      EXPECT_NE(resp.explain.find("component order: {1 2} served by " +
                                  kernel + ", {0 3} semi-naive"),
                std::string::npos)
          << resp.explain;
      EXPECT_NE(resp.explain.find("[1] served by " + kernel + " over edge"),
                std::string::npos);
      // EXPLAIN ANALYZE: the served rules' plan and their own round.
      EXPECT_NE(resp.explain.find("plan: served by " + kernel),
                std::string::npos);
      EXPECT_GE(resp.profile.rounds.size(), 2u);
      uint64_t served_firings = 0;
      for (const obs::RuleProfile& r : resp.profile.rules) {
        if (r.plan == "served by " + kernel) served_firings += r.firings;
      }
      EXPECT_EQ(served_firings, resp.profile.rounds[0].firings);
      EXPECT_GT(served_firings, 0u);
      // The logical profile is byte-identical across lanes and columnar.
      const std::string json = resp.profile.ToJson(/*include_timings=*/false);
      if (logical.empty()) logical = json;
      EXPECT_EQ(json, logical) << threads << " lanes, columnar " << columnar;
      // The trace: the stratum span carries the kernel attribute.
      EXPECT_TRUE(HasNote(resp.trace.spans, "stratum", "kernel", kernel));
    }
  }
}

TEST(ServedTcObservabilityTest, PlainProgramsKeepTheirExplain) {
  // No served pair: no component line, no kernel note.
  Database db;
  ASSERT_OK(workload::RandomDigraph(20, 40, 5, &db));
  QueryRequest req = QueryRequest::Datalog(
      "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n");
  req.options.observability.explain = true;
  req.options.observability.tracing = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse resp, graphlog::Run(req, &db));
  EXPECT_EQ(resp.explain.find("component order"), std::string::npos);
  EXPECT_EQ(resp.explain.find(eval::kTcKernelName), std::string::npos);
  EXPECT_FALSE(
      HasNote(resp.trace.spans, "stratum", "kernel", eval::kTcKernelName));
}

}  // namespace
}  // namespace graphlog
