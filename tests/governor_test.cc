// Tests for the query governor: cooperative cancellation, deadlines,
// resource budgets (strict and return_partial), rollback guarantees,
// deterministic fault injection, and the API-level error taxonomy.
//
// The headline contracts under test:
//  * budget trips are bit-identical across num_threads settings;
//  * cancellation/deadline aborts leave the Database exactly as it was
//    before the run (no partially-merged rounds leak);
//  * a cancel lands well under a stalled lane's stall time.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "eval/engine.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "storage/io.h"
#include "tc/columnar_tc.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using storage::Database;
using storage::Relation;
using storage::Tuple;
using testutil::RelationSet;
using testutil::RelationSize;

constexpr char kTcProgram[] =
    "t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).";

/// Loads a chain n0 -> n1 -> ... -> n{n} into `db` as `edge`.
void LoadChain(Database* db, int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  ASSERT_OK(storage::LoadFacts(text, db).status());
}

// ---------------------------------------------------------------------------
// Primitives.

TEST(CancellationTokenTest, CopiesShareState) {
  gov::CancellationToken a;
  gov::CancellationToken b = a;
  EXPECT_FALSE(a.cancelled());
  b.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  a.Reset();
  EXPECT_FALSE(b.cancelled());
  EXPECT_FALSE(a.flag()->load());
}

TEST(DeadlineTest, DefaultNeverExpires) {
  gov::Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, ZeroDeadlineExpiresImmediately) {
  gov::Deadline d = gov::Deadline::AfterNanos(0);
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
}

TEST(DeadlineTest, FutureDeadlineNotExpired) {
  gov::Deadline d = gov::Deadline::AfterMillis(60'000);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, DeadlinesPastTheClockRangeSaturateAndNeverExpire) {
  // Neither offset may wrap into a signed duration in the past.
  EXPECT_FALSE(gov::Deadline::AfterNanos(UINT64_MAX).expired());
  EXPECT_FALSE(gov::Deadline::AfterMillis(UINT64_MAX).expired());
  // ~295 years: fits uint64 nanoseconds but not signed nanoseconds.
  EXPECT_FALSE(gov::Deadline::AfterMillis(9'300'000'000'000).expired());
}

TEST(GovernorContextTest, NullCheckpointIsOk) {
  EXPECT_OK(gov::CheckPoint(nullptr, "anything"));
}

TEST(GovernorContextTest, CancelledAndExpiredTaxonomy) {
  gov::GovernorContext g;
  EXPECT_OK(g.Check("site"));
  g.token.Cancel();
  Status st = g.Check("site");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("site"), std::string::npos);

  gov::GovernorContext d;
  d.deadline = gov::Deadline::AfterNanos(0);
  EXPECT_EQ(d.Check("late").code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Fault injection.

TEST(FaultInjectorTest, TriggersOnNthHitOnly) {
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.trigger_hit = 3;
  spec.code = StatusCode::kInternal;
  fi.Arm("x", spec);
  EXPECT_OK(fi.Hit("x"));
  EXPECT_OK(fi.Hit("x"));
  Status st = fi.Hit("x");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("hit 3"), std::string::npos);
  EXPECT_OK(fi.Hit("x"));  // not repeat: only the 3rd hit fires
  EXPECT_EQ(fi.hits("x"), 4u);
}

TEST(FaultInjectorTest, RepeatFiresEveryHitFromN) {
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.trigger_hit = 2;
  spec.repeat = true;
  fi.Arm("x", spec);
  EXPECT_OK(fi.Hit("x"));
  EXPECT_FALSE(fi.Hit("x").ok());
  EXPECT_FALSE(fi.Hit("x").ok());
  fi.Disarm("x");
  EXPECT_OK(fi.Hit("x"));
  EXPECT_EQ(fi.hits("x"), 4u);  // disarm keeps counting
  fi.Reset();
  EXPECT_EQ(fi.hits("x"), 0u);
  EXPECT_TRUE(fi.Armed().empty());
}

TEST(FaultInjectorTest, HitsCountedWhenNothingArmed) {
  gov::FaultInjector fi;
  EXPECT_OK(fi.Hit("cold"));
  EXPECT_OK(fi.Hit("cold"));
  EXPECT_EQ(fi.hits("cold"), 2u);
}

TEST(FaultInjectorTest, StallWakesEarlyOnCancel) {
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.action = gov::FaultAction::kStall;
  spec.stall_ms = 5000;
  fi.Arm("x", spec);

  gov::GovernorContext g;
  g.faults = &fi;
  gov::CancellationToken token = g.token;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  Status st = g.Check("x");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  // The stall absorbed the cancel and the checkpoint reports it.
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2500);
}

// ---------------------------------------------------------------------------
// Engine: budgets, rollback, determinism.

TEST(EngineGovernorTest, StrictRowBudgetFailsAndRollsBack) {
  Database db;
  LoadChain(&db, 20);
  gov::GovernorContext g;
  g.budget.max_result_rows = 5;
  eval::EvalOptions opts;
  opts.governor = &g;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  // Rollback: the created IDB relation is gone, the EDB untouched.
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_EQ(RelationSize(db, "edge"), 20u);
}

TEST(EngineGovernorTest, PartialBudgetIsDeterministicAcrossThreads) {
  std::set<std::string> rows[2];
  uint64_t derived[2] = {0, 0};
  const unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Database db;
    LoadChain(&db, 30);
    gov::GovernorContext g;
    g.budget.max_result_rows = 50;
    g.budget.return_partial = true;
    eval::EvalOptions opts;
    opts.governor = &g;
    opts.num_threads = threads[i];
    ASSERT_OK_AND_ASSIGN(eval::EvalStats stats,
                         eval::EvaluateText(kTcProgram, &db, opts));
    EXPECT_TRUE(stats.truncated);
    EXPECT_NE(stats.truncated_by.find("max_result_rows"), std::string::npos);
    rows[i] = RelationSet(db, "t");
    derived[i] = stats.tuples_derived;
    // At-least semantics: the cap plus at most one round's overshoot.
    EXPECT_GE(stats.tuples_derived, 50u);
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(derived[0], derived[1]);
}

TEST(EngineGovernorTest, MaxRoundsPartialStopsEarly) {
  Database db;
  LoadChain(&db, 30);
  gov::GovernorContext g;
  g.budget.max_rounds = 3;
  g.budget.return_partial = true;
  eval::EvalOptions opts;
  opts.governor = &g;
  ASSERT_OK_AND_ASSIGN(eval::EvalStats stats,
                       eval::EvaluateText(kTcProgram, &db, opts));
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.iterations, 4u);
  // A 30-chain's closure has 465 pairs; 3 rounds cannot reach it.
  EXPECT_LT(RelationSize(db, "t"), 465u);
  EXPECT_GT(RelationSize(db, "t"), 0u);
}

TEST(EngineGovernorTest, PreExpiredDeadlineLeavesNoState) {
  Database db;
  LoadChain(&db, 10);
  gov::GovernorContext g;
  g.deadline = gov::Deadline::AfterNanos(0);
  eval::EvalOptions opts;
  opts.governor = &g;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_EQ(RelationSize(db, "edge"), 10u);
}

TEST(EngineGovernorTest, RollbackTruncatesPreexistingRelations) {
  Database db;
  LoadChain(&db, 5);
  // First run materializes t = closure of the 5-chain (15 pairs).
  ASSERT_OK(eval::EvaluateText(kTcProgram, &db).status());
  const size_t before = RelationSize(db, "t");
  ASSERT_EQ(before, 15u);
  // Grow the graph, then fail a second governed run: t must come back
  // to exactly its pre-run size, not keep half-merged new pairs.
  ASSERT_OK(storage::LoadFacts("edge(n5, n6). edge(n6, n7).", &db).status());
  gov::GovernorContext g;
  g.token.Cancel();
  eval::EvalOptions opts;
  opts.governor = &g;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(RelationSize(db, "t"), before);
}

TEST(EngineGovernorTest, EvalRoundFaultRollsBack) {
  Database db;
  LoadChain(&db, 10);
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.trigger_hit = 2;
  spec.code = StatusCode::kInternal;
  spec.message = "boom";
  fi.Arm("eval.round", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  eval::EvalOptions opts;
  opts.governor = &g;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("boom"), std::string::npos);
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_GE(fi.hits("eval.round"), 2u);
}

TEST(EngineGovernorTest, PoolTaskFaultPropagatesFromParallelLanes) {
  Database db;
  LoadChain(&db, 20);
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.trigger_hit = 2;
  spec.code = StatusCode::kInternal;
  fi.Arm("pool.task", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  eval::EvalOptions opts;
  opts.governor = &g;
  opts.num_threads = 4;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // The lane error aborted before the merge: rollback left no trace.
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_EQ(RelationSize(db, "edge"), 20u);
}

// ---------------------------------------------------------------------------
// The TC kernel (tc::ColumnarTransitiveClosure), the columnar kernels and
// the columnar engine path.

TEST(TcGovernorTest, StrictBudgetFails) {
  // A strict byte budget under the closure's estimate fails the kernel.
  Database db;
  LoadChain(&db, 50);
  const Relation& edges = *db.Find("edge");
  gov::GovernorContext g;
  g.budget.max_bytes = 10 * Relation::RowBytes(2);
  tc::TcStats stats;
  auto r = tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
}

TEST(TcGovernorTest, PartialBudgetTruncates) {
  // A return_partial row cap keeps the first `cap` rows of the
  // unbudgeted closure.
  Database db;
  LoadChain(&db, 50);
  const Relation& edges = *db.Find("edge");
  ASSERT_OK_AND_ASSIGN(Relation full, tc::ColumnarTransitiveClosure(edges));
  gov::GovernorContext g;
  g.budget.max_result_rows = 30;
  g.budget.return_partial = true;
  tc::TcStats stats;
  ASSERT_OK_AND_ASSIGN(
      Relation closure,
      tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g, &stats));
  EXPECT_TRUE(stats.truncated);
  ASSERT_EQ(closure.size(), 30u);
  EXPECT_LT(closure.size(), full.size());
  for (size_t i = 0; i < closure.size(); ++i) {
    EXPECT_EQ(closure.rows()[i], full.rows()[i]) << "row " << i;
  }
}

TEST(ColumnarGovernorTest, StrictRowBudgetFails) {
  Database db;
  LoadChain(&db, 50);
  const Relation& edges = *db.Find("edge");
  gov::GovernorContext g;
  g.budget.max_result_rows = 10;
  auto r = tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
}

TEST(ColumnarGovernorTest, PartialRowCapDeterministicAcrossThreads) {
  // Same contract as the row-path parallel kernel: a return_partial row
  // cap yields bit-identical rows at every thread count.
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 7, &db));
  const Relation& edges = *db.Find("edge");
  Relation results[2] = {Relation(2), Relation(2)};
  const unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    gov::GovernorContext g;
    g.budget.max_result_rows = 100;
    g.budget.return_partial = true;
    tc::TcStats stats;
    ASSERT_OK_AND_ASSIGN(
        results[i],
        tc::ColumnarTransitiveClosure(edges, threads[i], nullptr, &g,
                                      &stats));
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(results[i].size(), 100u);
  }
  EXPECT_EQ(results[0].rows(), results[1].rows());
}

TEST(ColumnarGovernorTest, PartialByteBudgetTruncates) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 9, &db));
  const Relation& edges = *db.Find("edge");
  ASSERT_OK_AND_ASSIGN(Relation full, tc::ColumnarTransitiveClosure(edges));
  gov::GovernorContext g;
  g.budget.max_bytes = full.MemoryBytes() / 4;
  g.budget.return_partial = true;
  tc::TcStats stats;
  ASSERT_OK_AND_ASSIGN(
      Relation capped,
      tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g, &stats));
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(capped.size(), full.size());
  EXPECT_GT(capped.size(), 0u);
  // The truncation is a prefix of the unbudgeted run's insertion order.
  for (size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped.rows()[i], full.rows()[i]) << "row " << i;
  }
}

TEST(ColumnarGovernorTest, PartialByteBudgetBelowOneRowKeepsNoRows) {
  // A byte budget under one row's estimate caps the closure at 0 rows,
  // alone or under a looser row cap.
  Database db;
  LoadChain(&db, 10);
  const Relation& edges = *db.Find("edge");
  for (uint64_t max_rows : {0u, 5u}) {
    gov::GovernorContext g;
    g.budget.max_bytes = 1;
    g.budget.max_result_rows = max_rows;
    g.budget.return_partial = true;
    tc::TcStats stats;
    ASSERT_OK_AND_ASSIGN(
        Relation capped,
        tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g, &stats));
    EXPECT_TRUE(stats.truncated) << "max_result_rows " << max_rows;
    EXPECT_EQ(capped.size(), 0u) << "max_result_rows " << max_rows;
  }
}

TEST(ColumnarGovernorTest, CancelLandsWellUnderStall) {
  // Arm a 5-second stall on every tc.expand hit, start a 4-lane closure
  // of a 200-node graph, cancel ~50 ms in: the cancel must land orders of
  // magnitude before the stall would have drained (the acceptance bound
  // for shell Ctrl-C latency).
  Database db;
  ASSERT_OK(workload::RandomDigraph(200, 800, 11, &db));
  const Relation& edges = *db.Find("edge");
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.action = gov::FaultAction::kStall;
  spec.stall_ms = 5000;
  spec.repeat = true;
  fi.Arm("tc.expand", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  gov::CancellationToken token = g.token;

  Status result = Status::OK();
  const auto start = std::chrono::steady_clock::now();
  std::thread worker([&] {
    auto r = tc::ColumnarTransitiveClosure(edges, 4, nullptr, &g);
    result = r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  worker.join();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.ToString();
  EXPECT_LT(elapsed_ms, 2500);  // one stall is 5000 ms; N sources stall
}

TEST(ColumnarGovernorTest, CancelLandsInsideTheSerialMerge) {
  // 1,000 sources all reach one hub and its 1,500 targets: the 1-lane BFS
  // is two bitset waves per source, while the serial merge materializes
  // 1.5M pairs, so most of an uncancelled run's time T is the merge. A
  // cancel a third of the way in lands in the merge, which polls the
  // token every 1,024 pairs: the kernel returns long before the rest of
  // the merge could have run.
  Relation edges(2);
  for (int i = 0; i < 1000; ++i) {
    edges.Insert(Tuple{Value::Int(i), Value::Int(-1)});
  }
  for (int j = 0; j < 1500; ++j) {
    edges.Insert(Tuple{Value::Int(-1), Value::Int(100000 + j)});
  }
  using Clock = std::chrono::steady_clock;
  Clock::duration full{};
  {
    const auto start = Clock::now();
    ASSERT_OK_AND_ASSIGN(Relation closure,
                         tc::ColumnarTransitiveClosure(edges, 1));
    EXPECT_EQ(closure.size(), 1000u * 1501u + 1500u);
    full = Clock::now() - start;
  }
  // A loaded host can deschedule the worker, so the fastest of a few
  // cancelled attempts is compared; finishing the merge would take about
  // two thirds of `full` on every attempt.
  Clock::duration fastest = Clock::duration::max();
  for (int attempt = 0; attempt < 5 && fastest >= full / 2; ++attempt) {
    gov::GovernorContext g;
    gov::CancellationToken token = g.token;
    Status result = Status::OK();
    Clock::time_point done;
    std::thread worker([&] {
      result = tc::ColumnarTransitiveClosure(edges, 1, nullptr, &g).status();
      done = Clock::now();
    });
    std::this_thread::sleep_for(full / 3);
    const auto cancel_at = Clock::now();
    token.Cancel();
    worker.join();
    if (result.ok()) continue;  // the run beat the cancel; try again
    EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.ToString();
    fastest = std::min(fastest, done - cancel_at);
  }
  EXPECT_LT(fastest, full / 2)
      << "cancel took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(fastest)
             .count()
      << " ms of a "
      << std::chrono::duration_cast<std::chrono::milliseconds>(full).count()
      << " ms run";
}

TEST(ColumnarGovernorTest, CsrBuildFaultFailsKernel) {
  Database db;
  LoadChain(&db, 10);
  const Relation& edges = *db.Find("edge");
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "csr boom";
  fi.Arm("csr.build", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  auto r = tc::ColumnarTransitiveClosure(edges, 0, nullptr, &g);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("csr boom"), std::string::npos);
  EXPECT_EQ(fi.hits("csr.build"), 1u);
}

TEST(ColumnarGovernorTest, CsrBuildFaultRollsBackEngineRun) {
  // The fault fires at batch setup, before any lane runs: the engine
  // must abort pre-merge and roll the database back untouched.
  Database db;
  LoadChain(&db, 10);
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "csr boom";
  fi.Arm("csr.build", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  eval::EvalOptions opts;
  opts.governor = &g;
  opts.columnar = true;
  auto r = eval::EvaluateText(kTcProgram, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_EQ(RelationSize(db, "edge"), 10u);
  EXPECT_GE(fi.hits("csr.build"), 1u);
}

TEST(ColumnarGovernorTest, EnginePartialBudgetMatchesRowPath) {
  // A return_partial budget trip must land on the identical prefix in
  // both engine paths, at both thread counts.
  std::set<std::string> rows[4];
  int i = 0;
  for (bool columnar : {false, true}) {
    for (unsigned threads : {1u, 4u}) {
      Database db;
      LoadChain(&db, 30);
      gov::GovernorContext g;
      g.budget.max_result_rows = 50;
      g.budget.return_partial = true;
      eval::EvalOptions opts;
      opts.governor = &g;
      opts.columnar = columnar;
      opts.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(eval::EvalStats stats,
                           eval::EvaluateText(kTcProgram, &db, opts));
      EXPECT_TRUE(stats.truncated);
      rows[i++] = RelationSet(db, "t");
    }
  }
  for (int j = 1; j < 4; ++j) EXPECT_EQ(rows[0], rows[j]) << "variant " << j;
}

TEST(ColumnarGovernorTest, BitsetRpqBudgetAndCancel) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(100, 500, 3, &db));
  graph::DataGraph dg = graph::DataGraph::FromDatabase(db);
  ASSERT_OK_AND_ASSIGN(gl::PathExpr expr,
                       gl::ParsePathExpr("edge+", &db.symbols()));

  gov::GovernorContext cancelled;
  cancelled.token.Cancel();
  rpq::RpqOptions opts;
  opts.governor = &cancelled;
  auto r = rpq::EvalRpqBitset(dg, expr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  gov::GovernorContext strict;
  strict.budget.max_result_rows = 5;
  opts.governor = &strict;
  r = rpq::EvalRpqBitset(dg, expr, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);

  gov::GovernorContext partial;
  partial.budget.max_result_rows = 5;
  partial.budget.return_partial = true;
  opts.governor = &partial;
  rpq::RpqStats stats;
  ASSERT_OK_AND_ASSIGN(Relation rel, rpq::EvalRpqBitset(dg, expr, opts,
                                                        &stats));
  EXPECT_TRUE(stats.truncated);
  EXPECT_GE(rel.size(), 5u);
  EXPECT_LT(rel.size(), 5000u);
}

// ---------------------------------------------------------------------------
// RPQ.

TEST(RpqGovernorTest, PreCancelledSearchAborts) {
  Database db;
  LoadChain(&db, 4);
  graph::DataGraph dg = graph::DataGraph::FromDatabase(db);
  gov::GovernorContext g;
  g.token.Cancel();
  rpq::RpqOptions opts;
  opts.governor = &g;
  auto r = rpq::EvalRpqText(dg, "edge+", &db.symbols(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(RpqGovernorTest, BudgetBoundsProductSearch) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(100, 500, 3, &db));
  graph::DataGraph dg = graph::DataGraph::FromDatabase(db);

  gov::GovernorContext strict;
  strict.budget.max_result_rows = 5;
  rpq::RpqOptions opts;
  opts.governor = &strict;
  auto r = rpq::EvalRpqText(dg, "edge+", &db.symbols(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);

  gov::GovernorContext partial;
  partial.budget.max_result_rows = 5;
  partial.budget.return_partial = true;
  opts.governor = &partial;
  rpq::RpqStats stats;
  ASSERT_OK_AND_ASSIGN(
      Relation rel, rpq::EvalRpqText(dg, "edge+", &db.symbols(), opts,
                                     &stats));
  EXPECT_TRUE(stats.truncated);
  // Budget checks run every ~256 pops, so the overshoot is bounded but
  // nonzero; the full closure of this graph is far larger.
  EXPECT_GE(rel.size(), 5u);
  EXPECT_LT(rel.size(), 5000u);
}

// ---------------------------------------------------------------------------
// Loader.

TEST(IoGovernorTest, LoadFaultAppliesNothing) {
  Database db;
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  fi.Arm("io.load", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  auto r = storage::LoadFacts("a(1). a(2). a(3).", &db, &g);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(db.Find("a"), nullptr);
  // Exactly one governed checkpoint per load, after validation.
  EXPECT_EQ(fi.hits("io.load"), 1u);
}

// ---------------------------------------------------------------------------
// API layer: taxonomy counters and slow-log capture.

TEST(ApiGovernorTest, SummarizationHonoursDeadlineAndCancellation) {
  // Section 4 path summarization through the public front door. An
  // already-expired or already-cancelled governor trips before the graph
  // runs; one that trips while a source is being summarized (held there
  // by an aggr.relax stall) stops the summary instead of returning it.
  Database db;
  ASSERT_OK(storage::LoadFacts("w(a, b, 2).\nw(b, c, 3).\nw(a, c, 1).\n",
                               &db)
                .status());
  auto run_governed = [&](gov::GovernorContext* g) {
    QueryRequest req = QueryRequest::GraphLog(
        "query es {\n"
        "  summarize E = max<sum<D>> over w(D);\n"
        "  distinguished T1 -> T2 : es(E);\n"
        "}\n");
    req.options.eval.governor = g;
    return graphlog::Run(req, &db).status();
  };

  gov::GovernorContext late;
  late.deadline = gov::Deadline::AfterNanos(0);
  EXPECT_EQ(run_governed(&late).code(), StatusCode::kDeadlineExceeded);

  gov::GovernorContext cancelled;
  cancelled.token.Cancel();
  EXPECT_EQ(run_governed(&cancelled).code(), StatusCode::kCancelled);

  // The deadline expires during a 200 ms stall at the first source.
  gov::FaultInjector faults;
  gov::FaultSpec stall;
  stall.action = gov::FaultAction::kStall;
  stall.stall_ms = 200;
  faults.Arm("aggr.relax", stall);
  gov::GovernorContext expiring;
  expiring.faults = &faults;
  expiring.deadline = gov::Deadline::AfterMillis(50);
  EXPECT_EQ(run_governed(&expiring).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faults.hits("aggr.relax"), 1u);

  // A cancel from another thread wakes a 10 s stall at the first source.
  stall.stall_ms = 10'000;
  faults.Arm("aggr.relax", stall);
  gov::GovernorContext cancelling;
  cancelling.faults = &faults;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancelling.token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(run_governed(&cancelling).code(), StatusCode::kCancelled);
  canceller.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  gov::GovernorContext open;
  ASSERT_OK(run_governed(&open));
  EXPECT_EQ(RelationSet(db, "es"),
            (std::set<std::string>{"a,b,2", "a,c,5", "b,c,3"}));
}

TEST(ApiGovernorTest, TaxonomyCountersAndSlowLogCapture) {
  obs::MetricsRegistry metrics;
  obs::SlowQueryLog slowlog;
  Database db;
  LoadChain(&db, 20);

  auto run_governed = [&](gov::GovernorContext* g) {
    QueryRequest req = QueryRequest::Datalog(kTcProgram);
    req.options.eval.governor = g;
    req.options.observability.metrics = &metrics;
    req.options.observability.slow_query_log = &slowlog;
    // Threshold far beyond any test runtime: only governed aborts may
    // land in the log.
    req.options.observability.slow_query_threshold_ns = 60'000'000'000ull;
    return graphlog::Run(req, &db);
  };

  gov::GovernorContext cancelled;
  cancelled.token.Cancel();
  EXPECT_EQ(run_governed(&cancelled).status().code(), StatusCode::kCancelled);

  gov::GovernorContext late;
  late.deadline = gov::Deadline::AfterNanos(0);
  EXPECT_EQ(run_governed(&late).status().code(),
            StatusCode::kDeadlineExceeded);

  gov::GovernorContext broke;
  broke.budget.max_result_rows = 3;
  EXPECT_EQ(run_governed(&broke).status().code(),
            StatusCode::kBudgetExceeded);

  gov::GovernorContext partial;
  partial.budget.max_result_rows = 3;
  partial.budget.return_partial = true;
  auto ok = run_governed(&partial);
  ASSERT_OK(ok.status());
  EXPECT_TRUE(ok->truncated);
  EXPECT_FALSE(ok->truncated_by.empty());

  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters["query.cancelled"], 1u);
  EXPECT_EQ(snap.counters["query.deadline_exceeded"], 1u);
  EXPECT_EQ(snap.counters["query.budget_exceeded"], 1u);
  EXPECT_EQ(snap.counters["query.truncated"], 1u);

  // The three aborts were captured despite the 60 s threshold; the
  // successful truncated run was not (it is not an abort).
  EXPECT_EQ(slowlog.total_recorded(), 3u);
  for (const obs::SlowQueryRecord& rec : slowlog.Entries()) {
    EXPECT_FALSE(rec.error.empty());
  }
}

}  // namespace
}  // namespace graphlog
