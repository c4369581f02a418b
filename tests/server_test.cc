// Server/Session: epoch-snapshot isolation property suite.
//
// The load-bearing properties (DESIGN §11): a session pinned to a
// snapshot never observes commits published after it opened — including
// through the columnar path and result-cache hits — aborted batches are
// invisible at every level (contents, stamps, epoch), and every
// concurrent reader's result is bit-identical to evaluating the same
// query single-threaded on a quiesced copy of its snapshot. Runs under
// the `robustness` ctest label, so the TSan/ASan lanes
// (scripts/run_sanitizer_lanes.sh) cover the concurrent tests.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "gov/fault_injection.h"
#include "graphlog/api.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/io.h"
#include "testing/crash_sweep.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

using storage::Database;
using storage::LoadFacts;
using storage::Relation;
using testutil::RelationSet;

constexpr const char* kTcQuery =
    "query tc { edge X -> Y : edge+; distinguished X -> Y : tc; }";

/// A chain a..e plus whatever the writer appends later.
constexpr const char* kSeedFacts =
    "edge(a, b).\n"
    "edge(b, c).\n"
    "edge(c, d).\n"
    "edge(d, e).\n";

/// Evaluates kTcQuery single-threaded on a scratch database seeded from
/// `facts` — the quiesced ground truth a session result must match.
std::set<std::string> QuiescedTc(const std::string& facts) {
  Database db;
  EXPECT_TRUE(LoadFacts(facts, &db).ok());
  auto resp = Run(QueryRequest::GraphLog(kTcQuery), &db);
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  return RelationSet(db, "tc");
}

// ---------------------------------------------------------------------------
// Commit/epoch mechanics

TEST(ServerTest, EpochAdvancesPerCommitAndAbortsAreInvisible) {
  Server server;
  EXPECT_EQ(server.epoch(), 0u);
  ASSERT_OK_AND_ASSIGN(size_t n,
                       server.Apply(WriteBatch().Facts(kSeedFacts)));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(server.epoch(), 1u);
  ASSERT_OK(server.Apply(WriteBatch().Insert("edge", {"e", "f"})).status());
  EXPECT_EQ(server.epoch(), 2u);

  // A failing batch moves nothing: not the epoch, not the head snapshot,
  // not the authoritative contents or stamps.
  auto head_before = server.head();
  const Relation* edge = server.database().Find("edge");
  ASSERT_NE(edge, nullptr);
  const uint64_t stamp = edge->data_generation();
  auto bad = server.Apply(WriteBatch()
                              .Insert("edge", {"f", "g"})
                              .Facts("edge(broken.\n"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.head().get(), head_before.get());
  EXPECT_EQ(edge->size(), 5u);
  EXPECT_EQ(edge->data_generation(), stamp);
}

TEST(ServerTest, AtomicBatchRollsBackClearsAndCreations) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  // Clear an existing relation, create a new one, then fail: both the
  // cleared rows and the pre-batch catalog must come back exactly.
  auto before = RelationSet(server.database(), "edge");
  auto bad = server.Apply(WriteBatch()
                              .Clear("edge")
                              .Facts("brandnew(x, y).\n")
                              .Clear("no_such_relation"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(RelationSet(server.database(), "edge"), before);
  EXPECT_EQ(server.database().Find("brandnew"), nullptr);
  EXPECT_EQ(server.epoch(), 1u);
}

TEST(ServerTest, RollbackDiscardsInBatchInsertsBeforeClear) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  const Relation* edge = server.database().Find("edge");
  ASSERT_NE(edge, nullptr);
  const uint64_t stamp = edge->data_generation();
  auto before = RelationSet(server.database(), "edge");
  // Insert-then-clear-then-fail: the copy saved at clear time already
  // holds the in-batch insert and its bumped stamp; rollback must
  // reinstate the true pre-batch rows and stamp, never the contaminated
  // copy — a phantom row under a moved stamp would be published by the
  // next successful commit and certified by stamp-keyed caches.
  auto bad = server.Apply(WriteBatch()
                              .Insert("edge", {"e", "f"})
                              .Clear("edge")
                              .Clear("no_such_relation"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(RelationSet(server.database(), "edge"), before);
  EXPECT_EQ(server.database().Find("edge")->data_generation(), stamp);
  EXPECT_EQ(server.epoch(), 1u);

  // Without the failing op the batch commits, and rows inserted then
  // cleared in one batch leave nothing, in an old or a new relation.
  ASSERT_OK(server.Apply(WriteBatch()
                             .Insert("edge", {"e", "f"})
                             .Clear("edge")
                             .Insert("page", {"home"})
                             .Clear("page"))
                .status());
  EXPECT_EQ(server.epoch(), 2u);
  ASSERT_OK_AND_ASSIGN(auto fresh, server.OpenSession());
  EXPECT_EQ(testutil::RelationSize(fresh->database(), "edge"), 0u);
  EXPECT_EQ(testutil::RelationSize(fresh->database(), "page"), 0u);
}

TEST(ServerTest, SnapshotRetainsUntouchedVersions) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK(server.Apply(WriteBatch().Facts("color(a, red).\n")).status());
  auto s1 = server.head();
  ASSERT_OK(server.Apply(WriteBatch().Facts("color(b, blue).\n")).status());
  auto s2 = server.head();
  // The commit touched only `color`: the `edge` version is shared with
  // the previous snapshot, the `color` version is a fresh copy.
  Symbol edge_sym = server.database().symbols().Lookup("edge");
  Symbol color_sym = server.database().symbols().Lookup("color");
  EXPECT_EQ(s1->relations.at(edge_sym).get(), s2->relations.at(edge_sym).get());
  EXPECT_NE(s1->relations.at(color_sym).get(),
            s2->relations.at(color_sym).get());
}

TEST(ServerTest, AdmissionControlCapsOpenSessions) {
  Server server({.max_sessions = 2});
  ASSERT_OK_AND_ASSIGN(auto s1, server.OpenSession());
  ASSERT_OK_AND_ASSIGN(auto s2, server.OpenSession());
  auto s3 = server.OpenSession();
  EXPECT_EQ(s3.status().code(), StatusCode::kBudgetExceeded);
  s2.reset();  // closing a session frees a slot
  EXPECT_OK(server.OpenSession().status());
}

// ---------------------------------------------------------------------------
// Snapshot isolation

TEST(ServerIsolationTest, PinnedReaderNeverSeesLaterCommits) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto reader, server.OpenSession());
  const std::set<std::string> expected = QuiescedTc(kSeedFacts);

  ASSERT_OK(reader->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(reader->database(), "tc"), expected);

  // The writer extends the chain; the pinned reader must keep answering
  // from its snapshot.
  ASSERT_OK(server.Apply(WriteBatch().Insert("edge", {"e", "f"})).status());
  ASSERT_OK(reader->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(reader->database(), "tc"), expected);
  EXPECT_EQ(reader->epoch(), 1u);

  // Refresh re-pins to the head: the commit becomes visible.
  ASSERT_OK(reader->Refresh());
  EXPECT_EQ(reader->epoch(), 2u);
  ASSERT_OK(reader->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(reader->database(), "tc"),
            QuiescedTc(std::string(kSeedFacts) + "edge(e, f).\n"));
}

TEST(ServerIsolationTest, PinnedUnderColumnarAndCacheHits) {
  cache::ResultCache rcache;
  Server server({.result_cache = &rcache});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  SessionOptions so;
  so.defaults.eval.columnar = true;
  ASSERT_OK_AND_ASSIGN(auto reader, server.OpenSession(so));
  const std::set<std::string> expected = QuiescedTc(kSeedFacts);

  ASSERT_OK_AND_ASSIGN(QueryResponse first,
                       reader->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(RelationSet(reader->database(), "tc"), expected);
  EXPECT_GT(reader->csr_cache().stats().builds, 0u);

  // Writer commits; the pinned reader's repeat run — now a result-cache
  // hit over the columnar path — must still serve the snapshot answer.
  ASSERT_OK(server.Apply(WriteBatch().Insert("edge", {"e", "f"})).status());
  ASSERT_OK_AND_ASSIGN(QueryResponse second,
                       reader->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(RelationSet(reader->database(), "tc"), expected);

  // After refresh the EDB stamp moved, so the stale entry cannot serve:
  // the re-run recomputes against the new snapshot.
  ASSERT_OK(reader->Refresh());
  ASSERT_OK_AND_ASSIGN(QueryResponse third,
                       reader->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(RelationSet(reader->database(), "tc"),
            QuiescedTc(std::string(kSeedFacts) + "edge(e, f).\n"));
}

TEST(ServerIsolationTest, ResultCacheEntriesNeverCrossSessions) {
  cache::ResultCache rcache;
  Server server({.result_cache = &rcache});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto a, server.OpenSession());
  ASSERT_OK_AND_ASSIGN(auto b, server.OpenSession());
  // Session databases have distinct uids, so the same query misses in
  // each session once (entries are db-scoped) and hits on its own repeat.
  ASSERT_OK_AND_ASSIGN(auto a1, a->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_FALSE(a1.cache_hit);
  ASSERT_OK_AND_ASSIGN(auto b1, b->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_FALSE(b1.cache_hit);
  ASSERT_OK_AND_ASSIGN(auto a2, a->Run(QueryRequest::GraphLog(kTcQuery)));
  EXPECT_TRUE(a2.cache_hit);
  EXPECT_EQ(RelationSet(a->database(), "tc"), RelationSet(b->database(), "tc"));
}

TEST(ServerIsolationTest, WriterSessionFastForwardsInPlace) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  const uint64_t uid_before = session->database().uid();
  ASSERT_NE(session->database().Find("tc"), nullptr);

  // The session's own write lands in place (commit, then an in-place
  // Refresh): same private database (uid unchanged), materialized `tc`
  // survives, epoch reaches the commit.
  ASSERT_OK(session->Apply(WriteBatch().Insert("edge", {"e", "f"})).status());
  EXPECT_EQ(session->epoch(), server.epoch());
  EXPECT_EQ(session->database().uid(), uid_before);
  EXPECT_NE(session->database().Find("tc"), nullptr);
  // And the refreshed relation's stamp matches the published version, so
  // stamp-keyed caches stay coherent.
  Symbol edge_sym = server.database().symbols().Lookup("edge");
  auto head = server.head();
  const Relation* local = session->database().Find("edge");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(local->uid(), head->relations.at(edge_sym)->uid());
  EXPECT_EQ(local->data_generation(),
            head->relations.at(edge_sym)->data_generation());

  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(session->database(), "tc"),
            QuiescedTc(std::string(kSeedFacts) + "edge(e, f).\n"));
}

TEST(ServerIsolationTest, RefreshAcrossSymbolGrowthStaysInPlace) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  // The session interns local symbols (variables, aux predicates)...
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  const uint64_t uid_before = session->database().uid();
  // ...then a foreign commit interns brand-new server symbols. Local ids
  // live outside the server's range, so Refresh patches in place: same
  // private database, session materializations kept.
  ASSERT_OK(server.Apply(WriteBatch().Facts("owns(alice, fido).\n")).status());
  ASSERT_OK(session->Refresh());
  EXPECT_EQ(session->database().uid(), uid_before);
  EXPECT_NE(session->database().Find("tc"), nullptr);
  EXPECT_EQ(RelationSet(session->database(), "owns"),
            std::set<std::string>{"alice,fido"});
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(session->database(), "tc"), QuiescedTc(kSeedFacts));
}

TEST(ServerIsolationTest, RefreshDropsServerRemovedRelations) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK(server.Apply(WriteBatch().Facts("color(a, red).\n")).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  ASSERT_NE(session->database().Find("color"), nullptr);
  // The server drops `color` out-of-band and republishes. No new symbols
  // were interned, so Refresh takes the in-place fast path — which must
  // erase the deleted EDB while session-local materializations survive.
  Symbol color_sym = server.database().symbols().Lookup("color");
  ASSERT_TRUE(server.database().Remove(color_sym));
  server.Publish();
  const uint64_t uid_before = session->database().uid();
  ASSERT_OK(session->Refresh());
  EXPECT_EQ(session->database().uid(), uid_before);  // in-place, not rebuilt
  EXPECT_EQ(session->database().Find("color"), nullptr);
  EXPECT_NE(session->database().Find("tc"), nullptr);
}

TEST(ServerIsolationTest, LoadFileFastForwardMatchesPublishedVersion) {
  const std::string path =
      ::testing::TempDir() + "/graphlog_server_test_ff.facts";
  { std::ofstream(path) << "edge(e, f).\nedge(f, g).\n"; }
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  const uint64_t uid_before = session->database().uid();

  // After a LoadFile batch the session refreshes in place onto the
  // published head version: the same stamp AND the same rows.
  ASSERT_OK(session->Apply(WriteBatch().LoadFile(path)).status());
  EXPECT_EQ(session->database().uid(), uid_before);
  EXPECT_EQ(session->epoch(), server.epoch());
  auto head = server.head();
  Symbol edge_sym = server.database().symbols().Lookup("edge");
  const Relation* local = session->database().Find("edge");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(local->uid(), head->relations.at(edge_sym)->uid());
  EXPECT_EQ(local->data_generation(),
            head->relations.at(edge_sym)->data_generation());
  EXPECT_EQ(RelationSet(session->database(), "edge"),
            RelationSet(server.database(), "edge"));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// In-place refresh: the long-lived session equals a fresh one

/// Text of every relation `reference` holds, rendered from `db` by name.
std::string RelationsText(const Database& db, const Database& reference) {
  std::string out;
  for (const auto& [sym, rel] : reference.relations()) {
    const std::string& name = reference.symbols().name(sym);
    const Symbol local = db.symbols().Lookup(name);
    out += name + ":\n";
    out += local == kNoSymbol ? "<missing>\n" : db.RelationToString(local);
  }
  return out;
}

TEST(ServerRefreshTest, InPlaceRefreshMatchesFreshSessionUnderTwoWriters) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  // Session-local symbols: variables, aux predicates, and query-only
  // constants the writers never commit.
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  session->database().Intern("only_in_session");
  const uint64_t uid = session->database().uid();

  // 2 writers x 100 commits, each interning fresh node names; every
  // tenth commit also starts a fresh relation.
  constexpr int kCommitsPerWriter = 100;
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const std::string node =
            "w" + std::to_string(w) + "_" + std::to_string(i);
        WriteBatch batch;
        batch.Insert("edge", {node, i % 2 == 0 ? "a" : "c"});
        if (i % 10 == 0) batch.Insert("tag" + node, {node});
        if (!server.Apply(batch).ok()) failed.store(true);
      }
    });
  }
  // Refresh concurrently, comparing against a fresh session whenever
  // both land on the same epoch.
  auto compare = [&](bool must_match_epoch) {
    ASSERT_OK(session->Refresh());
    ASSERT_OK_AND_ASSIGN(auto fresh, server.OpenSession());
    if (fresh->epoch() != session->epoch()) {
      ASSERT_FALSE(must_match_epoch);
      return;
    }
    EXPECT_EQ(RelationsText(session->database(), fresh->database()),
              RelationsText(fresh->database(), fresh->database()));
  };
  for (int i = 0; i < 40; ++i) compare(false);
  for (auto& t : writers) t.join();
  ASSERT_FALSE(failed.load());
  compare(true);
  EXPECT_EQ(session->epoch(), 1u + 2 * kCommitsPerWriter);
  EXPECT_EQ(session->database().uid(), uid);  // never rebuilt

  // The edge index the first query built was caught up in place across
  // every refresh; a query through it answers like a fresh session's.
  ASSERT_OK_AND_ASSIGN(auto fresh, server.OpenSession());
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  ASSERT_OK(fresh->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(session->database(), "tc"),
            RelationSet(fresh->database(), "tc"));

  // Byte-identical once the session-local materializations are set aside.
  fresh.reset();
  ASSERT_OK_AND_ASSIGN(fresh, server.OpenSession());
  std::set<Symbol> server_relations;
  for (const auto& [sym, rel] : session->database().relations()) {
    if (sym < kLocalSymbolBase) server_relations.insert(sym);
  }
  session->database().RetainOnly(server_relations);
  EXPECT_EQ(graphlog::testing::DatabaseFingerprint(session->database()),
            graphlog::testing::DatabaseFingerprint(fresh->database()));
}

TEST(ServerRefreshTest, CommittedSymbolCollidingWithLocalOneRebuilds) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
  // "zed" is only a query constant here, so the session interns it in
  // its local range.
  const std::string query =
      "query from_zed { edge \"zed\" -> Y : edge+; "
      "distinguished \"zed\" -> Y : from_zed; }";
  ASSERT_OK(session->Run(QueryRequest::GraphLog(query)).status());
  EXPECT_TRUE(RelationSet(session->database(), "from_zed").empty());
  const uint64_t uid = session->database().uid();

  // A commit makes "zed" a server symbol: the session falls back to a
  // rebuild, and its answers equal a fresh session's.
  ASSERT_OK(server.Apply(WriteBatch().Insert("edge", {"zed", "a"})).status());
  ASSERT_OK(session->Refresh());
  EXPECT_NE(session->database().uid(), uid);
  ASSERT_OK(session->Run(QueryRequest::GraphLog(query)).status());
  ASSERT_OK_AND_ASSIGN(auto fresh, server.OpenSession());
  ASSERT_OK(fresh->Run(QueryRequest::GraphLog(query)).status());
  EXPECT_EQ(RelationSet(session->database(), "from_zed"),
            RelationSet(fresh->database(), "from_zed"));
  EXPECT_EQ(RelationSet(session->database(), "from_zed"),
            (std::set<std::string>{"zed,a", "zed,b", "zed,c", "zed,d",
                                   "zed,e"}));
}

TEST(ServerRefreshTest, PinnedScanSurvivesAppendsRollbacksAndClears) {
  const std::string dir = ::testing::TempDir() + "/graphlog_server_test_pin_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  gov::FaultInjector faults;
  ServerOptions so;
  so.faults = &faults;
  DurabilityOptions dur;
  dur.fsync = durability::FsyncPolicy::kOff;
  ASSERT_OK_AND_ASSIGN(auto server, Server::Open(dir, so, dur));
  // More than two chunks of `edge`, so commits append into a chunk the
  // pinned session shares.
  std::string seed;
  for (int i = 0; i < 2500; ++i) {
    seed += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
            ").\n";
  }
  seed += "color(v0, red).\ncolor(v1, blue).\n";
  ASSERT_OK(server->Apply(WriteBatch().Facts(seed)).status());
  ASSERT_OK_AND_ASSIGN(auto pinned, server->OpenSession());
  const std::string expected =
      graphlog::testing::DatabaseFingerprint(pinned->database());
  const uint64_t epoch = pinned->epoch();

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 60 && !failed.load(); ++i) {
      const std::string node = "x" + std::to_string(i);
      if (!server->Apply(WriteBatch().Insert("edge", {node, "v0"})).ok()) {
        failed.store(true);
      }
      if (i % 5 == 0) {
        // The WAL refuses the record: the applied rows roll back out of
        // the chunk the head and the pinned session share.
        gov::FaultSpec spec;
        faults.Arm("wal.append", spec);
        if (server->Apply(WriteBatch().Insert("edge", {node, "v1"})).ok()) {
          failed.store(true);
        }
        faults.Disarm("wal.append");
      }
      if (i % 20 == 10 && !server->Apply(WriteBatch().Clear("color")).ok()) {
        failed.store(true);
      }
      if (i % 20 == 15 &&
          !server->Apply(WriteBatch().Insert("color", {node, "green"})).ok()) {
        failed.store(true);
      }
    }
    done.store(true);
  });
  int scans = 0;
  while (!done.load() || scans < 3) {
    EXPECT_EQ(graphlog::testing::DatabaseFingerprint(pinned->database()),
              expected);
    ++scans;
  }
  writer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pinned->epoch(), epoch);
  EXPECT_EQ(graphlog::testing::DatabaseFingerprint(pinned->database()),
            expected);
  // The writer's own view is intact too: every good commit, no faulted one.
  ASSERT_OK_AND_ASSIGN(auto fresh, server->OpenSession());
  EXPECT_EQ(testutil::RelationSize(fresh->database(), "edge"), 2500u + 60u);
  fresh.reset();
  pinned.reset();  // sessions must not outlive their server
  server.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Governance and accounting

TEST(ServerGovernanceTest, SessionBudgetAndCancellationGovernQueries) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  SessionOptions so;
  // The closure is one served round; its rows trip the row budget.
  so.budget.max_result_rows = 1;
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession(so));
  auto tripped = session->Run(QueryRequest::GraphLog(kTcQuery));
  EXPECT_EQ(tripped.status().code(), StatusCode::kBudgetExceeded);

  ASSERT_OK_AND_ASSIGN(auto other, server.OpenSession(so));
  other->Cancel();
  auto cancelled = other->Run(QueryRequest::GraphLog(kTcQuery));
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(other->stats().errors, 1u);
}

TEST(ServerGovernanceTest, ServerFaultInjectorGatesCommits) {
  gov::FaultInjector faults;
  Server server({.faults = &faults});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  gov::FaultSpec spec;
  spec.trigger_hit = 1;
  faults.Arm("io.load", spec);
  auto r = server.Apply(WriteBatch().Facts("edge(e, f).\n"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(faults.hits("io.load"), 1u);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(testutil::RelationSize(server.database(), "edge"), 4u);
  faults.Reset();
  EXPECT_OK(server.Apply(WriteBatch().Facts("edge(e, f).\n")).status());
  EXPECT_EQ(server.epoch(), 2u);
}

TEST(ServerGovernanceTest, MetricsAccountPerSessionAndServer) {
  obs::MetricsRegistry metrics;
  Server server({.metrics = &metrics});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  SessionOptions so;
  so.name = "alpha";
  ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession(so));
  ASSERT_OK(session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  ASSERT_OK(session->Apply(WriteBatch().Insert("edge", {"e", "f"})).status());
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("server.commits"), 2u);
  EXPECT_EQ(snap.counters.at("query.runs"), 1u);
  EXPECT_EQ(snap.counters.at("server.sessions_opened"), 1u);
  EXPECT_EQ(snap.gauges.at("server.epoch"), 2);
  // Per-session counts live in Session::Stats only, never as registry
  // names.
  EXPECT_EQ(session->stats().queries, 1u);
  EXPECT_EQ(session->stats().writes, 1u);
  EXPECT_EQ(session->stats().refreshes, 1u);
  EXPECT_EQ(session->stats().errors, 0u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name.rfind("session.", 0), 0u) << name;
  }
  // The sessions gauge tracks closes as well as opens.
  EXPECT_EQ(snap.gauges.at("server.sessions"), 1);
  session.reset();
  EXPECT_EQ(metrics.Snapshot().gauges.at("server.sessions"), 0);
}

TEST(ServerGovernanceTest, RegistryStaysBoundedAcrossSessionsAndQueries) {
  // Every query below materializes predicates no earlier query used, and
  // every session has its own name; neither may add instruments to the
  // registry, which holds a fixed set of process-wide names.
  obs::MetricsRegistry metrics;
  Server server({.metrics = &metrics});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());
  auto instruments = [&metrics] {
    const obs::MetricsSnapshot snap = metrics.Snapshot();
    return snap.counters.size() + snap.gauges.size() + snap.histograms.size();
  };
  size_t after_first = 0;
  for (int s = 0; s < 20; ++s) {
    ASSERT_OK_AND_ASSIGN(auto session, server.OpenSession());
    for (int q = 0; q < 5; ++q) {
      const std::string name = "from-a-s" + std::to_string(s) + "q" +
                               std::to_string(q);
      QueryRequest req = QueryRequest::GraphLog(
          "query " + name + " { edge \"a\" -> Y : edge+; distinguished \"a\" "
          "-> Y : " + name + "; }");
      req.options.translation.specialize_bound_closures = true;
      ASSERT_OK_AND_ASSIGN(QueryResponse r, session->Run(std::move(req)));
      EXPECT_EQ(r.stats.result_tuples, 4u) << name;
    }
    if (s == 0) after_first = instruments();
  }
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(instruments(), after_first);
}

// ---------------------------------------------------------------------------
// Stamp-at-commit loader (the multi-relation write entry point)

TEST(LoaderStampTest, LoadBumpsEachTouchedRelationOnce) {
  Database db;
  ASSERT_OK(LoadFacts("edge(a, b).\n", &db).status());
  const Relation* edge = db.Find("edge");
  ASSERT_NE(edge, nullptr);
  const uint64_t stamp = edge->data_generation();
  // Many facts across two relations: one committed batch, one stamp bump
  // per touched relation — not one per fact.
  ASSERT_OK(LoadFacts("edge(b, c).\nedge(c, d).\nedge(d, e).\n"
                      "color(a, red).\ncolor(b, blue).\n",
                      &db)
                .status());
  EXPECT_EQ(edge->data_generation(), stamp + 1);
  EXPECT_EQ(db.Find("color")->data_generation(), 1u);
  // A batch of pure duplicates changes nothing, so no stamp moves.
  ASSERT_OK(LoadFacts("edge(b, c).\n", &db).status());
  EXPECT_EQ(edge->data_generation(), stamp + 1);
}

TEST(LoaderStampTest, FailedLoadPublishesNoStamp) {
  Database db;
  ASSERT_OK(LoadFacts(kSeedFacts, &db).status());
  const Relation* edge = db.Find("edge");
  const uint64_t stamp = edge->data_generation();
  // Validation failure (arity clash on the later fact): nothing applied,
  // nothing stamped.
  auto r = LoadFacts("edge(x, y).\nedge(oops).\n", &db);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(edge->size(), 4u);
  EXPECT_EQ(edge->data_generation(), stamp);
  // Fault-injected failure at the io.load site: same guarantee.
  gov::FaultInjector faults;
  gov::FaultSpec spec;
  faults.Arm("io.load", spec);
  gov::GovernorContext gov;
  gov.faults = &faults;
  auto injected = LoadFacts("edge(x, y).\n", &db, &gov);
  EXPECT_FALSE(injected.ok());
  EXPECT_EQ(edge->size(), 4u);
  EXPECT_EQ(edge->data_generation(), stamp);
}

// ---------------------------------------------------------------------------
// Concurrency: 1 writer + 4 reader sessions, every reader bit-identical
// to a quiesced single-threaded run over its pinned snapshot.

TEST(ServerConcurrencyTest, ReadersBitIdenticalToQuiescedSnapshotRuns) {
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());

  constexpr int kReaders = 4;
  constexpr int kReaderRounds = 6;
  constexpr int kWriterCommits = 24;
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kReaders);

  std::thread writer([&] {
    for (int i = 0; i < kWriterCommits; ++i) {
      // Extend the chain n5 -> n6 -> ... so every commit changes the
      // closure, and sprinkle aborted batches between good ones to prove
      // they are invisible to everyone.
      std::string from = i == 0 ? "e" : "n" + std::to_string(i + 4);
      std::string to = "n" + std::to_string(i + 5);
      auto ok = server.Apply(WriteBatch().Insert("edge", {from, to}));
      if (!ok.ok()) failed.store(true);
      auto bad = server.Apply(WriteBatch()
                                  .Insert("edge", {"zz", "zz2"})
                                  .Clear("never_declared"));
      if (bad.ok()) failed.store(true);  // must abort
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kReaderRounds && !failed.load(); ++round) {
        auto session_or = server.OpenSession();
        if (!session_or.ok()) {
          errors[r] = session_or.status().ToString();
          failed.store(true);
          return;
        }
        std::unique_ptr<Session> session = std::move(*session_or);
        // Ground truth: the session's materialized EDB, re-evaluated
        // single-threaded on a scratch database. The writer keeps
        // committing while this runs; the pinned session must not care.
        const std::string facts = storage::DumpFacts(session->database());
        const std::set<std::string> expected = QuiescedTc(facts);
        for (int rep = 0; rep < 2; ++rep) {
          auto resp = session->Run(QueryRequest::GraphLog(kTcQuery));
          if (!resp.ok()) {
            errors[r] = resp.status().ToString();
            failed.store(true);
            return;
          }
          auto got = RelationSet(session->database(), "tc");
          if (got != expected) {
            errors[r] = "reader " + std::to_string(r) + " round " +
                        std::to_string(round) +
                        " diverged from quiesced run (" +
                        std::to_string(got.size()) + " vs " +
                        std::to_string(expected.size()) + " tuples)";
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.epoch(), 1u + kWriterCommits);

  // Quiesced: a fresh session at the final head matches ground truth too.
  ASSERT_OK_AND_ASSIGN(auto final_session, server.OpenSession());
  const std::string final_facts = storage::DumpFacts(final_session->database());
  ASSERT_OK(final_session->Run(QueryRequest::GraphLog(kTcQuery)).status());
  EXPECT_EQ(RelationSet(final_session->database(), "tc"),
            QuiescedTc(final_facts));
}

TEST(ServerConcurrencyTest, ConcurrentReadersShareCacheAndColumnarSafely) {
  cache::ResultCache rcache;
  obs::MetricsRegistry metrics;
  Server server({.metrics = &metrics, .result_cache = &rcache});
  ASSERT_OK(server.Apply(WriteBatch().Facts(kSeedFacts)).status());

  constexpr int kReaders = 4;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      auto ok = server.Apply(WriteBatch().Insert(
          "edge", {"m" + std::to_string(i), "m" + std::to_string(i + 1)}));
      if (!ok.ok()) failed.store(true);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      SessionOptions so;
      so.defaults.eval.columnar = true;
      auto session_or = server.OpenSession(so);
      if (!session_or.ok()) {
        failed.store(true);
        return;
      }
      std::unique_ptr<Session> session = std::move(*session_or);
      const std::string facts = storage::DumpFacts(session->database());
      const std::set<std::string> expected = QuiescedTc(facts);
      for (int rep = 0; rep < 3; ++rep) {
        auto resp = session->Run(QueryRequest::GraphLog(kTcQuery));
        if (!resp.ok() ||
            RelationSet(session->database(), "tc") != expected) {
          failed.store(true);
          return;
        }
        if (session->Refresh().ok()) {
          // After re-pinning, recompute ground truth for the new snapshot.
          const std::string f2 = storage::DumpFacts(session->database());
          if (f2 != facts) return;  // snapshot moved; this round is done
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace graphlog
