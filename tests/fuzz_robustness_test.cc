// Mutation fuzzing of the text front doors: random byte-level mutations
// of well-formed Datalog programs, GraphLog queries, and fact files must
// never crash the parsers or the engine — every input either evaluates
// or fails with a clean, non-empty Status. Deterministic in its seeds,
// and intended to run under both sanitizer lanes (GRAPHLOG_SANITIZE=
// thread|address), where "no crash" also means "no UB the tools can see".

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "cache/view_catalog.h"
#include "columnar/csr.h"
#include "columnar/csr_cache.h"
#include "durability/wal.h"
#include "eval/engine.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "server/server.h"
#include "storage/database.h"
#include "storage/io.h"
#include "testing/crash_sweep.h"
#include "testing/random_programs.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

using storage::Database;

/// Applies `n` random byte mutations (overwrite / insert / delete /
/// truncate) to `text`. Deterministic in `rng`.
std::string Mutate(std::string text, int n, std::mt19937_64* rng) {
  // Printable noise plus the grammar's own punctuation, so mutations hit
  // both lexer edges and parser edges.
  constexpr char kBytes[] = "(),.:-+*?!{}&|=_ \t\nabcXY019@\\\"%";
  for (int i = 0; i < n && !text.empty(); ++i) {
    size_t pos = (*rng)() % text.size();
    switch ((*rng)() % 4) {
      case 0:
        text[pos] = kBytes[(*rng)() % (sizeof(kBytes) - 1)];
        break;
      case 1:
        text.insert(pos, 1, kBytes[(*rng)() % (sizeof(kBytes) - 1)]);
        break;
      case 2:
        text.erase(pos, 1);
        break;
      default:
        text.resize(pos);  // truncate: unbalanced braces, cut tokens
        break;
    }
  }
  return text;
}

/// A small EDB for the random linear programs (e1/2, e2/2, n1/1) plus a
/// graph for GraphLog closure queries.
void SeedDatabase(Database* db) {
  ASSERT_OK(storage::LoadFacts("e1(a, b). e1(b, c). e1(c, d).\n"
                               "e2(b, a). e2(d, c).\n"
                               "n1(a). n1(c).\n"
                               "edge(a, b). edge(b, c). edge(c, a).",
                               db)
                .status());
}

/// Runs mutated text through the full front door. The only acceptable
/// outcomes are a clean success or a clean error; anything else (crash,
/// hang, empty error) fails the test. A governor bounds runaway
/// mutants — a mutation may legitimately produce an expensive program.
void RunMutant(QueryRequest req, const std::string& label) {
  Database db;
  SeedDatabase(&db);
  gov::GovernorContext g;
  g.deadline = gov::Deadline::AfterMillis(10'000);
  g.budget.max_rounds = 200;
  g.budget.max_result_rows = 200'000;
  req.options.eval.governor = &g;
  auto r = graphlog::Run(req, &db);
  if (!r.ok()) {
    EXPECT_NE(r.status().code(), StatusCode::kOk) << label;
    EXPECT_FALSE(r.status().message().empty()) << label;
  }
}

TEST(FuzzRobustnessTest, MutatedDatalogProgramsNeverCrash) {
  testing::RandomProgramOptions gen;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string base = testing::RandomLinearProgram(gen, seed);
    std::mt19937_64 rng(seed * 7919);
    for (int round = 0; round < 8; ++round) {
      const std::string mutant =
          Mutate(base, 1 + static_cast<int>(rng() % 6), &rng);
      RunMutant(QueryRequest::Datalog(mutant),
                "datalog seed " + std::to_string(seed) + " round " +
                    std::to_string(round));
    }
  }
}

TEST(FuzzRobustnessTest, MutatedGraphLogQueriesNeverCrash) {
  const std::string base =
      "query t { edge X -> Y : edge+; distinguished X -> Y : t; }\n"
      "query s { edge X -> Y : (edge.edge)+; n1 X;"
      " distinguished X -> Y : s; }";
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 120; ++round) {
    const std::string mutant =
        Mutate(base, 1 + static_cast<int>(rng() % 8), &rng);
    RunMutant(QueryRequest::GraphLog(mutant),
              "graphlog round " + std::to_string(round));
  }
}

TEST(FuzzRobustnessTest, MutatedFactFilesNeverCrashOrPartiallyApply) {
  const std::string base =
      "from(106, toronto).\ndeparture(106, 1305).\narrives(106, ottawa).\n"
      "price(106, 3900).\n";
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 200; ++round) {
    const std::string mutant =
        Mutate(base, 1 + static_cast<int>(rng() % 10), &rng);
    Database db;
    auto r = storage::LoadFacts(mutant, &db);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
      // Transactional: a failed load applies nothing.
      EXPECT_TRUE(db.relations().empty()) << mutant;
    }
  }
}

// ---------------------------------------------------------------------------
// Cache/view coherence under random interleavings. This is robustness of
// the caching subsystem rather than the parsers: any schedule of fact
// insertions, view refreshes, and cached query evaluations must leave
// query answers identical to cold recomputation over the same facts, and
// a result-cache hit must not mutate the database at all.

/// Every relation's rows in insertion order — order-sensitive, unlike
/// testutil::RelationSet, so it detects any write a pure serve performs.
std::map<std::string, std::vector<std::string>> ExactContents(
    const Database& db) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& [name, rel] : db.relations()) {
    std::vector<std::string>& rows = out[db.symbols().name(name)];
    for (const auto& row : rel.rows()) {
      std::string s;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) s += ",";
        s += row[i].ToString(db.symbols());
      }
      rows.push_back(s);
    }
  }
  return out;
}

TEST(FuzzRobustnessTest, InterleavedCacheViewOpsMatchColdRecomputation) {
  const std::string kViewText =
      "query vtc { edge X -> Y : edge+; distinguished X -> Y : vtc; }";
  const std::string kHopText =
      "query hop { edge X -> Z : edge edge; distinguished X -> Z : hop; }";
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);

    Database hot;
    cache::ResultCache rcache;
    cache::ViewCatalog views;
    QueryOptions copts;
    copts.cache.result_cache = &rcache;
    copts.cache.views = &views;

    // Everything ever inserted, in order, so a cold mirror can be replayed.
    std::vector<std::pair<std::string, std::string>> fact_log;
    auto insert_random_edge = [&]() {
      std::string a = "n" + std::to_string(rng() % 8);
      std::string b = "n" + std::to_string(rng() % 8);
      EXPECT_OK(hot.AddFact(
          "edge", {Value::Sym(hot.Intern(a)), Value::Sym(hot.Intern(b))}));
      fact_log.emplace_back(a, b);
    };
    auto cold_answer = [&](const std::string& text, const char* pred) {
      Database cold;
      for (const auto& [a, b] : fact_log) {
        EXPECT_OK(cold.AddFact("edge", {Value::Sym(cold.Intern(a)),
                                        Value::Sym(cold.Intern(b))}));
      }
      EXPECT_OK(graphlog::Run(QueryRequest::GraphLog(text), &cold).status());
      return testutil::RelationSet(cold, pred);
    };
    auto run_cached = [&](const std::string& text) {
      QueryRequest req = QueryRequest::GraphLog(text);
      req.options = copts;
      auto r = graphlog::Run(req, &hot);
      EXPECT_OK(r.status());
      return std::move(r).ValueOrDie();
    };

    for (int i = 0; i < 3; ++i) insert_random_edge();
    ASSERT_OK_AND_ASSIGN(cache::ViewDefinition def,
                         MakeViewDefinition("vtc", kViewText, &hot, copts));
    ASSERT_OK(views.Define(std::move(def), &hot));

    for (int op = 0; op < 24; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      switch (rng() % 4) {
        case 0:
          insert_random_edge();
          break;
        case 1:
          ASSERT_OK(views.RefreshAll(&hot));
          break;
        case 2: {
          // The view's own query: always answered from the catalog,
          // refreshed on demand, and equal to cold recomputation (as a
          // set — incremental maintenance may order rows differently).
          QueryResponse r = run_cached(kViewText);
          EXPECT_TRUE(r.served_from_view);
          EXPECT_EQ(testutil::RelationSet(hot, "vtc"),
                    cold_answer(kViewText, "vtc"));
          break;
        }
        default: {
          // A non-view query exercises the result cache. Hits must be
          // pure serves: bit-identical database before and after.
          auto before = ExactContents(hot);
          QueryResponse r = run_cached(kHopText);
          EXPECT_FALSE(r.served_from_view);
          if (r.cache_hit) {
            EXPECT_EQ(ExactContents(hot), before);
          }
          EXPECT_EQ(testutil::RelationSet(hot, "hop"),
                    cold_answer(kHopText, "hop"));
          break;
        }
      }
    }
  }
}

TEST(FuzzRobustnessTest, InterleavedMutationsNeverServeStaleCsr) {
  // Random insert/clear/truncate/drop-index interleavings against a
  // shared CsrCache: after every operation, the snapshot served by Get()
  // must decode to exactly the relation's current rows — a stale serve
  // is the one bug class the generation stamp exists to kill.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    Database db;
    ASSERT_OK(db.AddFact("edge", {Value::Int(0), Value::Int(1)}));
    storage::Relation* rel = db.FindMutable(db.Intern("edge"));
    ASSERT_NE(rel, nullptr);
    columnar::CsrCache cache;

    for (int op = 0; op < 40; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      switch (rng() % 8) {
        case 0:
          rel->Clear();
          break;
        case 1:
          rel->TruncateTo(rng() % (rel->size() + 1));
          break;
        case 2:
          rel->DropIndexes();  // must NOT invalidate the snapshot
          break;
        default:
          rel->Insert(storage::Tuple{Value::Int(int64_t(rng() % 12)),
                                     Value::Int(int64_t(rng() % 12))});
          break;
      }
      ASSERT_OK_AND_ASSIGN(auto csr, cache.Get(*rel));
      ASSERT_EQ(csr->num_edges(), rel->size());
      std::vector<storage::Tuple> decoded;
      for (uint32_t u = 0; u < csr->num_nodes(); ++u) {
        for (uint32_t t : csr->Fwd(u)) {
          decoded.push_back(storage::Tuple{csr->values[u], csr->values[t]});
        }
      }
      std::sort(decoded.begin(), decoded.end(), storage::TupleLess());
      EXPECT_EQ(decoded, rel->SortedRows()) << "stale CSR served";
    }
    EXPECT_GT(cache.stats().invalidations, 0u);
  }
}

TEST(FuzzRobustnessTest, ColumnarEngineMatchesRowEngineUnderInterleaving) {
  // Random linear programs evaluated repeatedly while the EDB mutates
  // between runs, columnar sharing one CsrCache across every run (so
  // reuse and invalidation both happen). The two engine paths must agree
  // on every relation after every round.
  testing::RandomProgramOptions gen;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x51afd34ca1ULL);
    const std::string program = testing::RandomLinearProgram(gen, seed);

    Database row_db, col_db;
    columnar::CsrCache cache;
    auto mutate_both = [&](Database* a, Database* b) {
      const std::string x = "m" + std::to_string(rng() % 9);
      const std::string y = "m" + std::to_string(rng() % 9);
      const char* pred = (rng() % 2) == 0 ? "e1" : "e2";
      for (Database* d : {a, b}) {
        EXPECT_OK(d->AddFact(
            pred, {Value::Sym(d->Intern(x)), Value::Sym(d->Intern(y))}));
      }
    };
    for (Database* d : {&row_db, &col_db}) {
      EXPECT_OK(storage::LoadFacts("e1(a, b). e2(b, a). n1(a).", d)
                    .status());
    }
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      for (int i = 0; i < 3; ++i) mutate_both(&row_db, &col_db);

      gov::GovernorContext g;
      g.budget.max_rounds = 200;
      eval::EvalOptions row_opts;
      row_opts.governor = &g;
      ASSERT_OK(eval::EvaluateText(program, &row_db, row_opts).status());

      eval::EvalOptions col_opts;
      col_opts.governor = &g;
      col_opts.columnar = true;
      col_opts.csr_cache = &cache;
      col_opts.num_threads = (round % 2) == 0 ? 1 : 4;
      ASSERT_OK(eval::EvaluateText(program, &col_db, col_opts).status());

      for (const auto& [sym, relation] : row_db.relations()) {
        const std::string name = row_db.symbols().name(sym);
        EXPECT_EQ(testutil::RelationSet(row_db, name),
                  testutil::RelationSet(col_db, name))
            << "relation " << name;
      }
    }
    EXPECT_GT(cache.stats().builds, 0u);
  }
}

TEST(FuzzRobustnessTest, CommitCrashRecoverMatchesCommittedPrefix) {
  // Random streams of write batches against a durable server, crashed by
  // truncating the WAL at a random byte offset. Whatever whole records
  // survive the cut define a committed prefix; recovery must reproduce
  // exactly the state of a reference server that applied only that
  // prefix — never a partial batch, never a dropped committed one.
  namespace fs = std::filesystem;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0xd1342543de82ef95ULL);
    const std::string dir = ::testing::TempDir() + "/graphlog_fuzz_crash_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(seed);
    std::error_code ec;
    fs::remove_all(dir, ec);

    // Phase 1: commit a random op stream, recording the WAL byte boundary
    // after every commit. Relations keep a fixed arity of 2 so every
    // batch is well-formed; Clear only targets relations already written.
    std::vector<WriteBatch> committed;
    std::vector<uint64_t> boundaries;
    std::vector<std::string> live_fingerprints;
    {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<Server> server, Server::Open(dir));
      boundaries.push_back(server->wal()->tail_offset());
      live_fingerprints.push_back(
          testing::DatabaseFingerprint(server->database()));
      std::vector<std::string> written;  // relations eligible for Clear
      const size_t n_batches = 4 + rng() % 5;
      for (size_t b = 0; b < n_batches; ++b) {
        WriteBatch batch;
        const size_t n_ops = 1 + rng() % 3;
        for (size_t op = 0; op < n_ops; ++op) {
          const std::string rel = "e" + std::to_string(rng() % 3);
          switch (rng() % 4) {
            case 0:
              if (!written.empty()) {
                batch.Clear(written[rng() % written.size()]);
                break;
              }
              [[fallthrough]];
            case 1:
              batch.Facts(rel + "(n" + std::to_string(rng() % 7) + ", " +
                          std::to_string(int64_t(rng() % 100)) + ").");
              written.push_back(rel);
              break;
            default:
              batch.Insert(rel, {"n" + std::to_string(rng() % 7),
                                 "n" + std::to_string(rng() % 7)});
              written.push_back(rel);
              break;
          }
        }
        ASSERT_OK(server->Apply(batch).status());
        committed.push_back(batch);
        boundaries.push_back(server->wal()->tail_offset());
        live_fingerprints.push_back(
            testing::DatabaseFingerprint(server->database()));
      }
    }
    const std::string wal_path = dir + "/wal.log";
    std::string pristine;
    {
      std::ifstream in(wal_path, std::ios::binary);
      ASSERT_TRUE(in.is_open());
      pristine.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(pristine.size(), boundaries.back());

    // Phase 2: crash at random offsets (plus the two extremes), recover,
    // and compare against a reference server that replays exactly the
    // committed prefix the surviving records imply.
    std::vector<uint64_t> cuts = {0, pristine.size()};
    for (int t = 0; t < 12; ++t) cuts.push_back(rng() % (pristine.size() + 1));
    for (const uint64_t cut : cuts) {
      SCOPED_TRACE("crash at byte " + std::to_string(cut));
      size_t prefix = 0;
      while (prefix + 1 < boundaries.size() && boundaries[prefix + 1] <= cut) {
        ++prefix;
      }
      {
        std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
        out.write(pristine.data(), static_cast<std::streamsize>(cut));
        ASSERT_TRUE(out.good());
      }
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<Server> recovered,
                           Server::Open(dir));
      Server reference;
      for (size_t i = 0; i < prefix; ++i) {
        ASSERT_OK(reference.Apply(committed[i]).status());
      }
      EXPECT_EQ(testing::DatabaseFingerprint(recovered->database()),
                testing::DatabaseFingerprint(reference.database()));
      EXPECT_EQ(testing::DatabaseFingerprint(recovered->database()),
                live_fingerprints[prefix]);
      // A torn tail must be physically repaired back to the boundary.
      recovered.reset();
      EXPECT_EQ(fs::file_size(wal_path), boundaries[prefix]);
    }
    fs::remove_all(dir, ec);
  }
}

TEST(FuzzRobustnessTest, MutatedWireFramesNeverCrashServerOrPartiallyApply) {
  // Random byte-level mutations of a valid client conversation, replayed
  // over raw TCP against a live NetServer. The server must answer every
  // mutant with an error frame or a clean close — never crash, never
  // hang, and never partially apply the write batch the conversation
  // carries: the batch adds exactly 3 rows, so the relation's row count
  // stays a multiple of 3 after every round.
  Server server;
  ASSERT_OK(server.Apply(WriteBatch().Facts("edge(a, b). edge(b, c)."))
                .status());
  auto started = net::NetServer::Start(&server, {});
  ASSERT_OK(started.status());
  auto& ns = **started;

  ASSERT_OK_AND_ASSIGN(auto watcher, server.OpenSession());
  const auto wire_rows = [&]() -> size_t {
    EXPECT_OK(watcher->Refresh());
    const Symbol s = watcher->database().symbols().Lookup("wirebatch");
    if (s == kNoSymbol) return 0;
    const auto* rel = watcher->database().Find(s);
    return rel == nullptr ? 0 : rel->size();
  };

  std::mt19937_64 rng(0xf8a3e5);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("wire round " + std::to_string(round));

    // A valid conversation: hello, open session, apply a 3-row batch
    // unique to this round, ping.
    const std::string r = "r" + std::to_string(round);
    std::string stream;
    {
      net::Frame hello;
      hello.type = net::MsgType::kHello;
      net::EncodeHello(net::WireHello{}, &hello.body);
      stream += net::SerializeFrame(hello);
      net::Frame open;
      open.type = net::MsgType::kOpenSession;
      net::EncodeSessionOpen(net::WireSessionOpen{}, &open.body);
      stream += net::SerializeFrame(open);
      net::Frame apply;
      apply.type = net::MsgType::kApplyBatch;
      ASSERT_OK(durability::BatchCodec::Encode(
          WriteBatch().Facts("wirebatch(" + r + "a, 1). wirebatch(" + r +
                             "b, 2). wirebatch(" + r + "c, 3)."),
          {}, &apply.body));
      stream += net::SerializeFrame(apply);
      net::Frame ping;
      ping.type = net::MsgType::kPing;
      stream += net::SerializeFrame(ping);
    }
    const std::string mutant =
        Mutate(stream, 1 + static_cast<int>(rng() % 8), &rng);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ns.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Ship the whole mutant, then half-close so a server parked inside a
    // mis-framed read sees EOF instead of waiting forever.
    (void)::send(fd, mutant.data(), mutant.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the server answers until it closes or the receive
    // timeout trips; either way the conversation terminates.
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    }
    ::close(fd);

    EXPECT_EQ(wire_rows() % 3, 0u) << "partially applied batch";
  }

  // The server survived the campaign: a well-behaved client still gets
  // full service.
  auto client = net::Client::Connect("127.0.0.1", ns.port());
  ASSERT_OK(client.status());
  ASSERT_OK((*client)->Ping());
  ASSERT_OK((*client)->OpenSession().status());
  net::WireQuery q;
  q.text = "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";
  ASSERT_OK((*client)->Run(q).status());
  ns.Stop();
}

}  // namespace
}  // namespace graphlog
