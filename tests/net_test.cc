// The network front end: framed wire protocol, NetServer admission
// control, and the blocking Client.
//
// The load-bearing property is remote-equals-local: a query answered
// over TCP must be bit-identical to the same query answered by an
// in-process Session on the same server — same relation text, same
// stats, same Status taxonomy on failure. Around it: protocol codec
// round-trips, deterministic kOverloaded shedding with retry advice,
// net.* fault sites, and clean teardown with requests in flight (the
// TSan lane's main subject).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "durability/wal.h"
#include "gov/fault_injection.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

constexpr char kTcQuery[] =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

net::WireQuery TcQuery() {
  net::WireQuery q;
  q.text = kTcQuery;
  return q;
}

void SeedEdges(Server* server) {
  ASSERT_OK(server
                ->Apply(WriteBatch().Facts(
                    "edge(a, b). edge(b, c). edge(c, d). edge(d, e)."))
                .status());
}

/// Starts a loopback NetServer over `server` with the given options.
std::unique_ptr<net::NetServer> Serve(Server* server,
                                      net::NetServerOptions opts = {}) {
  auto started = net::NetServer::Start(server, opts);
  EXPECT_OK(started.status());
  return started.ok() ? std::move(*started) : nullptr;
}

std::unique_ptr<net::Client> Connect(const net::NetServer& ns) {
  auto client = net::Client::Connect("127.0.0.1", ns.port());
  EXPECT_OK(client.status());
  return client.ok() ? std::move(*client) : nullptr;
}

// ---------------------------------------------------------------------------
// Protocol codecs

TEST(NetProtocolTest, BodyCodecsRoundTrip) {
  {
    net::WireSessionOpen in;
    in.name = "alpha";
    in.budget.max_result_rows = 7;
    in.budget.return_partial = true;
    in.deadline_ms = 1234;
    std::string body;
    net::EncodeSessionOpen(in, &body);
    net::WireSessionOpen out;
    ASSERT_OK(net::DecodeSessionOpen(body, &out));
    EXPECT_EQ(out.name, "alpha");
    EXPECT_EQ(out.budget.max_result_rows, 7u);
    EXPECT_TRUE(out.budget.return_partial);
    EXPECT_EQ(out.deadline_ms, 1234u);
  }
  {
    net::WireQuery in;
    in.language = 1;
    in.text = "t(X, Y) :- edge(X, Y).";
    in.num_threads = 4;
    in.columnar = true;
    in.explain = true;
    in.budget.max_rounds = 9;
    std::string body;
    net::EncodeQuery(in, &body);
    net::WireQuery out;
    ASSERT_OK(net::DecodeQuery(body, &out));
    EXPECT_EQ(out.language, 1);
    EXPECT_EQ(out.text, in.text);
    EXPECT_EQ(out.num_threads, 4u);
    EXPECT_TRUE(out.columnar);
    EXPECT_TRUE(out.explain);
    EXPECT_EQ(out.budget.max_rounds, 9u);
  }
  {
    net::WireQueryResult in;
    in.tuples_derived = 10;
    in.result_tuples = 11;
    in.epoch = 3;
    in.truncated = true;
    in.truncated_by = "rows";
    in.explain = "plan";
    std::string body;
    net::EncodeQueryResult(in, &body);
    net::WireQueryResult out;
    ASSERT_OK(net::DecodeQueryResult(body, &out));
    EXPECT_EQ(out.tuples_derived, 10u);
    EXPECT_EQ(out.result_tuples, 11u);
    EXPECT_EQ(out.epoch, 3u);
    EXPECT_TRUE(out.truncated);
    EXPECT_EQ(out.truncated_by, "rows");
    EXPECT_EQ(out.explain, "plan");
  }
  {
    std::vector<net::WireRelationInfo> in(2);
    in[0] = {"edge", 2, 5};
    in[1] = {"t", 2, 10};
    std::string body;
    net::EncodeRelationList(in, &body);
    std::vector<net::WireRelationInfo> out;
    ASSERT_OK(net::DecodeRelationList(body, &out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].name, "edge");
    EXPECT_EQ(out[1].rows, 10u);
  }
}

TEST(NetProtocolTest, DecodersRejectTruncationAndTrailingBytes) {
  net::WireQuery q;
  q.text = "query t { edge X -> Y : edge+; }";
  std::string body;
  net::EncodeQuery(q, &body);
  net::WireQuery out;
  // Every strict prefix is malformed, never a wild read.
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(net::DecodeQuery(body.substr(0, len), &out).ok()) << len;
  }
  EXPECT_FALSE(net::DecodeQuery(body + "x", &out).ok());
}

TEST(NetProtocolTest, ErrorFramesCarryTheFullStatusTaxonomy) {
  for (int code = 1; code <= static_cast<int>(StatusCode::kOverloaded);
       ++code) {
    const Status in(static_cast<StatusCode>(code), "message for " +
                        std::to_string(code));
    std::string body;
    net::EncodeError(net::StatusToWireError(in, 42), &body);
    net::WireError wire;
    ASSERT_OK(net::DecodeError(body, &wire));
    EXPECT_EQ(wire.retry_after_ms, 42u);
    const Status out = net::WireErrorToStatus(wire);
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
  // A code from a newer peer degrades to kInternal, message preserved.
  net::WireError future;
  future.code = static_cast<StatusCode>(99);
  future.message = "from the future";
  const Status degraded = net::WireErrorToStatus(future);
  EXPECT_EQ(degraded.code(), StatusCode::kInternal);
  EXPECT_NE(degraded.message().find("from the future"), std::string::npos);
}

TEST(NetProtocolTest, FrameSerializationMatchesTheDocumentedLayout) {
  net::Frame f;
  f.type = net::MsgType::kPing;
  f.body = "xy";
  const std::string bytes = net::SerializeFrame(f);
  ASSERT_EQ(bytes.size(), 8u + 2u + 2u);
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes.data(), 4);
  std::memcpy(&crc, bytes.data() + 4, 4);
  EXPECT_EQ(len, 4u);  // version + type + "xy"
  EXPECT_EQ(crc, durability::Crc32(bytes.data() + 8, 4));
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), net::kProtocolVersion);
  EXPECT_EQ(static_cast<uint8_t>(bytes[9]),
            static_cast<uint8_t>(net::MsgType::kPing));
}

// ---------------------------------------------------------------------------
// Client/server basics

TEST(NetServerTest, PingSessionLifecycleAndErrors) {
  Server server;
  auto ns = Serve(&server);
  ASSERT_NE(ns, nullptr);
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);

  ASSERT_OK(client->Ping());

  // Requests before a session opens fail cleanly, connection intact.
  EXPECT_EQ(client->Run(TcQuery()).status().code(),
            StatusCode::kInvalidArgument);

  auto opened = client->OpenSession();
  ASSERT_OK(opened.status());
  EXPECT_FALSE(opened->name.empty());
  EXPECT_EQ(opened->epoch, 0u);

  // One session per connection.
  EXPECT_EQ(client->OpenSession().status().code(),
            StatusCode::kAlreadyExists);

  // A failing query surfaces its real code, and the connection survives.
  net::WireQuery bad;
  bad.text = "query t { edge X -> Y : nosuch+; }";
  EXPECT_FALSE(client->Run(bad).ok());
  ASSERT_OK(client->Ping());

  ASSERT_OK(client->CloseSession());
  ASSERT_OK(client->OpenSession().status());  // reopen after close
}

TEST(NetServerTest, RemoteResultsAreBitIdenticalToInProcess) {
  obs::MetricsRegistry metrics;
  Server server(ServerOptions{.metrics = &metrics});
  SeedEdges(&server);
  auto ns = Serve(&server, {.metrics = &metrics});
  ASSERT_NE(ns, nullptr);

  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->OpenSession().status());

  // Remote write, remote query.
  auto applied = client->Apply(WriteBatch().Facts("edge(e, f)."));
  ASSERT_OK(applied.status());
  EXPECT_EQ(applied->facts, 1u);
  EXPECT_EQ(applied->epoch, 2u);

  auto remote = client->Run(TcQuery());
  ASSERT_OK(remote.status());

  // The same query by an in-process session on the same server.
  ASSERT_OK_AND_ASSIGN(auto local, server.OpenSession());
  QueryRequest req = QueryRequest::GraphLog(kTcQuery);
  ASSERT_OK_AND_ASSIGN(QueryResponse in_process, local->Run(req));

  EXPECT_EQ(remote->tuples_derived, in_process.stats.datalog.tuples_derived);
  EXPECT_EQ(remote->result_tuples, in_process.stats.result_tuples);
  EXPECT_EQ(remote->graphs_translated, in_process.stats.graphs_translated);

  // Bit-identical relation text, EDB and IDB alike.
  for (const char* rel : {"edge", "t"}) {
    auto fetched = client->FetchRelation(rel);
    ASSERT_OK(fetched.status());
    const Symbol s = local->database().symbols().Lookup(rel);
    ASSERT_NE(s, kNoSymbol);
    EXPECT_EQ(*fetched, local->database().RelationToString(s)) << rel;
  }

  // The explain rendering crosses the wire verbatim too.
  net::WireQuery explain_q = TcQuery();
  explain_q.explain = true;
  auto explained = client->Run(explain_q);
  ASSERT_OK(explained.status());
  req.options.observability.explain = true;
  ASSERT_OK_AND_ASSIGN(QueryResponse local_explained, local->Run(req));
  EXPECT_EQ(explained->explain, local_explained.explain);
}

TEST(NetServerTest, FourConcurrentClientsStayBitIdentical) {
  obs::MetricsRegistry metrics;
  Server server(ServerOptions{.metrics = &metrics});
  SeedEdges(&server);
  auto ns = Serve(&server, {.metrics = &metrics});
  ASSERT_NE(ns, nullptr);

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", ns->port());
      if (!client.ok() || !(*client)->OpenSession().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string a = "c" + std::to_string(c) + "n" +
                              std::to_string(i);
        const std::string b = "c" + std::to_string(c) + "n" +
                              std::to_string(i + 1);
        if (!(*client)->Apply(
                WriteBatch().Facts("edge(" + a + ", " + b + ").")).ok() ||
            !(*client)->Run(TcQuery()).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Every commit landed: 1 seed batch + 4*8 single-fact batches.
  EXPECT_EQ(server.epoch(), 1u + kClients * kOpsPerClient);

  // A fresh remote session and a fresh in-process session, both pinned
  // to the final epoch, must agree byte-for-byte after the same query.
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  auto opened = client->OpenSession();
  ASSERT_OK(opened.status());
  EXPECT_EQ(opened->epoch, server.epoch());
  ASSERT_OK(client->Run(TcQuery()).status());

  ASSERT_OK_AND_ASSIGN(auto local, server.OpenSession());
  ASSERT_OK(local->Run(QueryRequest::GraphLog(kTcQuery)).status());

  auto listed = client->ListRelations();
  ASSERT_OK(listed.status());
  EXPECT_EQ(listed->size(), local->database().relations().size());
  for (const auto& info : *listed) {
    auto fetched = client->FetchRelation(info.name);
    ASSERT_OK(fetched.status());
    const Symbol s = local->database().symbols().Lookup(info.name);
    ASSERT_NE(s, kNoSymbol) << info.name;
    EXPECT_EQ(*fetched, local->database().RelationToString(s)) << info.name;
  }
}

TEST(NetServerTest, RemoteGovernedQueriesKeepTheStatusTaxonomy) {
  Server server;
  SeedEdges(&server);
  auto ns = Serve(&server);
  ASSERT_NE(ns, nullptr);
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->OpenSession().status());

  // A hard budget trips remotely exactly as it does in-process.
  net::WireQuery q = TcQuery();
  q.budget.max_result_rows = 1;
  EXPECT_EQ(client->Run(q).status().code(), StatusCode::kBudgetExceeded);

  // return_partial turns the same trip into a truncated success.
  q.budget.return_partial = true;
  auto partial = client->Run(q);
  ASSERT_OK(partial.status());
  EXPECT_TRUE(partial->truncated);
  EXPECT_FALSE(partial->truncated_by.empty());
}

TEST(NetServerTest, ClientDeadlinePastTheClockRangeNeverExpires) {
  Server server;
  SeedEdges(&server);
  auto ns = Serve(&server);
  ASSERT_NE(ns, nullptr);
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->OpenSession().status());
  // deadline_ms arrives from the client unchecked; a huge value must not
  // become a deadline that has already passed.
  net::WireQuery q = TcQuery();
  q.deadline_ms = UINT64_MAX;
  ASSERT_OK(client->Run(q).status());
}

TEST(NetServerTest, ClientCapturesLoadFilesAndServerRejectsRemotePaths) {
  Server server;
  auto ns = Serve(&server);
  ASSERT_NE(ns, nullptr);
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->OpenSession().status());

  const std::string path =
      ::testing::TempDir() + "/net_test_capture_facts.dl";
  {
    std::ofstream out(path);
    out << "edge(p, q). edge(q, r).\n";
  }
  // The client reads the file and ships bytes; the server applies facts.
  auto applied = client->Apply(WriteBatch().LoadFile(path));
  ASSERT_OK(applied.status());
  EXPECT_EQ(applied->facts, 2u);
  ::unlink(path.c_str());

  // A raw batch that still carries a kLoadFile op is rejected: the
  // server must never resolve a path against its own filesystem.
  net::Frame raw;
  raw.type = net::MsgType::kApplyBatch;
  ASSERT_OK(durability::BatchCodec::Encode(WriteBatch().LoadFile("/etc/motd"),
                                           {"ignored(a)."}, &raw.body));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ns->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  net::Frame hello;
  hello.type = net::MsgType::kHello;
  net::EncodeHello(net::WireHello{}, &hello.body);
  ASSERT_OK(net::SendFrame(fd, hello, nullptr));
  ASSERT_OK(net::RecvFrame(fd, nullptr).status());
  net::Frame open;
  open.type = net::MsgType::kOpenSession;
  net::EncodeSessionOpen(net::WireSessionOpen{}, &open.body);
  ASSERT_OK(net::SendFrame(fd, open, nullptr));
  ASSERT_OK(net::RecvFrame(fd, nullptr).status());
  ASSERT_OK(net::SendFrame(fd, raw, nullptr));
  auto resp = net::RecvFrame(fd, nullptr);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->type, net::MsgType::kError);
  net::WireError err;
  ASSERT_OK(net::DecodeError(resp->body, &err));
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(NetServerTest, OverloadShedsDeterministicallyWithRetryAdvice) {
  obs::MetricsRegistry metrics;
  gov::FaultInjector faults;
  Server server(ServerOptions{.metrics = &metrics});
  SeedEdges(&server);
  net::NetServerOptions opts;
  opts.max_inflight_queries = 1;
  opts.retry_after_ms = 250;
  opts.metrics = &metrics;
  opts.faults = &faults;
  auto ns = Serve(&server, opts);
  ASSERT_NE(ns, nullptr);

  // Stall the first query inside evaluation so it is observably in
  // flight when the second one arrives.
  gov::FaultSpec stall;
  stall.action = gov::FaultAction::kStall;
  stall.stall_ms = 1000;
  stall.trigger_hit = 1;
  faults.Arm("eval.round", stall);

  auto slow = Connect(*ns);
  ASSERT_NE(slow, nullptr);
  ASSERT_OK(slow->OpenSession().status());
  std::thread slow_thread([&] {
    EXPECT_OK(slow->Run(TcQuery()).status());
  });

  obs::Gauge* active = metrics.gauge("net.requests_active");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (active->value() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(active->value(), 1);

  auto shed = Connect(*ns);
  ASSERT_NE(shed, nullptr);
  ASSERT_OK(shed->OpenSession().status());
  const Status rejected = shed->Run(TcQuery()).status();
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  EXPECT_EQ(shed->last_retry_after_ms(), 250u);
  // The connection survives a shed; a later request (after the stall
  // clears) succeeds.
  slow_thread.join();
  ASSERT_OK(shed->Run(TcQuery()).status());

  EXPECT_GE(ns->rejected(), 1u);
  EXPECT_GE(metrics.counter("net.rejected")->value(), 1u);
  EXPECT_GE(metrics.counter("net.accepted")->value(), 2u);
  EXPECT_GT(metrics.counter("net.bytes_in")->value(), 0u);
  EXPECT_GT(metrics.counter("net.bytes_out")->value(), 0u);
}

TEST(NetServerTest, ConnectionLimitShedsWithOverloadedHandshake) {
  obs::MetricsRegistry metrics;
  Server server;
  net::NetServerOptions opts;
  opts.max_connections = 1;
  opts.retry_after_ms = 77;
  opts.metrics = &metrics;
  auto ns = Serve(&server, opts);
  ASSERT_NE(ns, nullptr);

  auto first = Connect(*ns);
  ASSERT_NE(first, nullptr);
  ASSERT_OK(first->Ping());

  // The second connection is answered kOverloaded at the door.
  auto second = net::Client::Connect("127.0.0.1", ns->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(ns->rejected(), 1u);

  // Dropping the first connection frees the slot (after the server
  // reaps the finished handler on its next accept).
  first->Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::unique_ptr<net::Client> third;
  while (std::chrono::steady_clock::now() < deadline) {
    auto attempt = net::Client::Connect("127.0.0.1", ns->port());
    if (attempt.ok()) {
      third = std::move(*attempt);
      break;
    }
    EXPECT_EQ(attempt.status().code(), StatusCode::kOverloaded);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(third, nullptr);
  ASSERT_OK(third->Ping());
}

// ---------------------------------------------------------------------------
// Fault sites + teardown

TEST(NetServerTest, NetFaultSitesAreWiredAndCounted) {
  gov::FaultInjector faults;
  Server server;
  SeedEdges(&server);
  auto ns = Serve(&server, {.faults = &faults});
  ASSERT_NE(ns, nullptr);

  // net.accept: the next connection is answered with the injected error.
  gov::FaultSpec fail;
  fail.action = gov::FaultAction::kFail;
  fail.trigger_hit = 1;
  faults.Arm("net.accept", fail);
  auto refused = net::Client::Connect("127.0.0.1", ns->port());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
  EXPECT_EQ(faults.hits("net.accept"), 1u);
  EXPECT_GE(ns->rejected(), 1u);

  // net.read: the injected failure drops the live connection. The site
  // is consulted before each blocking read, so depending on whether the
  // handler was already parked in the next read when the fault was
  // armed, it fires before the first or the second request after
  // arming; either way the connection drops within two requests.
  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->Ping());
  faults.Arm("net.read", fail);
  if (client->Ping().ok()) {
    EXPECT_FALSE(client->Ping().ok());
  }
  EXPECT_GE(faults.hits("net.read"), 1u);

  // net.write: the response never arrives; the client sees a severed
  // stream, never a half-written frame.
  auto client2 = Connect(*ns);
  ASSERT_NE(client2, nullptr);
  faults.Arm("net.write", fail);
  EXPECT_FALSE(client2->Ping().ok());
  EXPECT_GE(faults.hits("net.write"), 1u);
}

TEST(NetServerTest, StopCancelsInFlightWorkAndJoinsCleanly) {
  gov::FaultInjector faults;
  Server server;
  SeedEdges(&server);
  auto ns = Serve(&server, {.faults = &faults});
  ASSERT_NE(ns, nullptr);

  // A long stall inside evaluation; Stop() must cancel through the
  // connection token and join without waiting the full stall out.
  gov::FaultSpec stall;
  stall.action = gov::FaultAction::kStall;
  stall.stall_ms = 30'000;
  stall.trigger_hit = 1;
  faults.Arm("eval.round", stall);

  auto client = Connect(*ns);
  ASSERT_NE(client, nullptr);
  ASSERT_OK(client->OpenSession().status());
  std::thread runner([&] {
    // Either a cancellation status or a severed connection is fine;
    // hanging or crashing is not.
    client->Run(TcQuery());
  });
  while (faults.hits("eval.round") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  ns->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  runner.join();
  EXPECT_EQ(ns->active_connections(), 0u);
}

}  // namespace
}  // namespace graphlog
