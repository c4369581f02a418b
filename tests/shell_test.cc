// End-to-end tests of the interactive shell. Each case pipes a script
// into the built graphlog_shell binary (path injected by CMake), running
// it in a scratch directory, and compares its stdout — banner and
// prompts stripped — against the exact expected text.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "net/net_server.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

namespace fs = std::filesystem;

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "graphlog_shell_test_XXXXXX").string();
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Runs the shell in the scratch directory with `script` on stdin and
  /// returns its stdout without the banner and the prompts.
  std::string Run(const std::string& script) {
    std::ofstream(dir_ / "script.glog", std::ios::binary) << script;
    const std::string cmd = "cd '" + dir_.string() +
                            "' && '" GRAPHLOG_SHELL_BINARY "' < script.glog";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      ADD_FAILURE() << "popen failed: " << cmd;
      return "";
    }
    std::string out;
    char buf[4096];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
      out.append(buf, n);
    }
    EXPECT_EQ(pclose(pipe), 0) << "shell exited abnormally";
    const std::string banner = "GraphLog shell — .help for commands\n";
    EXPECT_EQ(out.compare(0, banner.size(), banner), 0) << out;
    return std::regex_replace(out.substr(banner.size()),
                              std::regex("graphlog> |      \\.\\.\\. "), "");
  }

  fs::path dir_;
};

TEST_F(ShellTest, FactsQueriesDatalogAndInspection) {
  EXPECT_EQ(Run(R"(edge(a, b). edge(b, c).
query t { edge X -> Y : edge+; distinguished X -> Y : t; }
.show t
query u {
  edge X -> Y : edge+;
  distinguished X -> Y : u;
}
.datalog tc(X, Y) :- edge(X, Y).
.datalog tc(X, Y) :- edge(X, Z), tc(Z, Y).
.show tc
.show nosuch
.relations
)"),
            R"(2 facts added
6 tuples derived (1 graphs translated, 0 summarized)
t(a, b).
t(a, c).
t(b, c).
6 tuples derived (1 graphs translated, 0 summarized)
2 tuples derived
1 tuples derived
tc(a, b).
tc(a, c).
tc(b, c).
no relation 'nosuch'
  edge/2: 2 tuples
  t/2: 3 tuples
  edge-tc/2: 3 tuples
  u/2: 3 tuples
  edge-tc_0/2: 3 tuples
  tc/2: 3 tuples
)");
}

TEST_F(ShellTest, SaveAndLoadRoundTripAFactFile) {
  EXPECT_EQ(Run("edge(a, b).\nedge(b, c).\n.save out.facts\n"),
            "1 facts added\n1 facts added\n");
  std::stringstream saved;
  saved << std::ifstream(dir_ / "out.facts").rdbuf();
  EXPECT_EQ(saved.str(), "edge(a, b).\nedge(b, c).\n");
  // A fresh shell process reads the file back.
  EXPECT_EQ(Run(".load out.facts\n.show edge\n.load missing.facts\n"),
            R"(2 facts loaded
edge(a, b).
edge(b, c).
error: NotFound: cannot open fact file 'missing.facts'
)");
}

TEST_F(ShellTest, MultiLineBlocksForWhyExplainDotqueryAndViews) {
  EXPECT_EQ(Run(R"(edge(a, b).
edge(b, c).
query t {
  edge X -> Y : edge+;
  distinguished X -> Y : t;
}
.why t(a, c)
.explain query v {
  edge X -> Y : edge+;
  distinguished X -> Y : v;
}
.dotquery query w {
  edge X -> Y : edge+;
  distinguished X -> Y : w;
}
.view list
.view define reach
query r {
  edge X -> Y : edge+;
  distinguished X -> Y : r;
}
.view list
edge(c, d).
query r { edge X -> Y : edge+; distinguished X -> Y : r; }
.view list
.view drop reach
)"),
            R"(1 facts added
1 facts added
6 tuples derived (1 graphs translated, 0 summarized)
t(a, c)
. by rule: t(X, Y) :- edge-tc(X, Y).
. edge-tc(a, c)
. . by rule: edge-tc(_X2, _Y3) :- edge(_X2, _Z4), edge-tc(_Z4, _Y3).
. . edge(a, b)   [edb]
. . edge-tc(b, c)
. . . by rule: edge-tc(_X0, _Y1) :- edge(_X0, _Y1).
. . . edge(b, c)   [edb]
graph v:
  program:
    [0] v(X, Y) :- edge-tc_0(X, Y).
    [1] edge-tc_0(_X0_0, _Y1_0) :- edge(_X0_0, _Y1_0).
    [2] edge-tc_0(_X2_0, _Y3_0) :- edge(_X2_0, _Z4_0), edge-tc_0(_Z4_0, _Y3_0).
  stratification: 1 strata
    stratum 0: rules 0 1 2
      component order: {1 2} served by tc::ColumnarTransitiveClosure, {0} semi-naive
  join plans (pre-run cardinality estimates):
    [0] v <- scan edge-tc_0 [driver] (pre-run)
    [1] served by tc::ColumnarTransitiveClosure over edge
    [2] served by tc::ColumnarTransitiveClosure over edge
digraph graphical_query {
  rankdir=LR;
  subgraph cluster_0 {
    label="w";
    g0_n0 [label="X"];
    g0_n1 [label="Y"];
    g0_n0 -> g0_n1 [label="edge+", style=dashed];
    g0_n0 -> g0_n1 [label="w", style=bold, penwidth=2.5];
  }
}
no views defined; .view define NAME QUERY
view reach materialized (3 rows)
  reach: 3 rows (fresh), 1 refreshes_full, 0 refreshes_incremental, 0 served
1 facts added
(served from materialized view)
12 tuples derived (1 graphs translated, 0 summarized)
  reach: 6 rows (fresh), 1 refreshes_full, 1 refreshes_incremental, 1 served
view reach dropped
)");
}

TEST_F(ShellTest, LimitsThreadsCacheAndFaults) {
  EXPECT_EQ(Run(R"(edge(a, b).
.limit rows 5
.limit partial on
.limit deadline 60000
.limit
.limit clear
.limit bogus 3
.threads
.threads 2
.threads -1
.cache on
query t { edge X -> Y : edge+; distinguished X -> Y : t; }
query t { edge X -> Y : edge+; distinguished X -> Y : t; }
.cache stats
.cache off
.fault eval.round fail 2
.fault pool.task stall 5 3
.fault list
.fault clear
.fault
)"),
            R"(1 facts added
rows = 5
partial = on
deadline = 60000
  rows     = 5
  delta    = 0
  rounds   = 0
  bytes    = 0
  deadline = 60000 ms
  partial  = on
(0 = unlimited)
limits cleared
usage: .limit [rows|delta|rounds|bytes N | deadline MS | partial on|off | clear]
num_threads = 1
num_threads = 2
usage: .threads [N]   (1 = serial, 0 = hardware, max 9999)
result cache on (64 MiB budget)
2 tuples derived (1 graphs translated, 0 summarized)
(result cache hit)
2 tuples derived (1 graphs translated, 0 summarized)
result cache on (budget 67108864): 1 hits, 0 replays, 1 misses, 0 evictions, 1 inserts, 0 rejected, 1757 bytes, 1 entries
result cache off
armed eval.round
armed pool.task
  eval.round: fail at hit 2 (0 hits so far)
  pool.task: stall 5 ms at hit 3 (0 hits so far)
faults cleared
no faults armed
)");
}

TEST_F(ShellTest, SessionsOpenListSwitchAndRefresh) {
  EXPECT_EQ(Run(R"(edge(a, b).
.session open side
edge(b, c).
.session list
.session switch main
.show edge
.session refresh
.show edge
.session switch nosuch
)"),
            R"(1 facts added
session side open at epoch 1 (now active)
1 facts added
server epoch 2, 2 open sessions
    main: epoch 1, 0 queries, 1 writes, 1 refreshes, 0 errors, 0 cache_hits, 0 truncated, 0 profile_runs, 0 profile_rounds
  * side: epoch 2, 0 queries, 1 writes, 1 refreshes, 0 errors, 0 cache_hits, 0 truncated, 0 profile_runs, 0 profile_rounds
session main active (epoch 1, server at 2)
edge(a, b).
session main at epoch 2
edge(a, b).
edge(b, c).
no session 'nosuch'; .session list
)");
}

TEST_F(ShellTest, MetricsExportsDatabaseAndCacheGaugesOnDemand) {
  // Queries never push the db.* and cache.* levels into the registry;
  // .metrics exports them before it snapshots, in every format.
  const std::string out = Run(R"(edge(a, b).
.cache on
query t { edge X -> Y : edge+; distinguished X -> Y : t; }
.metrics
.metrics prom
)");
  EXPECT_NE(out.find("  db.rows = "), std::string::npos) << out;
  EXPECT_NE(out.find("  db.relation.t.rows = 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("  cache.misses = 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("graphlog_db_rows "), std::string::npos) << out;
  EXPECT_NE(out.find("graphlog_cache_misses 1\n"), std::string::npos) << out;
}

TEST_F(ShellTest, WalCheckpointAndRecoverInADirectory) {
  EXPECT_EQ(Run(R"(.wal
.wal on data
edge(a, b).
edge(b, c).
.wal status
.checkpoint
edge(c, d).
.recover
.show edge
.wal off
.recover
)"),
            R"(wal off (in-memory server); .wal on DIR
wal on: data at epoch 0 (sessions reset to 'main')
1 facts added
1 facts added
wal on: data/wal.log, 80 bytes, fsync always, epoch 2
checkpoint written at epoch 2; wal truncated to 0 bytes
1 facts added
recovered data at epoch 3 (sessions reset to 'main')
edge(a, b).
edge(b, c).
edge(c, d).
wal off; state kept in memory only (sessions reset to 'main')
not a durable server; .wal on DIR first
)");
  EXPECT_TRUE(fs::exists(dir_ / "data" / "checkpoint.db"));
}

TEST_F(ShellTest, UnrecognizedInputPointsAtHelp) {
  EXPECT_EQ(Run("hello world\n.nosuch\n# a comment\n\n.quit\nedge(a, b).\n"),
            "unrecognized input; try .help\n"
            "unrecognized input; try .help\n");
}

TEST_F(ShellTest, DeadlinePastTheClockRangeNeverExpires) {
  // ~295 years in milliseconds: its nanosecond count overflows a signed
  // 64-bit duration, which must not turn into an already-passed deadline.
  EXPECT_EQ(Run("edge(a, b).\n.limit deadline 9300000000000\n"
                "query t { edge X -> Y : edge+; distinguished X -> Y : t; }\n"),
            "1 facts added\ndeadline = 9300000000000\n"
            "2 tuples derived (1 graphs translated, 0 summarized)\n");
}

/// The commands `.help` lists: the first word of every "  .name" row.
std::vector<std::string> HelpCommands(const std::string& help) {
  const std::regex row("\n  (\\.[a-z]+)");
  std::vector<std::string> out;
  for (std::sregex_iterator it(help.begin(), help.end(), row), end; it != end;
       ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

TEST_F(ShellTest, HelpListsTheCommandCorpus) {
  const std::vector<std::string> commands = HelpCommands(Run(".help\n"));
  EXPECT_GE(commands.size(), 20u);
  for (const char* expected :
       {".help", ".quit", ".load", ".show", ".cache", ".view", ".trace",
        ".metrics", ".slowlog", ".limit", ".fault", ".datalog", ".rpq"}) {
    EXPECT_NE(std::find(commands.begin(), commands.end(), expected),
              commands.end())
        << expected << " missing from .help";
  }
}

/// Audits `.help` against the command table that dispatch looks names
/// up in. The table is read from the shell's source (path injected by
/// CMake); the help text comes from the running binary.
class ShellHelpAuditTest : public ShellTest {
 protected:
  /// The names in Shell::Commands(): the first string of every entry.
  static std::vector<std::string> TableCommands() {
    std::stringstream buf;
    buf << std::ifstream(GRAPHLOG_SHELL_SOURCE).rdbuf();
    const std::string source = buf.str();
    const size_t begin = source.find("Shell::Commands() {");
    const size_t end = source.find("return kCommands;", begin);
    EXPECT_NE(begin, std::string::npos) << GRAPHLOG_SHELL_SOURCE;
    EXPECT_NE(end, std::string::npos) << GRAPHLOG_SHELL_SOURCE;
    if (begin == std::string::npos || end == std::string::npos) return {};
    const std::string table = source.substr(begin, end - begin);
    const std::regex entry("\\{\"(\\.[a-z]+)\",");
    std::vector<std::string> out;
    for (std::sregex_iterator it(table.begin(), table.end(), entry), stop;
         it != stop; ++it) {
      out.push_back((*it)[1]);
    }
    return out;
  }
};

TEST_F(ShellHelpAuditTest, EveryDispatchedCommandIsDocumented) {
  const std::vector<std::string> table = TableCommands();
  // If the table idiom changes and the regex goes blind, fail here
  // rather than pass on an empty set.
  EXPECT_GE(table.size(), 20u);
  const std::vector<std::string> help = HelpCommands(Run(".help\n"));
  for (const std::string& cmd : table) {
    EXPECT_NE(std::find(help.begin(), help.end(), cmd), help.end())
        << "command '" << cmd << "' is dispatched but missing from .help";
  }
}

TEST_F(ShellHelpAuditTest, EveryDocumentedCommandIsDispatched) {
  // Every listed command is recognized bare, and with an argument it
  // does not take it prints its usage (or an error) instead of the hint.
  for (const std::string& cmd : HelpCommands(Run(".help\n"))) {
    for (const std::string& line : {cmd, cmd + " zzz"}) {
      const std::string out = Run(line + "\n");
      EXPECT_EQ(out.find("unrecognized"), std::string::npos)
          << "command '" << cmd << "' is documented but not dispatched: "
          << line << "\n" << out;
    }
  }
  // The probe sees the hint when a word is not a command.
  EXPECT_EQ(Run(".nosuch arg\n"), "unrecognized input; try .help\n");
}

TEST_F(ShellTest, BareCommandsPrintTheirUsage) {
  EXPECT_EQ(Run(".show\n.load\n.save\n.dotquery\n.explain\n.connect\n"
                ".datalog\n.why\n.rpq\n.dot x\n.quit now\n"),
            R"(usage: .show RELATION
usage: .load FILE
usage: .save FILE
usage: .dotquery QUERY
usage: .explain QUERY
usage: .connect HOST:PORT
usage: .datalog RULE
usage: .why FACT
usage: .rpq [SRC [DST]] EXPR
usage: .dot
usage: .quit
)");
}

TEST_F(ShellTest, ServeStartsReportsAndStopsAListener) {
  const std::string out =
      Run(".serve 0\n.serve status\n.serve 0\n.serve stop\n.serve stop\n");
  // The listener takes an ephemeral port; mask its number.
  const std::regex port("(127\\.0\\.0\\.1:|port )[0-9]+");
  EXPECT_EQ(std::regex_replace(out, port, "$1P"),
            R"(serving on 127.0.0.1:P (.connect 127.0.0.1:P from another shell)
serving on 127.0.0.1:P — 0 connections, 0 shed
already serving on port P; .serve stop first
stopped serving
not serving
)");
}

TEST_F(ShellTest, ConnectedShellRunsRemoteFormsAndRefusesLocalOnlyOnes) {
  Server server;
  ASSERT_OK(
      server.Apply(WriteBatch().Facts("edge(a, b). edge(b, c).")).status());
  auto ns = net::NetServer::Start(&server, {});
  ASSERT_OK(ns.status());
  const std::string addr = "127.0.0.1:" + std::to_string((*ns)->port());
  std::ofstream(dir_ / "more.facts") << "edge(c, d).\n";

  EXPECT_EQ(Run(".connect " + addr + R"(
.relations
.show edge
edge(d, e).
.load more.facts
query t { edge X -> Y : edge+; distinguished X -> Y : t; }
.datalog hop(X, Y) :- edge(X, Y).
.save out.facts
.dot
.rpq a edge+
.resource
.why t(a, c)
.explain query t { edge X -> Y : edge+; distinguished X -> Y : t; }
.view list
.disconnect
.relations
)"),
            "connected to " + addr +
                " — session s1 at epoch 1; facts, queries, .datalog, .load, "
                ".show, .relations now run remotely (.disconnect to detach)\n"
                R"(  edge/2: 2 tuples
edge(a, b).
edge(b, c).
1 facts added (remote)
1 facts loaded (remote)
20 tuples derived (1 graphs translated, 0 summarized) [remote epoch 3]
4 tuples derived (0 graphs translated, 0 summarized) [remote epoch 3]
.save: not available over .connect; .disconnect first
.dot: not available over .connect; .disconnect first
.rpq: not available over .connect; .disconnect first
.resource: not available over .connect; .disconnect first
.why: not available over .connect; .disconnect first
.explain: not available over .connect; .disconnect first
.view: not available over .connect; .disconnect first
disconnected from )" + addr + R"(; commands run locally again
)");
  // The refused .save must not leave an empty file behind.
  EXPECT_FALSE(fs::exists(dir_ / "out.facts"));
  (*ns)->Stop();
}

}  // namespace
}  // namespace graphlog
