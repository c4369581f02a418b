// graphlog_shell: an interactive GraphLog session.
//
// The textual stand-in for the Section 5 prototype: load a database, type
// graphical queries, inspect answers, and export DOT renderings of both
// the database graph and the query graphs themselves.
//
//   $ ./build/examples/graphlog_shell
//   graphlog> edge(a, b).
//   graphlog> edge(b, c).
//   graphlog> query t { edge X -> Y : edge+; distinguished X -> Y : t; }
//   3 tuples derived
//   graphlog> .show t
//   t(a, b). ...
//
// `.help` lists every command: it prints the command table that also
// drives dispatch and every usage message.
//
// Reads from stdin, so it is scriptable: `graphlog_shell < script.glog`.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GRAPHLOG_SHELL_SIGINT 1
#endif

#include "cache/result_cache.h"
#include "cache/view_catalog.h"
#include "columnar/csr_cache.h"
#include "common/strings.h"
#include "durability/wal.h"
#include "eval/provenance.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "graphlog/dot.h"
#include "graphlog/parser.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "storage/io.h"

using namespace graphlog;

namespace {

// SIGINT plumbing. The first Ctrl-C cancels the in-flight governed query
// (the engine polls the token cooperatively and unwinds with kCancelled);
// the second exits the process. Both state cells are async-signal-safe:
// the counter is a relaxed atomic and CancellationToken::Cancel is one
// relaxed atomic store — no locks, no allocation.
std::atomic<int> g_sigint_count{0};
gov::CancellationToken* g_shell_token = nullptr;

#ifdef GRAPHLOG_SHELL_SIGINT
extern "C" void ShellSigintHandler(int) {
  int n = g_sigint_count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= 2) std::_Exit(130);
  if (g_shell_token != nullptr) g_shell_token->Cancel();
  constexpr char kMsg[] = "\n[cancel requested; Ctrl-C again to exit]\n";
  // write(2) is on the async-signal-safe list; printf is not.
  ssize_t ignored = write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
}

void InstallSigintHandler() {
  struct sigaction sa = {};
  sa.sa_handler = ShellSigintHandler;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART: the blocking getline on stdin resumes instead of failing
  // with EINTR, so the prompt survives a cancel.
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
}
#else
void InstallSigintHandler() {}
#endif

/// Digits-only parse of a value in [0, max]; rejects signs, spaces and
/// anything past `max`.
bool ParseU64(const std::string& s, uint64_t* out,
              uint64_t max = UINT64_MAX) {
  uint64_t n = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, n);
  if (ec != std::errc() || stop != end || n > max) return false;
  *out = n;
  return true;
}

/// Splits "WORD REST" into WORD and the trimmed REST (either may be empty).
std::pair<std::string, std::string> SplitWord(const std::string& s) {
  const size_t end = s.find_first_of(" \t");
  if (end == std::string::npos) return {s, ""};
  return {s.substr(0, end), std::string(Trim(s.substr(end)))};
}

/// Balances braces to decide whether a query block is complete.
bool BlockComplete(const std::string& text) {
  const auto opened = std::count(text.begin(), text.end(), '{');
  return opened > 0 && std::count(text.begin(), text.end(), '}') >= opened;
}

/// Prints a failed status; true, because the command itself was well formed.
bool Fail(const Status& s) {
  std::printf("error: %s\n", s.ToString().c_str());
  return true;
}

/// Sets `*flag` from "on"/"off" and echoes "<what> on|off"; false otherwise.
bool SetFlag(const std::string& arg, bool* flag, const char* what) {
  if (arg != "on" && arg != "off") return false;
  *flag = arg == "on";
  std::printf("%s %s\n", what, arg.c_str());
  return true;
}

class Shell {
 public:
  Shell() {
    opts_.observability.metrics = &metrics_;
    opts_.observability.slow_query_log = &slowlog_;
    opts_.cache.views = &views_;
    // Queries slower than 100 ms land in .slowlog by default;
    // `.slowlog threshold MS` tunes it, 0 disables.
    opts_.observability.slow_query_threshold_ns = 100'000'000;
    // First Ctrl-C cancels the in-flight query via this token; the
    // Shell outlives every query, so the handler's pointer stays valid.
    g_shell_token = &cancel_;
    InstallSigintHandler();
    // Every shell runs against an in-process Server; "main" is the
    // default session (an epoch-0 snapshot of the empty database).
    // `.wal on DIR` later swaps in a durable server.
    if (!SwapServer(std::make_unique<Server>(MakeServerOptions()))) {
      std::exit(1);
    }
  }

  int Run() {
    std::string line;
    Prompt();
    while (std::getline(std::cin, line)) {
      Handle(line);
      if (done_) break;
      Prompt();
    }
    return 0;
  }

 private:
  /// One shell command. `.help`, dispatch and every usage message are
  /// built from the table in Commands().
  struct Command {
    enum class Args { kNone, kOptional, kRequired };
    const char* name;
    const char* usage;  // printed after "usage: " and in .help
    const char* help;   // one line for .help
    Args args;
    // Reads the local session's database and has no remote form, so it
    // is refused while .connect'ed instead of answering from local state.
    bool local_db;
    // Gets the trimmed argument text; false prints the usage line.
    bool (Shell::*run)(const std::string& arg);
  };
  static std::span<const Command> Commands();

  /// The active session; `.session switch` retargets it.
  Session& active() { return *sessions_.at(active_); }

  /// The active session's private database — what every read-side
  /// command (.show, .dot, .rpq, queries) sees: the pinned snapshot plus
  /// any session-local derivations.
  storage::Database& db() { return active().database(); }

  void Prompt() {
    std::printf(pending_then_ ? "      ... " : "graphlog> ");
    std::fflush(stdout);
  }

  void Handle(const std::string& raw) {
    std::string line(Trim(raw));
    if (pending_then_) {
      pending_ += "\n" + line;
      if (BlockComplete(pending_)) {
        auto then = std::exchange(pending_then_, nullptr);
        then(std::exchange(pending_, ""));
      }
      return;
    }
    if (line.empty() || line[0] == '#') return;
    const auto [name, arg] = SplitWord(line);
    for (const Command& c : Commands()) {
      if (name != c.name) continue;
      if (c.local_db && remote_ != nullptr) {
        std::printf("%s: not available over .connect; .disconnect first\n",
                    c.name);
      } else if ((c.args == Command::Args::kNone && !arg.empty()) ||
                 (c.args == Command::Args::kRequired && arg.empty()) ||
                 !(this->*c.run)(arg)) {
        std::printf("usage: %s\n", c.usage);
      }
      return;
    }
    if (StartsWith(line, "query")) {
      WhenComplete(line, [this](const std::string& text) {
        return RunQuery(text, /*datalog=*/false);
      });
    } else if (line.back() == '.') {
      ApplyBatch(WriteBatch().Facts(line), "facts added");
    } else {
      std::printf("unrecognized input; try .help\n");
    }
  }

  /// Runs `then` on `text` once its brace block is complete; until then
  /// further input lines accumulate under the continuation prompt.
  bool WhenComplete(const std::string& text,
                    std::function<bool(const std::string&)> then) {
    if (BlockComplete(text)) return then(text);
    pending_ = text;
    pending_then_ = std::move(then);
    return true;
  }

  /// Commits `batch` as one atomic batch (a new epoch) — through the
  /// remote session while connected, else through the active local
  /// session, which fast-forwards in place; views refresh afterwards.
  bool ApplyBatch(const WriteBatch& batch, const std::string& what) {
    if (remote_ != nullptr) {
      auto r = remote_->Apply(batch);
      if (!r.ok()) return Fail(r.status());
      std::printf("%" PRIu64 " %s (remote)\n", r->facts, what.c_str());
      return true;
    }
    gov::GovernorContext governor = MakeGovernor();
    auto r = active().Apply(batch, &governor);
    if (!r.ok()) return Fail(r.status());
    std::printf("%zu %s\n", *r, what.c_str());
    RefreshViews();
    return true;
  }

  /// Evaluates a graphical query or a Datalog rule — on the remote session
  /// while connected (carrying .threads, .columnar and .limit over the
  /// wire), else on the active local session.
  bool RunQuery(const std::string& text, bool datalog) {
    auto print_flags = [](const auto& r) {
      if (r.truncated) std::printf("truncated: %s\n", r.truncated_by.c_str());
      if (r.cache_hit) std::printf("(result cache hit)\n");
      if (r.served_from_view) std::printf("(served from materialized view)\n");
    };
    if (remote_ != nullptr) {
      auto r = remote_->Run(
          {.language = static_cast<uint8_t>(datalog),
           .text = text,
           .num_threads = opts_.eval.num_threads,
           .columnar = opts_.eval.columnar,
           .specialize_bound_closures =
               opts_.translation.specialize_bound_closures,
           .budget = budget_,
           .deadline_ms = deadline_ms_});
      if (!r.ok()) {
        Fail(r.status());
        if (r.status().code() == StatusCode::kOverloaded &&
            remote_->last_retry_after_ms() != 0) {
          std::printf("(server advises retry after %u ms)\n",
                      remote_->last_retry_after_ms());
        }
        return true;
      }
      print_flags(*r);
      std::printf("%" PRIu64 " tuples derived (%" PRIu64
                  " graphs translated, %" PRIu64
                  " summarized) [remote epoch %" PRIu64 "]\n",
                  r->tuples_derived, r->graphs_translated,
                  r->graphs_summarized, r->epoch);
      return true;
    }
    last_store_ = eval::ProvenanceStore();
    gov::GovernorContext governor = MakeGovernor();
    QueryRequest req = datalog ? QueryRequest::Datalog(text)
                               : QueryRequest::GraphLog(text);
    req.options = opts_;
    // Provenance forces a cache/view bypass (a served answer cannot
    // populate the store), so .why is only collected while the cache is
    // off and no views are defined.
    if (opts_.cache.result_cache == nullptr && views_.size() == 0) {
      req.options.eval.provenance = &last_store_;
    }
    req.options.eval.governor = &governor;
    auto r = active().Run(req);
    if (!r.ok()) return Fail(r.status());
    last_program_ = r->stats.programs;
    last_trace_ = std::move(r->trace);
    if (!r->profile.empty()) last_profile_ = std::move(r->profile);
    print_flags(*r);
    const gl::QueryStats& stats = r->stats;
    if (datalog) {
      std::printf("%" PRIu64 " tuples derived\n", stats.datalog.tuples_derived);
      return true;
    }
    std::printf("%" PRIu64 " tuples derived (%" PRIu64
                " graphs translated, %" PRIu64 " summarized)\n",
                stats.datalog.tuples_derived, stats.graphs_translated,
                stats.graphs_summarized);
    return true;
  }

  bool HandleHelp(const std::string&) {
    std::printf("commands:\n");
    auto row = [](const std::string& usage, const char* help) {
      if (usage.size() <= 24) {
        std::printf("  %-24s %s\n", usage.c_str(), help);
      } else {
        std::printf("  %s\n  %-24s %s\n", usage.c_str(), "", help);
      }
    };
    row("fact(args).", "add a ground fact");
    row("query NAME { ... }", "evaluate a graphical query (may span lines)");
    for (const Command& c : Commands()) row(c.usage, c.help);
    row("Ctrl-C", "cancel the running query (twice: exit)");
    return true;
  }

  bool HandleQuit(const std::string&) {
    done_ = true;
    return true;
  }

  bool HandleDatalog(const std::string& rule) {
    return RunQuery(rule, /*datalog=*/true);
  }

  bool HandleLoad(const std::string& path) {
    // Remotely, the Client reads the file HERE and ships its bytes as
    // facts; the server never resolves a path on its own filesystem.
    return ApplyBatch(WriteBatch().LoadFile(path), "facts loaded");
  }

  bool HandleRelations(const std::string&) {
    if (remote_ != nullptr) {
      auto infos = remote_->ListRelations();
      if (!infos.ok()) return Fail(infos.status());
      for (const auto& info : *infos) {
        std::printf("  %s/%u: %" PRIu64 " tuples\n", info.name.c_str(),
                    info.arity, info.rows);
      }
      return true;
    }
    for (const auto& [name, rel] : db().relations()) {
      std::printf("  %s/%zu: %zu tuples\n", db().symbols().name(name).c_str(),
                  rel.arity(), rel.size());
    }
    return true;
  }

  bool HandleShow(const std::string& name) {
    if (remote_ != nullptr) {
      auto text = remote_->FetchRelation(name);
      if (!text.ok()) return Fail(text.status());
      std::printf("%s", text->c_str());
      return true;
    }
    Symbol s = db().symbols().Lookup(name);
    if (s == kNoSymbol || db().Find(s) == nullptr) {
      std::printf("no relation '%s'\n", name.c_str());
    } else {
      std::printf("%s", db().RelationToString(s).c_str());
    }
    return true;
  }

  bool HandleSave(const std::string& path) {
    Status s = storage::SaveFactsFile(path, db());
    return s.ok() || Fail(s);
  }

  bool HandleDot(const std::string&) {
    graph::DataGraph g = graph::DataGraph::FromDatabase(db());
    std::printf("%s", ToDot(g, db().symbols()).c_str());
    return true;
  }

  bool HandleDotquery(const std::string& arg) {
    return WhenComplete(arg, [this](const std::string& text) {
      auto q = gl::ParseGraphicalQuery(text, &db().symbols());
      if (!q.ok()) return Fail(q.status());
      std::printf("%s", RenderGraphicalQuery(*q, db().symbols()).c_str());
      return true;
    });
  }

  bool HandleExplain(const std::string& arg) {
    return WhenComplete(arg, [this](const std::string& text) {
      QueryRequest req = QueryRequest::GraphLog(text);
      req.options = opts_;
      req.options.observability.explain = true;
      req.options.observability.explain_only = true;
      auto r = active().Run(req);
      if (!r.ok()) return Fail(r.status());
      std::printf("%s", r->explain.c_str());
      return true;
    });
  }

  bool HandleWhy(const std::string& fact) {
    auto r = eval::ExplainFact(last_store_, last_program_, db().symbols(),
                               fact);
    if (r.ok()) {
      std::printf("%s", r->c_str());
      return true;
    }
    Fail(r.status());
    if (opts_.cache.result_cache != nullptr || views_.size() > 0) {
      std::printf("(provenance is not collected while the result "
                  "cache is on or views are defined; .cache off / "
                  ".view drop first)\n");
    }
    return true;
  }

  bool HandleRpq(const std::string& args) {
    // .rpq [SRC [DST]] EXPR — heuristics: leading words are endpoint
    // names when they are known symbols and the remaining text still
    // parses as an expression.
    auto parses = [](const std::string& text) {
      SymbolTable probe;
      return gl::ParsePathExpr(text, &probe).ok();
    };
    auto known = [this](const std::string& name) {
      return db().symbols().Lookup(name) != kNoSymbol;
    };
    const auto [first, rest] = SplitWord(args);
    const auto [second, rest2] = SplitWord(rest);
    rpq::RpqOptions opts;
    std::string expr = args;
    if (!second.empty() && parses(rest2) && known(first) && known(second)) {
      opts.source = Value::Sym(db().Intern(first));
      opts.target = Value::Sym(db().Intern(second));
      expr = rest2;
    } else if (parses(rest) && known(first)) {
      opts.source = Value::Sym(db().Intern(first));
      expr = rest;
    }
    graph::DataGraph g = graph::DataGraph::FromDatabase(db());
    obs::Tracer tracer;
    if (opts_.observability.tracing) opts.tracer = &tracer;
    opts.metrics = &metrics_;
    gov::GovernorContext governor = MakeGovernor();
    opts.governor = &governor;
    rpq::RpqStats rpq_stats;
    auto r = rpq::EvalRpqText(g, expr, &db().symbols(), opts, &rpq_stats);
    if (opts_.observability.tracing) last_trace_ = tracer.TakeReport();
    if (!r.ok()) return Fail(r.status());
    if (rpq_stats.truncated) std::printf("truncated: resource budget\n");
    for (const auto& t : r->rows()) {
      std::printf("  (%s, %s)\n", t[0].ToString(db().symbols()).c_str(),
                  t[1].ToString(db().symbols()).c_str());
    }
    std::printf("%zu pairs\n", r->size());
    return true;
  }

  bool HandleTrace(const std::string& arg) {
    if (SetFlag(arg, &opts_.observability.tracing, "tracing")) return true;
    if (!arg.empty() && arg != "json") return false;
    if (last_trace_.empty()) {
      std::printf("no trace recorded; .trace on, then run a query\n");
    } else if (arg == "json") {
      std::printf("%s\n", last_trace_.ToJson().c_str());
    } else {
      std::printf("%s", last_trace_.ToText().c_str());
    }
    return true;
  }

  bool HandleProfile(const std::string& arg) {
    if (SetFlag(arg, &opts_.observability.profile, "profiling")) return true;
    const auto [sub, rest] = SplitWord(arg);
    const std::string mode = sub == "show" ? rest : arg;
    if (!mode.empty() && mode != "json") return false;
    if (last_profile_.empty()) {
      std::printf("no profile recorded; .profile on, then run a query\n");
    } else if (mode == "json") {
      // Logical profile only: deterministic across thread counts.
      std::printf("%s\n", last_profile_.ToJson(false).c_str());
    } else {
      std::printf("%s", last_profile_.ToText().c_str());
    }
    return true;
  }

  bool HandleMetrics(const std::string& arg) {
    if (!arg.empty() && arg != "json" && arg != "prom") return false;
    // Levels, not events: queries never push them, so export the active
    // database's and the result cache's now. The server's own instruments
    // keep the snapshot from ever being empty.
    db().ExportResourceMetrics(&metrics_);
    if (opts_.cache.result_cache != nullptr) cache_.ExportMetrics(&metrics_);
    const obs::MetricsSnapshot snap = metrics_.Snapshot();
    if (arg == "json") {
      std::printf("%s\n", snap.ToJson().c_str());
    } else {
      std::printf("%s", arg == "prom" ? snap.ToPrometheus().c_str()
                                      : snap.ToText().c_str());
    }
    return true;
  }

  bool HandleSlowlog(const std::string& arg) {
    if (arg == "json") {
      std::printf("%s\n", slowlog_.ToJson().c_str());
      return true;
    }
    if (arg == "clear") {
      slowlog_.Clear();
      std::printf("slow-query log cleared\n");
      return true;
    }
    uint64_t& threshold_ns = opts_.observability.slow_query_threshold_ns;
    const auto [sub, ms] = SplitWord(arg);
    if (sub == "threshold") {
      uint64_t n = 0;
      if (!ms.empty() && !ParseU64(ms, &n, 999'999'999)) return false;
      if (!ms.empty()) threshold_ns = n * 1'000'000;
      std::printf("slow-query threshold = %" PRIu64 " ms\n",
                  threshold_ns / 1'000'000);
      return true;
    }
    uint64_t limit = slowlog_.capacity();
    if (!arg.empty() && !ParseU64(arg, &limit, 9999)) return false;
    std::vector<obs::SlowQueryRecord> entries = slowlog_.Entries();
    if (entries.empty()) {
      std::printf("slow-query log empty (threshold %" PRIu64 " ms, %" PRIu64
                  " total recorded)\n",
                  threshold_ns / 1'000'000, slowlog_.total_recorded());
      return true;
    }
    size_t start = entries.size() > limit ? entries.size() - limit : 0;
    for (size_t i = start; i < entries.size(); ++i) {
      const obs::SlowQueryRecord& r = entries[i];
      std::string text = r.text;
      std::replace(text.begin(), text.end(), '\n', ' ');
      if (text.size() > 60) text = text.substr(0, 57) + "...";
      std::printf("  #%" PRIu64 " [%s] %.3f ms%s: %s\n", r.sequence,
                  r.language.c_str(), static_cast<double>(r.duration_ns) / 1e6,
                  r.error.empty() ? "" : " (failed)", text.c_str());
    }
    std::printf("%zu of %" PRIu64 " recorded shown; .slowlog json for detail\n",
                entries.size() - start, slowlog_.total_recorded());
    return true;
  }

  bool HandleResource(const std::string&) {
    size_t total_rows = 0;
    for (const auto& [name, rel] : db().relations()) {
      std::printf("  %s/%zu: %zu rows, %zu bytes\n",
                  db().symbols().name(name).c_str(), rel.arity(), rel.size(),
                  rel.MemoryBytes());
      total_rows += rel.size();
    }
    std::printf("total: %zu relations, %zu rows, %zu bytes\n",
                db().relations().size(), total_rows, db().TotalBytes());
    return true;
  }

  bool HandleThreads(const std::string& arg) {
    uint64_t n = opts_.eval.num_threads;
    if (!arg.empty() && !ParseU64(arg, &n, 9999)) return false;
    opts_.eval.num_threads = static_cast<unsigned>(n);
    std::printf("num_threads = %u\n", opts_.eval.num_threads);
    return true;
  }

  /// Materializes the session limits into a per-query governor. The
  /// deadline countdown starts now (query start), the Ctrl-C token and
  /// count are re-armed, and the session fault injector rides along.
  gov::GovernorContext MakeGovernor() {
    g_sigint_count.store(0, std::memory_order_relaxed);
    cancel_.Reset();
    gov::GovernorContext g;
    g.token = cancel_;
    if (deadline_ms_ != 0) g.deadline = gov::Deadline::AfterMillis(deadline_ms_);
    g.budget = budget_;
    g.faults = &faults_;
    return g;
  }

  bool HandleLimit(const std::string& arg) {
    if (arg.empty()) {
      std::printf("  rows     = %" PRIu64 "\n  delta    = %" PRIu64
                  "\n  rounds   = %" PRIu64 "\n  bytes    = %" PRIu64
                  "\n  deadline = %" PRIu64 " ms\n  partial  = %s\n"
                  "(0 = unlimited)\n",
                  budget_.max_result_rows, budget_.max_delta_rows,
                  budget_.max_rounds, budget_.max_bytes, deadline_ms_,
                  budget_.return_partial ? "on" : "off");
      return true;
    }
    if (arg == "clear") {
      budget_ = gov::ResourceBudget();
      deadline_ms_ = 0;
      std::printf("limits cleared\n");
      return true;
    }
    std::istringstream in(arg);
    std::string what, value;
    in >> what >> value;
    if (what == "partial" && (value == "on" || value == "off")) {
      budget_.return_partial = value == "on";
      std::printf("partial = %s\n", value.c_str());
      return true;
    }
    const std::map<std::string, uint64_t*> fields = {
        {"rows", &budget_.max_result_rows},
        {"delta", &budget_.max_delta_rows},
        {"rounds", &budget_.max_rounds},
        {"bytes", &budget_.max_bytes},
        {"deadline", &deadline_ms_}};
    const auto field = fields.find(what);
    uint64_t n = 0;
    if (field == fields.end() || !ParseU64(value, &n)) return false;
    *field->second = n;
    std::printf("%s = %" PRIu64 "\n", what.c_str(), n);
    return true;
  }

  bool HandleFault(const std::string& arg) {
    if (arg.empty() || arg == "list") {
      auto armed = faults_.Armed();
      if (armed.empty()) std::printf("no faults armed\n");
      for (const auto& [site, spec] : armed) {
        const std::string action =
            spec.action == gov::FaultAction::kFail
                ? "fail"
                : "stall " + std::to_string(spec.stall_ms) + " ms";
        std::printf("  %s: %s at hit %" PRIu64 "%s (%" PRIu64
                    " hits so far)\n",
                    site.c_str(), action.c_str(), spec.trigger_hit,
                    spec.repeat ? "+" : "", faults_.hits(site));
      }
      return true;
    }
    if (arg == "clear") {
      faults_.Reset();
      std::printf("faults cleared\n");
      return true;
    }
    std::istringstream in(arg);
    std::string site, action, extra1, extra2;
    in >> site >> action >> extra1 >> extra2;
    gov::FaultSpec spec;
    bool ok = false;
    if (action == "fail") {
      spec.action = gov::FaultAction::kFail;
      ok = (extra1.empty() || ParseU64(extra1, &spec.trigger_hit)) &&
           extra2.empty();
    } else if (action == "stall") {
      spec.action = gov::FaultAction::kStall;
      ok = ParseU64(extra1, &spec.stall_ms) &&
           (extra2.empty() || ParseU64(extra2, &spec.trigger_hit));
    }
    if (!ok || spec.trigger_hit == 0) return false;
    faults_.Arm(site, spec);
    std::printf("armed %s\n", site.c_str());
    return true;
  }

  bool HandleCache(const std::string& arg) {
    if (arg == "on") {
      opts_.cache.result_cache = &cache_;
      std::printf("result cache on (%zu MiB budget)\n",
                  cache_.max_bytes() >> 20);
    } else if (arg == "off") {
      opts_.cache.result_cache = nullptr;
      std::printf("result cache off\n");
    } else if (arg == "clear") {
      cache_.Clear();
      std::printf("result cache cleared\n");
    } else if (arg.empty() || arg == "stats") {
      std::printf(
          "result cache %s (budget %zu): %s\n",
          opts_.cache.result_cache != nullptr ? "on" : "off",
          cache_.max_bytes(),
          obs::CountersToText(cache::kResultCacheCounters, cache_.Stats())
              .c_str());
    } else {
      return false;
    }
    return true;
  }

  bool HandleColumnar(const std::string& arg) {
    // CSR snapshots land in the active session's private cache (Session::
    // Run defaults columnar runs onto it), so sessions never share
    // column-store state.
    if (SetFlag(arg, &opts_.eval.columnar, "columnar path")) return true;
    if (!arg.empty() && arg != "stats") return false;
    columnar::CsrCache& cc = active().csr_cache();
    std::printf(
        "columnar path %s: %zu snapshots resident (session %s): %s\n",
        opts_.eval.columnar ? "on" : "off", cc.size(), active_.c_str(),
        obs::CountersToText(columnar::CsrCache::kCounters, cc.stats()).c_str());
    return true;
  }

  bool HandleView(const std::string& arg) {
    const auto [sub, rest] = SplitWord(arg);
    if (arg.empty() || arg == "list") {
      if (views_.size() == 0) {
        std::printf("no views defined; .view define NAME QUERY\n");
      }
      for (const std::string& name : views_.Names()) {
        cache::ViewStats vs = views_.StatsOf(name, &db());
        std::printf("  %s: %" PRIu64 " rows (%s), %s\n", name.c_str(),
                    vs.result_rows, vs.fresh ? "fresh" : "stale",
                    obs::CountersToText(cache::kViewCounters, vs).c_str());
      }
    } else if (sub == "define") {
      const auto [name, text] = SplitWord(rest);
      if (name.empty()) return false;
      return WhenComplete(text, [this, view = name](const std::string& query) {
        return DefineView(view, query);
      });
    } else if (sub == "drop" && !rest.empty()) {
      std::printf(views_.Drop(rest) ? "view %s dropped\n" : "no view '%s'\n",
                  rest.c_str());
    } else if (sub == "refresh") {
      Status st = rest.empty() ? views_.RefreshAll(&db(), &metrics_)
                               : views_.Refresh(rest, &db(), &metrics_);
      if (!st.ok()) return Fail(st);
      std::printf("refreshed\n");
    } else {
      return false;
    }
    return true;
  }

  bool DefineView(const std::string& name, const std::string& text) {
    auto def = MakeViewDefinition(name, text, &db(), opts_);
    if (!def.ok()) return Fail(def.status());
    Status st = views_.Define(std::move(*def), &db(), &metrics_);
    if (!st.ok()) return Fail(st);
    std::printf("view %s materialized (%" PRIu64 " rows)\n", name.c_str(),
                views_.StatsOf(name, &db()).result_rows);
    return true;
  }

  /// Keeps every defined view fresh after base-fact changes; a refresh
  /// failure (e.g. a fact made a view's program unsafe) is reported but
  /// does not undo the insertion.
  void RefreshViews() {
    if (views_.size() == 0) return;
    Status st = views_.RefreshAll(&db(), &metrics_);
    if (!st.ok()) {
      std::printf("view refresh error: %s\n", st.ToString().c_str());
    }
  }

  bool HandleSession(const std::string& arg) {
    auto [sub, name] = SplitWord(arg);
    if (arg.empty() || arg == "list") {
      std::printf("server epoch %" PRIu64 ", %zu open sessions\n",
                  server_->epoch(), sessions_.size());
      for (const auto& [session_name, s] : sessions_) {
        std::printf(
            "  %c %s: epoch %" PRIu64 ", %s\n",
            session_name == active_ ? '*' : ' ', session_name.c_str(),
            s->epoch(),
            obs::CountersToText(Session::kCounters, s->stats()).c_str());
      }
    } else if (sub == "open") {
      if (!name.empty() && sessions_.count(name) != 0) {
        std::printf("session '%s' already open; .session switch %s\n",
                    name.c_str(), name.c_str());
        return true;
      }
      auto s = server_->OpenSession({.name = name});
      if (!s.ok()) return Fail(s.status());
      name = (*s)->name();
      sessions_[name] = std::move(*s);
      active_ = name;
      std::printf("session %s open at epoch %" PRIu64 " (now active)\n",
                  name.c_str(), active().epoch());
    } else if (sub == "switch" && !name.empty()) {
      if (sessions_.count(name) == 0) {
        std::printf("no session '%s'; .session list\n", name.c_str());
        return true;
      }
      active_ = name;
      std::printf("session %s active (epoch %" PRIu64 ", server at %" PRIu64
                  ")\n",
                  name.c_str(), active().epoch(), server_->epoch());
    } else if (arg == "refresh") {
      Status st = active().Refresh();
      if (!st.ok()) return Fail(st);
      std::printf("session %s at epoch %" PRIu64 "\n", active_.c_str(),
                  active().epoch());
    } else {
      return false;
    }
    return true;
  }

  ServerOptions MakeServerOptions() {
    return ServerOptions{.metrics = &metrics_, .faults = &faults_};
  }

  /// Replaces the server and re-homes the shell onto a fresh "main"
  /// session. Sessions pin snapshots owned by the old server, so every
  /// open session must be dropped before the old server is — and remote
  /// connections hold such sessions too, so the listener stops first.
  bool SwapServer(std::unique_ptr<Server> next) {
    if (net_server_ != nullptr) {
      net_server_->Stop();
      net_server_.reset();
      std::printf("(stopped serving: the served server was replaced)\n");
    }
    auto main_session = next->OpenSession({.name = "main"});
    if (!main_session.ok()) return !Fail(main_session.status());
    sessions_.clear();
    server_ = std::move(next);
    sessions_["main"] = std::move(*main_session);
    active_ = "main";
    return true;
  }

  /// Commits the current facts into `next` as one batch, then swaps it in.
  bool MigrateTo(std::unique_ptr<Server> next) {
    std::string dump = storage::DumpFacts(server_->database());
    if (!dump.empty()) {
      auto migrated = next->Apply(WriteBatch().Facts(dump));
      if (!migrated.ok()) {
        std::printf("error migrating facts: %s\n",
                    migrated.status().ToString().c_str());
        return false;
      }
    }
    return SwapServer(std::move(next));
  }

  bool HandleWal(const std::string& arg) {
    const auto [sub, dir] = SplitWord(arg);
    if (arg.empty() || arg == "status") {
      if (!server_->durable()) {
        std::printf("wal off (in-memory server); .wal on DIR\n");
        return true;
      }
      const durability::Wal& wal = *server_->wal();
      std::printf("wal on: %s/wal.log, %" PRIu64 " bytes, fsync %s, epoch "
                  "%" PRIu64 "\n",
                  server_->dir().c_str(), wal.tail_offset(),
                  std::string(durability::FsyncPolicyName(wal.fsync_policy()))
                      .c_str(),
                  server_->epoch());
    } else if (sub == "on") {
      if (server_->durable()) {
        std::printf("wal already on: %s\n", server_->dir().c_str());
        return true;
      }
      if (dir.empty()) return false;
      // The durable server starts from the shell's state, merged with
      // anything DIR already recovered.
      auto durable = Server::Open(dir, MakeServerOptions());
      if (!durable.ok()) return Fail(durable.status());
      if (!MigrateTo(std::move(*durable))) return true;
      std::printf("wal on: %s at epoch %" PRIu64
                  " (sessions reset to 'main')\n",
                  server_->dir().c_str(), server_->epoch());
    } else if (arg == "off") {
      if (!server_->durable()) {
        std::printf("wal already off\n");
        return true;
      }
      if (MigrateTo(std::make_unique<Server>(MakeServerOptions()))) {
        std::printf("wal off; state kept in memory only (sessions reset to "
                    "'main')\n");
      }
    } else {
      return false;
    }
    return true;
  }

  bool HandleCheckpoint(const std::string&) {
    Status st = server_->Checkpoint();
    if (!st.ok()) return Fail(st);
    std::printf("checkpoint written at epoch %" PRIu64
                "; wal truncated to %" PRIu64 " bytes\n",
                server_->epoch(), server_->wal()->tail_offset());
    return true;
  }

  /// Recovery drill: closes the durable server (its WAL flushes on the
  /// way down) and re-opens the same directory through the full
  /// checkpoint-load + WAL-replay path — exactly what a restart after a
  /// crash would do, observable live.
  bool HandleRecover(const std::string&) {
    if (!server_->durable()) {
      std::printf("not a durable server; .wal on DIR first\n");
      return true;
    }
    const std::string dir = server_->dir();
    if (!SwapServer(std::make_unique<Server>(MakeServerOptions()))) {
      std::exit(1);
    }
    auto reopened = Server::Open(dir, MakeServerOptions());
    if (!reopened.ok()) {
      Fail(reopened.status());
      std::printf(
          "recovery failed; continuing on an empty in-memory server\n");
      return true;
    }
    if (!SwapServer(std::move(*reopened))) std::exit(1);
    std::printf("recovered %s at epoch %" PRIu64
                " (sessions reset to 'main')\n",
                dir.c_str(), server_->epoch());
    return true;
  }

  bool HandleServe(const std::string& arg) {
    if (arg.empty() || arg == "status" || arg == "stop") {
      if (net_server_ == nullptr) {
        std::printf(arg == "stop" ? "not serving\n"
                                  : "not serving; .serve PORT\n");
      } else if (arg == "stop") {
        net_server_->Stop();
        net_server_.reset();
        std::printf("stopped serving\n");
      } else {
        std::printf("serving on 127.0.0.1:%u — %zu connections, %" PRIu64
                    " shed\n",
                    net_server_->port(), net_server_->active_connections(),
                    net_server_->rejected());
      }
      return true;
    }
    uint64_t port = 0;
    if (!ParseU64(arg, &port, 65535)) return false;
    if (net_server_ != nullptr) {
      std::printf("already serving on port %u; .serve stop first\n",
                  net_server_->port());
      return true;
    }
    auto started = net::NetServer::Start(
        server_.get(), {.port = static_cast<uint16_t>(port),
                        .metrics = &metrics_, .faults = &faults_});
    if (!started.ok()) return Fail(started.status());
    net_server_ = std::move(*started);
    std::printf("serving on 127.0.0.1:%u (.connect 127.0.0.1:%u from another "
                "shell)\n",
                net_server_->port(), net_server_->port());
    return true;
  }

  bool HandleConnect(const std::string& arg) {
    const size_t colon = arg.rfind(':');
    uint64_t port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseU64(arg.substr(colon + 1), &port, 65535) || port == 0) {
      return false;
    }
    if (remote_ != nullptr) {
      std::printf("already connected to %s; .disconnect first\n",
                  remote_addr_.c_str());
      return true;
    }
    auto client =
        net::Client::Connect(arg.substr(0, colon), static_cast<uint16_t>(port));
    if (!client.ok()) return Fail(client.status());
    auto session = (*client)->OpenSession();
    if (!session.ok()) return Fail(session.status());
    remote_ = std::move(*client);
    remote_addr_ = arg;
    std::printf("connected to %s — session %s at epoch %" PRIu64
                "; facts, queries, .datalog, .load, .show, .relations now "
                "run remotely (.disconnect to detach)\n",
                arg.c_str(), session->name.c_str(), session->epoch);
    return true;
  }

  bool HandleDisconnect(const std::string&) {
    if (remote_ == nullptr) {
      std::printf("not connected\n");
      return true;
    }
    remote_.reset();
    std::printf("disconnected from %s; commands run locally again\n",
                remote_addr_.c_str());
    return true;
  }

  // An incomplete brace block (query, .dotquery, .explain, .view define)
  // and what to run on it once the block closes; null when none is open.
  std::string pending_;
  std::function<bool(const std::string&)> pending_then_;
  bool done_ = false;
  // Options for every query/.datalog run (.threads, .trace, .profile,
  // .columnar, .cache), and what the last run left for .trace, .profile
  // show and .why.
  QueryOptions opts_;
  obs::TraceReport last_trace_;
  obs::QueryProfile last_profile_;
  eval::ProvenanceStore last_store_;
  datalog::Program last_program_;
  // The metrics registry (.metrics) and slow-query ring (.slowlog) that
  // opts_ points at.
  obs::MetricsRegistry metrics_;
  obs::SlowQueryLog slowlog_;
  // Governor state: the Ctrl-C token (shared with the SIGINT handler),
  // the .limit budget and deadline that MakeGovernor applies per query,
  // and the .fault injector.
  gov::CancellationToken cancel_;
  gov::ResourceBudget budget_;
  uint64_t deadline_ms_ = 0;
  gov::FaultInjector faults_;
  // The result cache (armed into opts_ by .cache on) and the views that
  // every query consults.
  cache::ResultCache cache_;
  cache::ViewCatalog views_;
  // The in-process server and its sessions, each pinned to an epoch
  // snapshot. Held by pointer so .wal and .recover can swap the server
  // (SwapServer re-homes the sessions). Declared after metrics_ and
  // faults_, which the server points at, so it is destroyed first.
  std::unique_ptr<Server> server_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::string active_;
  // `.serve` exposes server_ over TCP; `.connect` routes the commands
  // with a remote form through remote_ until `.disconnect`.
  std::unique_ptr<net::NetServer> net_server_;
  std::unique_ptr<net::Client> remote_;
  std::string remote_addr_;
};

std::span<const Shell::Command> Shell::Commands() {
  using enum Command::Args;
  static constexpr Command kCommands[] = {
      {".datalog", ".datalog RULE", "evaluate a single Datalog rule",
       kRequired, false, &Shell::HandleDatalog},
      {".load", ".load FILE", "load a fact file", kRequired, false,
       &Shell::HandleLoad},
      {".save", ".save FILE", "save all relations as facts", kRequired, true,
       &Shell::HandleSave},
      {".show", ".show RELATION", "print a relation", kRequired, false,
       &Shell::HandleShow},
      {".relations", ".relations", "list relations and sizes", kNone, false,
       &Shell::HandleRelations},
      {".dot", ".dot", "DOT of the database graph", kNone, true,
       &Shell::HandleDot},
      {".dotquery", ".dotquery QUERY", "DOT of a query graph", kRequired,
       false, &Shell::HandleDotquery},
      {".rpq", ".rpq [SRC [DST]] EXPR", "run a regular path query", kRequired,
       true, &Shell::HandleRpq},
      {".explain", ".explain QUERY", "translated rules, strata and join plans",
       kRequired, true, &Shell::HandleExplain},
      {".why", ".why FACT", "derivation tree of a fact from the last run",
       kRequired, true, &Shell::HandleWhy},
      {".trace", ".trace [on|off|json]", "tracing; bare prints the last trace",
       kOptional, false, &Shell::HandleTrace},
      {".profile", ".profile [on|off|show [json]]", "EXPLAIN ANALYZE profiles",
       kOptional, false, &Shell::HandleProfile},
      {".metrics", ".metrics [json|prom]", "process-wide metrics registry",
       kOptional, false, &Shell::HandleMetrics},
      {".slowlog", ".slowlog [N | json | clear | threshold [MS]]",
       "slow-query log (threshold 0 disables)", kOptional, false,
       &Shell::HandleSlowlog},
      {".resource", ".resource", "per-relation row/byte accounting", kNone,
       true, &Shell::HandleResource},
      {".threads", ".threads [N]   (1 = serial, 0 = hardware, max 9999)",
       "evaluation worker lanes", kOptional, false, &Shell::HandleThreads},
      {".limit",
       ".limit [rows|delta|rounds|bytes N | deadline MS | partial on|off | "
       "clear]",
       "per-query limits (0 = off)", kOptional, false, &Shell::HandleLimit},
      {".fault", ".fault [list | clear | SITE fail [N] | SITE stall MS [N]]",
       "fault injection: eval.round pool.task tc.expand rpq.step io.load "
       "csr.build wal.append wal.fsync checkpoint.write net.accept net.read "
       "net.write",
       kOptional, false, &Shell::HandleFault},
      {".cache", ".cache [on|off|stats|clear]",
       "result cache (while on, .why is not collected)", kOptional, false,
       &Shell::HandleCache},
      {".columnar", ".columnar [on|off|stats]",
       "CSR/bitset path (bit-identical answers)", kOptional, false,
       &Shell::HandleColumnar},
      {".view", ".view [list | define NAME QUERY | refresh [NAME] | drop NAME]",
       "incrementally maintained views", kOptional, true, &Shell::HandleView},
      {".session", ".session [list | open [NAME] | switch NAME | refresh]",
       "epoch-snapshot sessions; * marks the active one", kOptional, false,
       &Shell::HandleSession},
      {".wal", ".wal [on DIR | off | status]", "durable mode: DIR/wal.log",
       kOptional, false, &Shell::HandleWal},
      {".checkpoint", ".checkpoint", "write DIR/checkpoint.db, trim the WAL",
       kNone, false, &Shell::HandleCheckpoint},
      {".recover", ".recover", "re-open the durable server (crash drill)",
       kNone, false, &Shell::HandleRecover},
      {".serve", ".serve [PORT | status | stop]",
       "serve on 127.0.0.1:PORT (0 = ephemeral)", kOptional, false,
       &Shell::HandleServe},
      {".connect", ".connect HOST:PORT",
       "facts, queries, .datalog, .load, .show, .relations run remotely",
       kRequired, false, &Shell::HandleConnect},
      {".disconnect", ".disconnect", "drop the remote connection", kNone, false,
       &Shell::HandleDisconnect},
      {".help", ".help", "this list", kNone, false, &Shell::HandleHelp},
      {".quit", ".quit", "exit the shell", kNone, false, &Shell::HandleQuit},
      {".exit", ".exit", "exit the shell", kNone, false, &Shell::HandleQuit},
  };
  return kCommands;
}

}  // namespace

int main() {
  std::printf("GraphLog shell — .help for commands\n");
  Shell shell;
  return shell.Run();
}
