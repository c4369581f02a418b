// The three end-to-end workloads and their op streams.
//
// A workload is a seed fact file plus one closed-loop op stream per
// client thread, all drawn from the --seed argument: the same seed gives
// the same facts, the same queries and the same batches. Op counts are
// fixed numbers (a nominal per-second rate times --seconds), never "as
// many as fit", so a faster build runs exactly the same work as a slower
// one.
//
//   lookup  — Figure 12 RT-scale queries with two bound city constants
//             (80% from a hot set of 32 pairs), 4 clients, a fresh
//             connection and session every 50 queries.
//   closure — the Figure 6 three-graph module audit at num_threads=4,
//             1 client, a fresh session per query.
//   ingest  — a durable server (--fsync always): 2 writers commit 8-fact
//             batches of edges from fresh nodes into a random digraph,
//             while 2 readers Refresh and run a bound reachability query,
//             the two sides held at their planned ratio (Pacer).

#ifndef GRAPHLOG_BENCH_E2E_WORKLOADS_H_
#define GRAPHLOG_BENCH_E2E_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"

namespace graphlog::e2e {

/// One edge fact `edge(from, to)` of an ingest batch.
using EdgeFact = std::pair<std::string, std::string>;

/// One client operation.
struct Op {
  enum Kind : uint8_t { kQuery, kCommit } kind = kQuery;
  /// kQuery: the GraphLog text.
  std::string text;
  /// kCommit: the batch's facts; `batch` is its index in the writer's
  /// stream (the crash check names batches by (writer, batch)).
  std::vector<EdgeFact> facts;
  uint32_t batch = 0;
  /// Close the current session (and, on lookup, the connection) and open
  /// a fresh one before this op.
  bool reopen = false;
};

/// One client thread's role and its op stream.
struct ThreadPlan {
  enum Role : uint8_t { kReader, kWriter } role = kReader;
  uint32_t writer_index = 0;  ///< kWriter only
  std::vector<Op> ops;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;        ///< the --seed everything is drawn from
  std::string facts_path;   ///< seed fact file, written by MakeWorkload
  uint64_t seed_facts = 0;  ///< facts in that file
  /// Query knobs every query of the workload is sent with.
  uint32_t num_threads = 1;
  bool specialize_bound_closures = false;
  /// lookup reconnects on reopen; the others reuse the connection.
  bool reconnect_on_reopen = false;
  /// ingest: readers Refresh before every query.
  bool refresh_before_query = false;
  /// ingest: graphlogd runs on a --dir with --fsync always.
  bool durable = false;
  /// Relations a query materializes (fetched by the correctness gate).
  std::vector<std::string> distinguished;
  std::vector<ThreadPlan> threads;
  /// Untimed queries run once before the timed phase.
  std::vector<std::string> warmup;
  /// Distinct query texts the correctness gate reruns.
  std::vector<std::string> gate_queries;
  uint64_t crash_seed = 0;  ///< ingest: picks the commit the kill lands on

  /// The wire form of a query of this workload.
  net::WireQuery Query(const std::string& text) const;
  /// Ops of `kind` across all threads.
  size_t Planned(Op::Kind kind) const;
};

/// Holds the queries and the commits of a workload that has both (ingest)
/// at their planned ratio. A read's cost grows with `edge`, so without
/// pacing it depends on how far the writers happened to get: unpaced,
/// the readers ran 2 to 6 s alone after the writers finished, and that
/// share changed from run to run. An op may start while its side, counting
/// the ops already started, is at most a slack ahead of the other side's
/// finished ops, both as shares of their plans. The slack is at least one
/// op of the smaller side, so the two sides can never wait on each other.
class Pacer {
 public:
  explicit Pacer(const Workload& w);
  /// Blocks until an op of `kind` may start, and counts it as started.
  void Start(Op::Kind kind);
  /// Counts an op of `kind` as finished, failed or not.
  void Done(Op::Kind kind);

 private:
  double Share(size_t n, Op::Kind kind) const;

  std::mutex mu_;
  std::condition_variable cv_;
  size_t planned_[2] = {0, 0};
  size_t started_[2] = {0, 0};
  size_t done_[2] = {0, 0};
  double slack_ = 0;
};

/// Names of the workloads, in the order run.sh runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`, writing its fact file into
/// `workdir`. Each thread's op count is its nominal rate times `seconds`
/// times `scale` (1, or 1/50 in smoke mode), at least 1.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds, double scale,
                              const std::string& workdir);

/// Batch `batch` of writer `writer` in an ingest stream: 8 facts, each
/// joining a fresh node to an existing seed node. Deterministic in its
/// arguments, so the crash phase can extend a stream past its timed part.
Op IngestBatch(uint64_t seed, uint32_t writer, uint32_t batch);

/// The line Database::RelationToString renders for `f`.
std::string EdgeLine(const EdgeFact& f);

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_WORKLOADS_H_
