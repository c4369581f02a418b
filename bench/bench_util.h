// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench binary follows the same pattern: print a report header that
// re-derives the figure's artifact (program text, query results, or an
// equivalence certification — the paper's "evaluation" is qualitative), then
// run google-benchmark timings whose *shape* (who wins, how cost scales)
// is the reproduced claim.

#ifndef GRAPHLOG_BENCH_BENCH_UTIL_H_
#define GRAPHLOG_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "graphlog/api.h"
#include "storage/database.h"

namespace graphlog::bench {

/// \brief Evaluates GraphLog text through the unified Run() API and hands
/// back the stats, mirroring the retired gl::EvaluateGraphLogText wrapper.
inline Result<gl::QueryStats> EvalGraphLogText(std::string text,
                                               storage::Database* db) {
  GRAPHLOG_ASSIGN_OR_RETURN(
      QueryResponse resp, Run(QueryRequest::GraphLog(std::move(text)), db));
  return std::move(resp.stats);
}

/// \brief Aborts the bench with a message when a Status is not OK —
/// benches must fail loudly, not silently time garbage.
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckOk(Result<T> r, const char* what) {
  CheckOk(r.status(), what);
  return std::move(r).ValueOrDie();
}

/// \brief Client operations per iteration of the mixed-workload benches
/// (bench_server, bench_net), split across the clients: enough that
/// p99_us has at least 10 samples beyond it (index 1089 of 1100).
constexpr int kMixSamples = 1100;

/// \brief Prints the standard report banner.
inline void Banner(const char* figure, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("  claim: %s\n", claim);
  std::printf("==============================================================\n");
}

}  // namespace graphlog::bench

#endif  // GRAPHLOG_BENCH_BENCH_UTIL_H_
