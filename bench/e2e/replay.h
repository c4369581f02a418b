// The traced run: a workload's op stream replayed in-process, with a
// span at every public call a request crosses, for the per-layer table.
//
// Each client thread of the workload becomes a thread owning a Session,
// standing in for one connection; it replays the same ops, in the same
// counts and order, as the end-to-end run. Around each op it records
// the calls graphlogd makes for it — the codec calls
// (Encode*/Decode*/SerializeFrame, BatchCodec), Server::OpenSession and
// Session::Run/Refresh/Apply — and grafts the span tree the query
// pipeline already returns in QueryResponse::trace (parse, translate,
// stratify, stratum) under Session::Run. Nothing inside src/ gains
// tracing. Durability matches the served run: ingest replays on a
// Server::Open directory with --fsync always on the same filesystem.

#ifndef GRAPHLOG_BENCH_E2E_REPLAY_H_
#define GRAPHLOG_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/measure.h"
#include "bench/e2e/workloads.h"
#include "common/result.h"

namespace graphlog::e2e {

/// What the traced run takes from the end-to-end run of the same
/// workload (the wire cannot be seen in-process).
struct WireObservations {
  double query_p50_ms = 0;  ///< client-observed query p50
  double ping_p50_us = 0;   ///< Ping round trip p50
};

struct ReplayResult {
  std::vector<Metric> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Replays `w` in-process under tracing, writes every span to
/// `trace_path`, and returns the per-layer metrics. Durable state goes
/// under `workdir`.
Result<ReplayResult> RunTracedReplay(const Workload& w,
                                     const WireObservations& wire,
                                     const std::string& workdir,
                                     const std::string& trace_path);

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_REPLAY_H_
