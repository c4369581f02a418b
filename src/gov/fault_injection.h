// Deterministic fault injection at named points in the engine.
//
// Every error path the governor creates — mid-stratum cancellation,
// per-lane failure propagation out of the thread pool, partial-result
// assembly, loader aborts — should be exercised by ctest, not by luck.
// A FaultInjector is a registry of named injection points that tests and
// the shell arm to fail (return an injected Status) or stall (sleep,
// waking early on cancellation) on the Nth time execution passes through
// the point.
//
// Injection points wired through the engine (site names are stable API,
// used by `.fault` in the shell and the robustness test suite):
//
//   eval.round   — top of every fixpoint round (eval/engine.cc)
//   pool.task    — before each work item a pool lane claims (engine
//                  batches)
//   tc.expand    — per fixpoint round / per source of the TC kernels
//   rpq.step     — periodically inside the product-automaton search
//   aggr.relax   — per source of Section 4 path summarization
//                  (aggr/path_summary.cc)
//   io.load      — before a fact file's parsed tuples are applied
//   csr.build    — before a CSR snapshot is built from a relation
//                  (columnar/csr.cc; engine batches and the columnar TC)
//   wal.append   — before a committed batch's record is appended to the
//                  write-ahead log (durability/wal.cc); an injected
//                  failure rolls the in-memory apply back
//   wal.fsync    — before the WAL fsync the fsync policy requests
//   checkpoint.write — before a checkpoint writes any byte
//                  (durability/checkpoint.cc); an aborted write never
//                  clobbers the previous valid checkpoint
//   net.accept   — after the TCP listener accepts a connection
//                  (net/net_server.cc); an injected failure answers one
//                  error frame and closes, counted as a rejection
//   net.read     — before each request frame is read off a connection;
//                  an injected failure drops the connection
//   net.write    — before each response frame is written; an injected
//                  failure drops the connection (the client observes a
//                  severed stream, never a half-written frame)
//
// Hit counts are tracked per site whether or not a fault is armed, so
// tests can assert coverage ("the loader consulted io.load exactly
// once"). Arming and hitting are mutex-serialized — injection points sit
// at round/task granularity, never per tuple — and hit order across
// concurrent lanes is the only nondeterminism (single-lane runs are
// fully deterministic).

#ifndef GRAPHLOG_GOV_FAULT_INJECTION_H_
#define GRAPHLOG_GOV_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "gov/governor.h"

namespace graphlog::gov {

/// \brief What an armed injection point does when it triggers.
enum class FaultAction : uint8_t {
  kFail,   ///< return the injected Status
  kStall,  ///< sleep `stall_ms` (woken early by cancellation), then OK
};

/// \brief One armed fault.
struct FaultSpec {
  FaultAction action = FaultAction::kFail;
  /// Fires on the Nth hit of the site (1-based) after arming.
  uint64_t trigger_hit = 1;
  /// When set, fires on every hit >= trigger_hit, not just the Nth.
  bool repeat = false;
  /// Status returned by a kFail trigger (the site and hit number are
  /// appended to the message).
  StatusCode code = StatusCode::kInternal;
  std::string message = "injected fault";
  /// Sleep duration for kStall triggers.
  uint64_t stall_ms = 0;
};

/// \brief Thread-safe registry of named injection points.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// \brief Arms `site` with `spec`, resetting the site's hit count so
  /// trigger_hit counts from this arming.
  void Arm(std::string_view site, FaultSpec spec);

  /// \brief Disarms `site`; its hit count keeps accumulating.
  void Disarm(std::string_view site);

  /// \brief Disarms every site and zeroes all hit counts.
  void Reset();

  /// \brief Times execution has passed through `site` since the last
  /// Arm/Reset of it.
  uint64_t hits(std::string_view site) const;

  /// \brief The currently armed sites (for shell `.fault list`).
  std::vector<std::pair<std::string, FaultSpec>> Armed() const;

  /// \brief Called by the engine at each injection point. Counts the hit;
  /// when an armed fault triggers, either returns its Status (kFail) or
  /// stalls (kStall) — sleeping in short slices so a cancellation on
  /// `token` (may be null) wakes it early — and returns OK.
  Status Hit(std::string_view site, const CancellationToken* token = nullptr);

 private:
  struct Site {
    FaultSpec spec;
    bool armed = false;
    uint64_t hit_count = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Site, std::less<>> sites_;
};

}  // namespace graphlog::gov

#endif  // GRAPHLOG_GOV_FAULT_INJECTION_H_
