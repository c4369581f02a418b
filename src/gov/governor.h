// Query governor: deadlines, cooperative cancellation, and resource
// budgets for long-running evaluations.
//
// GraphLog queries are recursive by construction — closure literals and
// path regular expressions compile to fixpoints whose cost is
// data-dependent and easy to underestimate. The observability layer (PRs
// 2–3) makes a runaway query visible; this module makes it *stoppable*
// and *boundable*. A GovernorContext bundles three orthogonal controls:
//
//   * CancellationToken — a shared, thread-safe flag. Cancel() from any
//     thread (a SIGINT handler, an admission controller); every
//     long-running loop polls it cooperatively. Polling is one relaxed
//     atomic load.
//   * Deadline — a wall-clock cutoff. Expiry is checked at the same
//     cooperative points; by nature nondeterministic in *where* it trips.
//   * ResourceBudget — caps on output rows, per-round delta rows,
//     fixpoint rounds, and estimated bytes (Relation::MemoryBytes, a
//     deterministic structural estimate). Budgets are checked at round
//     boundaries, so rows/rounds/bytes trips are bit-identical across
//     num_threads settings — the determinism contract of DESIGN §7.
//
// Violations surface as the Status taxonomy kCancelled /
// kDeadlineExceeded / kBudgetExceeded. When ResourceBudget::return_partial
// is set, a budget trip instead degrades gracefully: the engine stops at
// the round boundary and returns the partial fixpoint computed so far,
// flagged truncated (EvalStats::truncated / QueryResponse::truncated).
// Cancellation and deadline trips never return partial results — the
// engine rolls the Database back to its pre-run state instead.
//
// The context also carries an optional FaultInjector (fault_injection.h)
// so tests and the shell can arm deterministic failures or stalls at the
// same named points the governor checks.
//
// A null GovernorContext pointer is the zero-overhead path everywhere:
// every instrumentation site is a single pointer test, exactly like a
// disabled Tracer or MetricsRegistry.

#ifndef GRAPHLOG_GOV_GOVERNOR_H_
#define GRAPHLOG_GOV_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace graphlog::gov {

class FaultInjector;  // gov/fault_injection.h

/// \brief A shared cancellation flag: copies observe the same state, so a
/// token handed to a query can be cancelled from another thread (shell
/// SIGINT handler, admission controller) while the engine polls it.
///
/// Cancel/cancelled are single relaxed atomic operations — safe to call
/// from a signal handler and cheap enough to poll per work item.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  /// \brief Requests cancellation; idempotent, callable from any thread.
  void Cancel() const { state_->store(true, std::memory_order_relaxed); }

  /// \brief True once Cancel() has been called (on this or any copy).
  bool cancelled() const { return state_->load(std::memory_order_relaxed); }

  /// \brief Re-arms the token for reuse (shell sessions reset between
  /// queries). Not safe concurrently with an in-flight governed query.
  void Reset() const { state_->store(false, std::memory_order_relaxed); }

  /// \brief The raw flag, for layers that must not depend on gov
  /// (exec::ThreadPool takes a `const std::atomic<bool>*` stop flag).
  const std::atomic<bool>* flag() const { return state_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// \brief A wall-clock cutoff. Default-constructed deadlines never expire.
/// Offsets saturate: a deadline past the clock's range never expires.
class Deadline {
 public:
  Deadline() = default;

  static Deadline AfterNanos(uint64_t ns) {
    Deadline d;
    d.armed_ = true;
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::nanoseconds headroom = decltype(now)::max() - now;
    d.at_ = ns < static_cast<uint64_t>(headroom.count())
                ? now + std::chrono::nanoseconds(ns)
                : decltype(now)::max();
    return d;
  }
  static Deadline AfterMillis(uint64_t ms) {
    return AfterNanos(ms > UINT64_MAX / 1'000'000 ? UINT64_MAX
                                                  : ms * 1'000'000);
  }

  bool armed() const { return armed_; }
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// \brief Caps on what one evaluation may consume. 0 = unlimited.
///
/// rows/rounds/bytes are checked at round boundaries against
/// deterministic quantities (tuple counts, Relation::MemoryBytes), so a
/// trip — and the partial result retained under `return_partial` — is
/// bit-identical across num_threads settings. Enforcement is at-least:
/// the round that overshoots completes before the trip is detected, so a
/// partial result may exceed the cap by up to one round's derivations.
struct ResourceBudget {
  /// Max novel tuples derived by the run (EvalStats::tuples_derived; TC:
  /// closure pairs; RPQ: result pairs).
  uint64_t max_result_rows = 0;
  /// Max combined delta-relation rows at any semi-naive round start.
  uint64_t max_delta_rows = 0;
  /// Max fixpoint rounds across the run (EvalStats::iterations).
  uint64_t max_rounds = 0;
  /// Max estimated bytes (database + live deltas, Relation::MemoryBytes).
  uint64_t max_bytes = 0;
  /// Graceful degradation: a rows/rounds/delta/bytes trip stops the
  /// fixpoint at the round boundary and returns the partial result
  /// flagged truncated instead of failing with kBudgetExceeded.
  bool return_partial = false;

  bool any() const {
    return max_result_rows != 0 || max_delta_rows != 0 || max_rounds != 0 ||
           max_bytes != 0;
  }
};

/// \brief The bundle threaded through QueryOptions -> EvalOptions ->
/// every long-running loop. The context itself is read-only during a run
/// (the token's shared state is the one mutable cell), so one context can
/// be shared by every lane of a parallel evaluation.
struct GovernorContext {
  CancellationToken token;
  Deadline deadline;
  ResourceBudget budget;
  /// Optional deterministic fault injection; null = no injection points
  /// armed. See gov/fault_injection.h.
  FaultInjector* faults = nullptr;

  /// \brief Cancellation + deadline check, tagged with the site name for
  /// the error message. Does not touch the fault injector.
  Status CheckInterrupts(std::string_view site) const;

  /// \brief Full check at a named injection point: cancellation,
  /// deadline, then any armed fault at `site` (a stall re-checks
  /// cancellation/deadline afterwards, so a stalled lane still honors a
  /// cancel that arrived mid-stall).
  Status Check(std::string_view site) const;
};

/// \brief Null-tolerant helper: OK when `g` is null, g->Check(site)
/// otherwise. The single-pointer-test disabled path.
inline Status CheckPoint(const GovernorContext* g, std::string_view site) {
  if (g == nullptr) return Status::OK();
  return g->Check(site);
}

/// \brief Builds the standard kBudgetExceeded message:
/// "<budget> budget exceeded at <site>: <observed> > <limit>".
Status BudgetExceededError(std::string_view budget, std::string_view site,
                           uint64_t observed, uint64_t limit);

}  // namespace graphlog::gov

#endif  // GRAPHLOG_GOV_GOVERNOR_H_
