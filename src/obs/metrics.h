// Process-wide metrics: named counters, gauges, and histograms that
// outlive any single query.
//
// A query's own counters are its QueryStats (graphlog/api.h), returned in
// QueryResponse::stats; a long-lived GraphLog service additionally needs
// the cumulative view — how many rule firings since start, how much
// memory each relation holds, how the fixpoint-round distribution looks
// across the whole workload. MetricsRegistry is that layer: instruments
// are registered once by name, updated through stable handles, and
// snapshotted on demand.
//
// The registry is a fixed set of process-wide names: stats structs export
// through their counter lists (below), and only the on-demand
// Database::ExportResourceMetrics names instruments after relations.
//
// Design constraints:
//   * Cheap, thread-safe updates. Counter/Gauge are single relaxed
//     atomics; Histogram cells take a per-cell mutex (observations are
//     per-round, not per-tuple, on every hot path). Registration — the
//     only map lookup — happens once per instrumentation site; callers
//     cache the returned handle, so a disabled metrics path stays a
//     null-pointer test exactly like a disabled Tracer.
//   * Deterministic snapshots. A MetricsSnapshot orders every family by
//     name, and its JSON export round-trips through FromJson like the
//     trace format. Instruments whose name ends in "_ns" are wall-clock
//     by convention; ToJson(include_timings=false) omits them, so the
//     structural projection of a snapshot is byte-identical across
//     num_threads settings (tests/metrics_test.cc).
//   * Two exporters. ToPrometheus() renders the text exposition format
//     (power-of-two histogram buckets become cumulative `le` buckets);
//     ToJson()/FromJson() round-trip the full snapshot.

#ifndef GRAPHLOG_OBS_METRICS_H_
#define GRAPHLOG_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"

namespace graphlog::obs {

/// \brief A power-of-two-bucketed histogram of non-negative integers.
///
/// Bucket i counts values whose bit width is i (bucket 0 counts zeros),
/// i.e. value v lands in bucket floor(log2(v)) + 1. Exact counts/sums and
/// fixed boundaries keep the export deterministic.
struct Histogram {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::map<int, uint64_t> buckets;  ///< bit width -> observation count

  void Observe(int64_t value);
};

/// \brief A monotonically increasing counter (relaxed atomic).
class Counter {
 public:
  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief A settable signed level (relaxed atomic).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief A thread-safe power-of-two histogram cell (see obs::Histogram
/// for the bucketing contract).
class HistogramCell {
 public:
  void Observe(int64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    h_.Observe(value);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return h_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    h_ = Histogram();
  }

 private:
  mutable std::mutex mu_;
  Histogram h_;
};

/// \brief A point-in-time copy of every instrument, ordered by name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;

  /// \brief JSON export. Instruments named `*_ns` hold wall-clock data by
  /// convention; with `include_timings` false they are omitted, and the
  /// remaining structural snapshot is byte-identical across num_threads
  /// settings for the same workload.
  std::string ToJson(bool include_timings = true) const;

  /// \brief Parses a ToJson() document. Round-trips:
  /// FromJson(s.ToJson(t))->ToJson(t) == s.ToJson(t) for either t.
  static Result<MetricsSnapshot> FromJson(std::string_view json);

  /// \brief Prometheus text exposition. Metric names are sanitized
  /// ([^a-zA-Z0-9_] -> '_') and prefixed "graphlog_"; histograms emit
  /// cumulative `le`-bucket counts at the power-of-two boundaries.
  std::string ToPrometheus() const;

  /// \brief Human-readable listing (shell `.metrics`).
  std::string ToText() const;
};

/// \brief The registry: name -> instrument, with stable handle addresses.
///
/// Handles returned by counter()/gauge()/histogram() stay valid for the
/// registry's lifetime (instruments are heap-allocated and never removed;
/// Reset() zeroes values in place). Registration takes a mutex; updates
/// through handles are lock-free (counters/gauges) or per-cell locked
/// (histograms).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  HistogramCell* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// \brief Zeroes every instrument in place; outstanding handles remain
  /// valid. For tests and `.metrics reset`-style tooling.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramCell>> histograms_;
};

// ---------------------------------------------------------------------------
// Counter lists: a stats struct lists its uint64_t counters once, as a
// constexpr CounterField array; its merge, registry export and printing
// loop over that list, so each instrument name is spelled at one site.

/// \brief How a listed counter combines when two records merge.
enum class CounterFold : uint8_t {
  kSum,  ///< totals add; exported as a registry counter of the same name
  kMax,  ///< peaks take the max; per-record only, never exported
};

/// \brief One counter of stats struct `Stats`.
template <typename Stats>
struct CounterField {
  std::string_view name;  ///< "<layer>.<short name>": the instrument name
  uint64_t Stats::*field;
  CounterFold fold = CounterFold::kSum;

  /// \brief The short name after the layer prefix (slow-log/shell key).
  std::string_view field_name() const {
    return name.substr(name.find('.') + 1);
  }
};

/// \brief Folds `from` into `*into` entry by entry; other fields stay.
template <typename Stats, size_t N>
void FoldCounters(const CounterField<Stats> (&list)[N], const Stats& from,
                  Stats* into) {
  for (const CounterField<Stats>& c : list) {
    uint64_t& mine = into->*c.field;
    mine = c.fold == CounterFold::kSum ? mine + from.*c.field
                                       : std::max(mine, from.*c.field);
  }
}

/// \brief Adds each kSum entry of `s` to the registry counter of the same
/// name; no-op when `registry` is null.
template <typename Stats, size_t N>
void ExportCounters(const CounterField<Stats> (&list)[N], const Stats& s,
                    MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const CounterField<Stats>& c : list) {
    if (c.fold == CounterFold::kSum) {
      registry->counter(c.name)->Add(s.*c.field);
    }
  }
}

/// \brief Sets one gauge per entry to its absolute value: the export of a
/// cumulative record its owner publishes on demand. No-op on null.
template <typename Stats, size_t N>
void ExportGauges(const CounterField<Stats> (&list)[N], const Stats& s,
                  MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const CounterField<Stats>& c : list) {
    registry->gauge(c.name)->Set(static_cast<int64_t>(s.*c.field));
  }
}

/// \brief "3 queries, 0 errors, ...": every entry in list order.
template <typename Stats, size_t N>
std::string CountersToText(const CounterField<Stats> (&list)[N],
                           const Stats& s) {
  std::string out;
  for (const CounterField<Stats>& c : list) {
    if (!out.empty()) out += ", ";
    out += std::to_string(s.*c.field) + " " + std::string(c.field_name());
  }
  return out;
}

}  // namespace graphlog::obs

#endif  // GRAPHLOG_OBS_METRICS_H_
