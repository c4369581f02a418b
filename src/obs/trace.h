// Pipeline observability: hierarchical tracing spans.
//
// The measurement substrate behind the unified QueryRequest/QueryResponse
// API (graphlog/api.h): every pipeline stage — parse, validation,
// lambda-translation, stratification, per-stratum fixpoint rounds, TC and
// RPQ kernels, path summarization — opens a Span, annotates it with what
// happened, and closes it. The resulting tree is exported as a
// TraceReport (text or JSON). The trace holds no counters of its own: a
// query's totals are its QueryStats (QueryResponse::stats), and each
// round span carries its per-predicate `delta.<pred>` sizes as attrs.
//
// Design constraints:
//   * Near-zero overhead when disabled: every instrumentation site passes a
//     `Tracer*` that may be null, and SpanGuard/record helpers reduce to a
//     single pointer test in that case. No clock reads, no allocations.
//   * Deterministic across thread counts: span structure, attrs, and notes
//     depend only on the evaluation semantics (which PR 1 made
//     bit-identical across lane counts). Wall-clock data — span durations
//     and per-lane busy times — lives in dedicated fields that
//     ToJson(include_timings=false) omits, so the deterministic projection
//     of a report can be compared across num_threads settings byte for
//     byte (tests/obs_test.cc, tests/parallel_eval_test.cc).
//   * Single-threaded recording: spans are opened/closed and annotated only
//     from the coordinating thread. Worker lanes measure their own busy
//     time into per-lane slots that the coordinator folds into the open
//     span after the fork-join (see eval/engine.cc), keeping the tracer
//     free of synchronization.

#ifndef GRAPHLOG_OBS_TRACE_H_
#define GRAPHLOG_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace graphlog::obs {

/// \brief Monotonic clock reading in nanoseconds.
uint64_t NowNs();

/// \brief One node of the span tree.
struct Span {
  std::string name;
  uint64_t start_ns = 0;  ///< NowNs() at open (0 on imported/deterministic)
  uint64_t end_ns = 0;    ///< NowNs() at close
  /// Structural integer annotations (delta sizes, rule counts, ...), in
  /// append order. Deterministic across thread counts.
  std::vector<std::pair<std::string, int64_t>> attrs;
  /// Structural string annotations (join plans, algorithm names, ...).
  std::vector<std::pair<std::string, std::string>> notes;
  /// Wall-clock measurements beyond start/end (per-lane busy ns, resolved
  /// lane count). Excluded from the deterministic export.
  std::vector<std::pair<std::string, int64_t>> timings;
  std::vector<Span> children;

  uint64_t duration_ns() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

/// \brief A finished trace: the span forest.
struct TraceReport {
  std::vector<Span> spans;  ///< top-level spans in open order

  bool empty() const { return spans.empty(); }

  /// \brief JSON export. With `include_timings` false the output contains
  /// only the deterministic projection (no durations, no per-lane times):
  /// byte-identical across num_threads settings for the same query.
  std::string ToJson(bool include_timings = true) const;

  /// \brief Parses a ToJson() document back into a report. Round-trips:
  /// FromJson(r.ToJson(t))->ToJson(t) == r.ToJson(t) for either t.
  static Result<TraceReport> FromJson(std::string_view json);

  /// \brief Human-readable indented tree with durations and attrs.
  std::string ToText() const;
};

/// \brief Records one run's span tree.
///
/// Spans nest by open/close order on the recording thread. All methods are
/// single-threaded by design (see file comment).
class Tracer {
 public:
  /// \brief Opens a child span of the innermost open span.
  void BeginSpan(std::string_view name);
  /// \brief Closes the innermost open span.
  void EndSpan();

  /// \brief Annotates the innermost open span; no-ops without one.
  void AddAttr(std::string_view key, int64_t value);
  void AddNote(std::string_view key, std::string_view value);
  void AddTiming(std::string_view key, int64_t value);

  /// \brief Finishes the trace (closing any still-open spans) and returns
  /// the report. The tracer is reset and may be reused.
  TraceReport TakeReport();

 private:
  std::vector<Span> roots_;
  /// Path of open spans as child indices: stack_[0] indexes roots_,
  /// stack_[k] indexes the children of the span at stack_[k-1]. Indices
  /// stay valid across child-vector reallocation, unlike raw pointers.
  std::vector<size_t> stack_;

  Span* Current();
};

/// \brief RAII span: opens on construction, closes on destruction. All
/// operations are single-pointer-test no-ops when `tracer` is null, which
/// is the disabled-tracing hot path.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->BeginSpan(name);
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->EndSpan();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  bool enabled() const { return tracer_ != nullptr; }
  void AddAttr(std::string_view key, int64_t value) {
    if (tracer_ != nullptr) tracer_->AddAttr(key, value);
  }
  void AddNote(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->AddNote(key, value);
  }
  void AddTiming(std::string_view key, int64_t value) {
    if (tracer_ != nullptr) tracer_->AddTiming(key, value);
  }

 private:
  Tracer* tracer_;
};

}  // namespace graphlog::obs

#endif  // GRAPHLOG_OBS_TRACE_H_
