// Slow-query log: a bounded in-memory ring of outlier queries.
//
// When graphlog::Run() finishes a query whose wall-clock time exceeds
// QueryOptions::observability.slow_query_threshold_ns, it captures the
// request text, the EXPLAIN rendering (forced on for armed queries so the
// plan that was slow is the plan on record), the query's stats, and
// — when tracing was on — the full trace JSON into the configured
// SlowQueryLog. The ring holds the most recent `capacity` records;
// recording is mutex-serialized (a slow query is by definition not a hot
// path) and the whole log dumps as one JSON document.

#ifndef GRAPHLOG_OBS_SLOW_QUERY_LOG_H_
#define GRAPHLOG_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace graphlog::obs {

/// \brief One captured slow query.
struct SlowQueryRecord {
  uint64_t sequence = 0;      ///< 1-based across the log's lifetime
  std::string language;       ///< "graphlog" | "datalog"
  std::string text;           ///< request text ("<graphical>" for pre-parsed)
  /// Attribution: the session that ran the query and the server epoch
  /// it ran under. Empty/zero for direct graphlog::Run calls, which run
  /// against the caller's database.
  std::string session;
  uint64_t server_epoch = 0;
  uint64_t duration_ns = 0;
  uint64_t threshold_ns = 0;  ///< the threshold that tripped
  std::string error;          ///< non-empty when the query failed
  bool cache_hit = false;        ///< served from the result cache
  bool served_from_view = false; ///< answered from a materialized view
  std::string explain;        ///< EXPLAIN rendering at execution time
  std::string trace_json;     ///< full trace (only if tracing was on)
  std::string profile_json;   ///< EXPLAIN ANALYZE profile (if profiling)
  /// The query's stats as (name, value) pairs, written out as the JSON
  /// "stats" object in this order: every EvalStats counter (the
  /// eval::kEvalCounters list) then result_tuples.
  std::vector<std::pair<std::string, uint64_t>> stats;

  std::string ToJson() const;
};

/// \brief Thread-safe bounded ring of SlowQueryRecords.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 32)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// \brief Appends `rec` (assigning its sequence number), evicting the
  /// oldest record when full.
  void Record(SlowQueryRecord rec);

  /// \brief Oldest-to-newest copy of the retained records.
  std::vector<SlowQueryRecord> Entries() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// \brief Total records ever recorded, including evicted ones.
  uint64_t total_recorded() const;

  void Clear();

  /// \brief The whole log as one JSON document:
  /// {"capacity":N,"total_recorded":N,"entries":[...oldest first...]}.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SlowQueryRecord> ring_;
  uint64_t total_ = 0;
};

}  // namespace graphlog::obs

#endif  // GRAPHLOG_OBS_SLOW_QUERY_LOG_H_
