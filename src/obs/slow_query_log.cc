#include "obs/slow_query_log.h"

#include "obs/json.h"

namespace graphlog::obs {

std::string SlowQueryRecord::ToJson() const {
  std::string out = "{\"sequence\":";
  json::AppendInt(&out, static_cast<int64_t>(sequence));
  out += ",\"language\":";
  json::AppendString(&out, language);
  out += ",\"text\":";
  json::AppendString(&out, text);
  if (!session.empty()) {
    out += ",\"session\":";
    json::AppendString(&out, session);
    out += ",\"server_epoch\":";
    json::AppendInt(&out, static_cast<int64_t>(server_epoch));
  }
  out += ",\"duration_ns\":";
  json::AppendInt(&out, static_cast<int64_t>(duration_ns));
  out += ",\"threshold_ns\":";
  json::AppendInt(&out, static_cast<int64_t>(threshold_ns));
  if (!error.empty()) {
    out += ",\"error\":";
    json::AppendString(&out, error);
  }
  if (cache_hit) out += ",\"cache_hit\":true";
  if (served_from_view) out += ",\"served_from_view\":true";
  out += ",\"stats\":{";
  for (size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out.push_back(',');
    json::AppendString(&out, stats[i].first);
    out.push_back(':');
    json::AppendInt(&out, static_cast<int64_t>(stats[i].second));
  }
  out += "}";
  if (!explain.empty()) {
    out += ",\"explain\":";
    json::AppendString(&out, explain);
  }
  if (!trace_json.empty()) {
    // Already JSON — embed verbatim rather than re-escaping.
    out += ",\"trace\":" + trace_json;
  }
  if (!profile_json.empty()) {
    out += ",\"profile\":" + profile_json;
  }
  out += "}";
  return out;
}

void SlowQueryLog::Record(SlowQueryRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec.sequence = ++total_;
  ring_.push_back(std::move(rec));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<SlowQueryRecord> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t SlowQueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

std::string SlowQueryLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"capacity\":";
  json::AppendInt(&out, static_cast<int64_t>(capacity_));
  out += ",\"total_recorded\":";
  json::AppendInt(&out, static_cast<int64_t>(total_));
  out += ",\"entries\":[";
  bool first = true;
  for (const SlowQueryRecord& rec : ring_) {
    if (!first) out.push_back(',');
    first = false;
    out += rec.ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace graphlog::obs
