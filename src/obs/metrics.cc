#include "obs/metrics.h"

#include <utility>
#include <vector>

#include "obs/json.h"

namespace graphlog::obs {

void Histogram::Observe(int64_t value) {
  if (count == 0) {
    min = max = value;
  } else {
    if (value < min) min = value;
    if (value > max) max = value;
  }
  ++count;
  sum += value;
  int width = 0;
  for (uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value); v != 0;
       v >>= 1) {
    ++width;
  }
  ++buckets[width];
}

// ---------------------------------------------------------------------------
// Registry

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(std::string(name));
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(std::string(name));
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

HistogramCell* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<HistogramCell>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

/// Wall-clock instruments carry the `_ns` suffix by convention; the
/// deterministic projection drops them.
bool IsTimingName(std::string_view name) {
  return name.size() >= 3 && name.substr(name.size() - 3) == "_ns";
}

void AppendHistogramJson(std::string* out, const Histogram& h) {
  *out += "{\"count\":";
  json::AppendInt(out, static_cast<int64_t>(h.count));
  *out += ",\"sum\":";
  json::AppendInt(out, h.sum);
  *out += ",\"min\":";
  json::AppendInt(out, h.min);
  *out += ",\"max\":";
  json::AppendInt(out, h.max);
  *out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [width, n] : h.buckets) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('[');
    json::AppendInt(out, width);
    out->push_back(',');
    json::AppendInt(out, static_cast<int64_t>(n));
    out->push_back(']');
  }
  *out += "]}";
}

/// Prometheus metric name: "graphlog_" + name with every character
/// outside [a-zA-Z0-9_] replaced by '_'.
std::string PrometheusName(std::string_view name) {
  std::string out = "graphlog_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToJson(bool include_timings) const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!include_timings && IsTimingName(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    json::AppendInt(&out, static_cast<int64_t>(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!include_timings && IsTimingName(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    json::AppendInt(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!include_timings && IsTimingName(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    AppendHistogramJson(&out, h);
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " ";
    json::AppendInt(&out, static_cast<int64_t>(value));
    out.push_back('\n');
  }
  for (const auto& [name, value] : gauges) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " ";
    json::AppendInt(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, h] : histograms) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    // Power-of-two buckets become cumulative `le` buckets: values of bit
    // width w lie in [2^(w-1), 2^w - 1] (width 0 is exactly 0), so the
    // inclusive upper bound of width w is 2^w - 1.
    uint64_t cumulative = 0;
    for (const auto& [width, n] : h.buckets) {
      cumulative += n;
      const uint64_t le =
          width >= 63 ? UINT64_MAX : (uint64_t{1} << width) - 1;
      out += pname + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + std::to_string(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters) {
      out += "  " + name + " = " + std::to_string(value) + "\n";
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : gauges) {
      out += "  " + name + " = " + std::to_string(value) + "\n";
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, h] : histograms) {
      out += "  " + name + ": count=" + std::to_string(h.count) +
             " sum=" + std::to_string(h.sum) +
             " min=" + std::to_string(h.min) +
             " max=" + std::to_string(h.max) + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON import

namespace {

Status ParseSnapshotHistogram(json::Reader* r, Histogram* h) {
  GRAPHLOG_RETURN_NOT_OK(r->Expect('{'));
  bool first = true;
  while (!r->TryConsume('}')) {
    if (!first) GRAPHLOG_RETURN_NOT_OK(r->Expect(','));
    first = false;
    GRAPHLOG_ASSIGN_OR_RETURN(std::string field, r->ParseString());
    GRAPHLOG_RETURN_NOT_OK(r->Expect(':'));
    if (field == "count") {
      GRAPHLOG_ASSIGN_OR_RETURN(int64_t v, r->ParseInt());
      h->count = static_cast<uint64_t>(v);
    } else if (field == "sum") {
      GRAPHLOG_ASSIGN_OR_RETURN(h->sum, r->ParseInt());
    } else if (field == "min") {
      GRAPHLOG_ASSIGN_OR_RETURN(h->min, r->ParseInt());
    } else if (field == "max") {
      GRAPHLOG_ASSIGN_OR_RETURN(h->max, r->ParseInt());
    } else if (field == "buckets") {
      GRAPHLOG_RETURN_NOT_OK(r->Expect('['));
      while (!r->TryConsume(']')) {
        if (!h->buckets.empty()) GRAPHLOG_RETURN_NOT_OK(r->Expect(','));
        GRAPHLOG_RETURN_NOT_OK(r->Expect('['));
        GRAPHLOG_ASSIGN_OR_RETURN(int64_t width, r->ParseInt());
        GRAPHLOG_RETURN_NOT_OK(r->Expect(','));
        GRAPHLOG_ASSIGN_OR_RETURN(int64_t n, r->ParseInt());
        GRAPHLOG_RETURN_NOT_OK(r->Expect(']'));
        h->buckets[static_cast<int>(width)] = static_cast<uint64_t>(n);
      }
    } else {
      return r->Err("metrics JSON: unknown histogram key '" + field + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::FromJson(std::string_view text) {
  json::Reader r(text);
  MetricsSnapshot snap;
  GRAPHLOG_RETURN_NOT_OK(r.Expect('{'));
  bool first = true;
  while (!r.TryConsume('}')) {
    if (!first) GRAPHLOG_RETURN_NOT_OK(r.Expect(','));
    first = false;
    GRAPHLOG_ASSIGN_OR_RETURN(std::string family, r.ParseString());
    GRAPHLOG_RETURN_NOT_OK(r.Expect(':'));
    GRAPHLOG_RETURN_NOT_OK(r.Expect('{'));
    bool efirst = true;
    while (!r.TryConsume('}')) {
      if (!efirst) GRAPHLOG_RETURN_NOT_OK(r.Expect(','));
      efirst = false;
      GRAPHLOG_ASSIGN_OR_RETURN(std::string name, r.ParseString());
      GRAPHLOG_RETURN_NOT_OK(r.Expect(':'));
      if (family == "counters") {
        GRAPHLOG_ASSIGN_OR_RETURN(int64_t v, r.ParseInt());
        snap.counters[std::move(name)] = static_cast<uint64_t>(v);
      } else if (family == "gauges") {
        GRAPHLOG_ASSIGN_OR_RETURN(int64_t v, r.ParseInt());
        snap.gauges[std::move(name)] = v;
      } else if (family == "histograms") {
        Histogram h;
        GRAPHLOG_RETURN_NOT_OK(ParseSnapshotHistogram(&r, &h));
        snap.histograms[std::move(name)] = std::move(h);
      } else {
        return r.Err("metrics JSON: unknown family '" + family + "'");
      }
    }
  }
  return snap;
}

}  // namespace graphlog::obs
