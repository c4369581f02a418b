#include "obs/trace.h"

#include <chrono>
#include <cstdio>

#include "obs/json.h"

namespace graphlog::obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Tracer

Span* Tracer::Current() {
  if (stack_.empty()) return nullptr;
  Span* s = &roots_[stack_[0]];
  for (size_t k = 1; k < stack_.size(); ++k) s = &s->children[stack_[k]];
  return s;
}

void Tracer::BeginSpan(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.start_ns = NowNs();
  Span* cur = Current();
  if (cur == nullptr) {
    stack_.push_back(roots_.size());
    roots_.push_back(std::move(span));
  } else {
    stack_.push_back(cur->children.size());
    cur->children.push_back(std::move(span));
  }
}

void Tracer::EndSpan() {
  Span* cur = Current();
  if (cur == nullptr) return;
  cur->end_ns = NowNs();
  stack_.pop_back();
}

void Tracer::AddAttr(std::string_view key, int64_t value) {
  Span* cur = Current();
  if (cur != nullptr) cur->attrs.emplace_back(std::string(key), value);
}

void Tracer::AddNote(std::string_view key, std::string_view value) {
  Span* cur = Current();
  if (cur != nullptr) {
    cur->notes.emplace_back(std::string(key), std::string(value));
  }
}

void Tracer::AddTiming(std::string_view key, int64_t value) {
  Span* cur = Current();
  if (cur != nullptr) cur->timings.emplace_back(std::string(key), value);
}

TraceReport Tracer::TakeReport() {
  while (!stack_.empty()) EndSpan();
  TraceReport report;
  report.spans = std::move(roots_);
  roots_.clear();
  return report;
}

// ---------------------------------------------------------------------------
// JSON export

namespace {

using json::AppendInt;
using json::AppendString;

template <typename V, typename AppendValue>
void AppendPairArray(std::string* out, const char* key,
                     const std::vector<std::pair<std::string, V>>& pairs,
                     const AppendValue& append_value) {
  if (pairs.empty()) return;
  *out += ",\"";
  *out += key;
  *out += "\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('[');
    AppendString(out, pairs[i].first);
    out->push_back(',');
    append_value(out, pairs[i].second);
    out->push_back(']');
  }
  out->push_back(']');
}

void AppendSpan(std::string* out, const Span& span, bool include_timings) {
  *out += "{\"name\":";
  AppendString(out, span.name);
  if (include_timings) {
    *out += ",\"duration_ns\":";
    AppendInt(out, static_cast<int64_t>(span.duration_ns()));
  }
  AppendPairArray(out, "attrs", span.attrs, AppendInt);
  AppendPairArray(out, "notes", span.notes,
                  [](std::string* o, const std::string& v) {
                    AppendString(o, v);
                  });
  if (include_timings) {
    AppendPairArray(out, "timings", span.timings, AppendInt);
  }
  if (!span.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) out->push_back(',');
      AppendSpan(out, span.children[i], include_timings);
    }
    out->push_back(']');
  }
  out->push_back('}');
}

}  // namespace

std::string TraceReport::ToJson(bool include_timings) const {
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendSpan(&out, spans[i], include_timings);
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// JSON import (round-trip support)
//
// The grammar lives here; the shared json::Reader (obs/json.h) supplies
// the terminals (strings, integers, punctuation).

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : r_(text) {}

  Result<TraceReport> ParseReport() {
    TraceReport report;
    GRAPHLOG_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) GRAPHLOG_RETURN_NOT_OK(Expect(','));
      first = false;
      GRAPHLOG_ASSIGN_OR_RETURN(std::string key, ParseString());
      GRAPHLOG_RETURN_NOT_OK(Expect(':'));
      if (key == "spans") {
        GRAPHLOG_RETURN_NOT_OK(Expect('['));
        while (!TryConsume(']')) {
          if (!report.spans.empty()) GRAPHLOG_RETURN_NOT_OK(Expect(','));
          GRAPHLOG_ASSIGN_OR_RETURN(Span s, ParseSpan());
          report.spans.push_back(std::move(s));
        }
      } else {
        return Err("unknown report key '" + key + "'");
      }
    }
    return report;
  }

 private:
  Status Err(std::string msg) const {
    return r_.Err("trace JSON: " + std::move(msg));
  }
  bool TryConsume(char c) { return r_.TryConsume(c); }
  Status Expect(char c) { return r_.Expect(c); }
  Result<std::string> ParseString() { return r_.ParseString(); }
  Result<int64_t> ParseInt() { return r_.ParseInt(); }

  /// Parses `[["key", value], ...]` with integer values.
  Status ParseIntPairs(std::vector<std::pair<std::string, int64_t>>* out) {
    GRAPHLOG_RETURN_NOT_OK(Expect('['));
    while (!TryConsume(']')) {
      if (!out->empty()) GRAPHLOG_RETURN_NOT_OK(Expect(','));
      GRAPHLOG_RETURN_NOT_OK(Expect('['));
      GRAPHLOG_ASSIGN_OR_RETURN(std::string key, ParseString());
      GRAPHLOG_RETURN_NOT_OK(Expect(','));
      GRAPHLOG_ASSIGN_OR_RETURN(int64_t value, ParseInt());
      GRAPHLOG_RETURN_NOT_OK(Expect(']'));
      out->emplace_back(std::move(key), value);
    }
    return Status::OK();
  }

  Result<Span> ParseSpan() {
    Span span;
    GRAPHLOG_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    while (!TryConsume('}')) {
      if (!first) GRAPHLOG_RETURN_NOT_OK(Expect(','));
      first = false;
      GRAPHLOG_ASSIGN_OR_RETURN(std::string key, ParseString());
      GRAPHLOG_RETURN_NOT_OK(Expect(':'));
      if (key == "name") {
        GRAPHLOG_ASSIGN_OR_RETURN(span.name, ParseString());
      } else if (key == "duration_ns") {
        GRAPHLOG_ASSIGN_OR_RETURN(int64_t d, ParseInt());
        span.start_ns = 0;
        span.end_ns = static_cast<uint64_t>(d);
      } else if (key == "attrs") {
        GRAPHLOG_RETURN_NOT_OK(ParseIntPairs(&span.attrs));
      } else if (key == "timings") {
        GRAPHLOG_RETURN_NOT_OK(ParseIntPairs(&span.timings));
      } else if (key == "notes") {
        GRAPHLOG_RETURN_NOT_OK(Expect('['));
        while (!TryConsume(']')) {
          if (!span.notes.empty()) GRAPHLOG_RETURN_NOT_OK(Expect(','));
          GRAPHLOG_RETURN_NOT_OK(Expect('['));
          GRAPHLOG_ASSIGN_OR_RETURN(std::string k, ParseString());
          GRAPHLOG_RETURN_NOT_OK(Expect(','));
          GRAPHLOG_ASSIGN_OR_RETURN(std::string v, ParseString());
          GRAPHLOG_RETURN_NOT_OK(Expect(']'));
          span.notes.emplace_back(std::move(k), std::move(v));
        }
      } else if (key == "children") {
        GRAPHLOG_RETURN_NOT_OK(Expect('['));
        while (!TryConsume(']')) {
          if (!span.children.empty()) GRAPHLOG_RETURN_NOT_OK(Expect(','));
          GRAPHLOG_ASSIGN_OR_RETURN(Span child, ParseSpan());
          span.children.push_back(std::move(child));
        }
      } else {
        return Err("unknown span key '" + key + "'");
      }
    }
    return span;
  }

  json::Reader r_;
};

}  // namespace

Result<TraceReport> TraceReport::FromJson(std::string_view json) {
  JsonParser parser(json);
  return parser.ParseReport();
}

// ---------------------------------------------------------------------------
// Text report

namespace {

void AppendDuration(std::string* out, uint64_t ns) {
  char buf[32];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", static_cast<double>(ns) / 1e3);
  }
  *out += buf;
}

void AppendSpanText(std::string* out, const Span& span, int depth) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name;
  if (span.end_ns != 0) {
    *out += "  [";
    AppendDuration(out, span.duration_ns());
    *out += "]";
  }
  for (const auto& [k, v] : span.attrs) {
    *out += "  " + k + "=" + std::to_string(v);
  }
  out->push_back('\n');
  for (const auto& [k, v] : span.notes) {
    out->append(static_cast<size_t>(depth) * 2 + 2, ' ');
    *out += "# " + k + ": " + v + "\n";
  }
  for (const Span& child : span.children) {
    AppendSpanText(out, child, depth + 1);
  }
}

}  // namespace

std::string TraceReport::ToText() const {
  std::string out;
  for (const Span& span : spans) AppendSpanText(&out, span, 0);
  return out;
}

}  // namespace graphlog::obs
