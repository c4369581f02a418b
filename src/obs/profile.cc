#include "obs/profile.h"

#include <cstdio>

#include "obs/json.h"

namespace graphlog::obs {

namespace {

void AppendFixed(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  *out += buf;
}

}  // namespace

void QueryProfile::AppendRun(const QueryProfile& run) {
  rules.insert(rules.end(), run.rules.begin(), run.rules.end());
  for (RoundProfile r : run.rounds) {
    r.graph = graphs_;
    rounds.push_back(r);
  }
  ++graphs_;
}

std::string QueryProfile::ToJson(bool include_timings) const {
  std::string out = "{\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleProfile& r = rules[i];
    if (i > 0) out.push_back(',');
    out += "{\"rule\":";
    json::AppendString(&out, r.rule);
    out += ",\"plan\":";
    json::AppendString(&out, r.plan);
    out += ",\"firings\":";
    json::AppendInt(&out, static_cast<int64_t>(r.firings));
    out += ",\"rows_emitted\":";
    json::AppendInt(&out, static_cast<int64_t>(r.rows_emitted));
    out += ",\"dup_in_head\":";
    json::AppendInt(&out, static_cast<int64_t>(r.dup_in_head));
    out += ",\"dup_in_round\":";
    json::AppendInt(&out, static_cast<int64_t>(r.dup_in_round));
    out += ",\"steps\":[";
    for (size_t k = 0; k < r.steps.size(); ++k) {
      const StepProfile& s = r.steps[k];
      if (k > 0) out.push_back(',');
      out += "{\"op\":";
      json::AppendString(&out, s.op);
      out += ",\"estimated_rows\":";
      json::AppendInt(&out, static_cast<int64_t>(s.estimated_rows));
      out += ",\"invocations\":";
      json::AppendInt(&out, static_cast<int64_t>(s.invocations));
      out += ",\"rows_out\":";
      json::AppendInt(&out, static_cast<int64_t>(s.rows_out));
      if (include_timings) {
        // PHYSICAL: how the step was served, not what it computed.
        out += ",\"csr_invocations\":";
        json::AppendInt(&out, static_cast<int64_t>(s.csr_invocations));
      }
      out.push_back('}');
    }
    out.push_back(']');
    if (include_timings) {
      out += ",\"wall_ns\":";
      json::AppendInt(&out, static_cast<int64_t>(r.wall_ns));
    }
    out.push_back('}');
  }
  out += "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundProfile& r = rounds[i];
    if (i > 0) out.push_back(',');
    out += "{\"graph\":";
    json::AppendInt(&out, r.graph);
    out += ",\"stratum\":";
    json::AppendInt(&out, r.stratum);
    out += ",\"round\":";
    json::AppendInt(&out, r.round);
    out += ",\"delta_rows\":";
    json::AppendInt(&out, static_cast<int64_t>(r.delta_rows));
    out += ",\"firings\":";
    json::AppendInt(&out, static_cast<int64_t>(r.firings));
    out += ",\"derived\":";
    json::AppendInt(&out, static_cast<int64_t>(r.derived));
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string QueryProfile::ToText(bool include_timings) const {
  std::string out = "EXPLAIN ANALYZE\n";
  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleProfile& r = rules[i];
    out += "rule [" + std::to_string(i) + "] " + r.rule + "\n";
    out += "  plan: " + r.plan + "\n";
    out += "  firings=" + std::to_string(r.firings) +
           " emitted=" + std::to_string(r.rows_emitted) +
           " dup_head=" + std::to_string(r.dup_in_head) +
           " dup_round=" + std::to_string(r.dup_in_round);
    if (include_timings) {
      out += " wall_us=" + std::to_string(r.wall_ns / 1000);
    }
    out.push_back('\n');
    for (size_t k = 0; k < r.steps.size(); ++k) {
      const StepProfile& s = r.steps[k];
      out += "    step " + std::to_string(k) + ": " + s.op + "  est=";
      out += std::to_string(s.estimated_rows);
      out += " actual=";
      AppendFixed(&out, s.ActualRows());
      // Miss factor: how far reality landed from the estimate. ">=1x"
      // means the planner undercounted.
      out += " miss=";
      if (s.estimated_rows == 0 || s.invocations == 0) {
        out += "-";
      } else {
        AppendFixed(&out,
                    s.ActualRows() / static_cast<double>(s.estimated_rows));
        out.push_back('x');
      }
      out += " probes=" + std::to_string(s.invocations) +
             " rows=" + std::to_string(s.rows_out);
      if (include_timings && s.csr_invocations > 0) {
        out += " csr=" + std::to_string(s.csr_invocations) + "/" +
               std::to_string(s.invocations);
      }
      out.push_back('\n');
    }
  }
  if (!rounds.empty()) out += "rounds:\n";
  for (const RoundProfile& r : rounds) {
    out += "  graph " + std::to_string(r.graph) + " stratum " +
           std::to_string(r.stratum) + " round " + std::to_string(r.round) +
           ": delta=" + std::to_string(r.delta_rows) +
           " firings=" + std::to_string(r.firings) +
           " derived=" + std::to_string(r.derived) + "\n";
  }
  return out;
}

}  // namespace graphlog::obs
