#include "storage/database.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "obs/metrics.h"

namespace graphlog::storage {

namespace {

/// Renders a value as a Datalog constant: symbols that are not bare
/// lowercase identifiers are quoted so the output re-parses as facts.
std::string RenderConstant(const Value& v, const SymbolTable& syms) {
  if (!v.is_symbol()) return v.ToString(syms);
  const std::string& s = syms.name(v.AsSymbol());
  bool bare = !s.empty() && std::islower(static_cast<unsigned char>(s[0]));
  if (bare) {
    for (size_t i = 0; i < s.size() && bare; ++i) {
      char c = s[i];
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            (c == '-' && i + 1 < s.size() &&
             std::isalpha(static_cast<unsigned char>(s[i + 1]))))) {
        bare = false;
      }
    }
  }
  if (bare) return s;
  return "\"" + EscapeQuoted(s) + "\"";
}

}  // namespace

std::string Database::RelationToString(Symbol name) const {
  const Relation* rel = Find(name);
  if (rel == nullptr) return "";
  // Sort rendered lines: the Value total order sorts symbols by intern id,
  // which is meaningless to a reader.
  std::vector<std::string> lines;
  lines.reserve(rel->size());
  for (const Tuple& t : rel->rows()) {
    std::vector<std::string> parts;
    parts.reserve(t.size());
    for (const Value& v : t) parts.push_back(RenderConstant(v, syms_));
    lines.push_back(syms_.name(name) + "(" + Join(parts, ", ") + ").\n");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

void Database::ExportResourceMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  size_t total_rows = 0;
  size_t total_bytes = 0;
  for (const auto& [sym, rel] : relations_) {
    const std::string base = "db.relation." + syms_.name(sym);
    const size_t bytes = rel.MemoryBytes();
    registry->gauge(base + ".rows")->Set(static_cast<int64_t>(rel.size()));
    registry->gauge(base + ".bytes")->Set(static_cast<int64_t>(bytes));
    if (const RelationStats* st = stats_.Get(sym, rel); st != nullptr) {
      for (uint32_t c = 0; c < rel.arity(); ++c) {
        const std::string col = std::to_string(c);
        registry->gauge(base + ".distinct." + col)
            ->Set(static_cast<int64_t>(st->distinct(c)));
        registry->gauge(base + ".max_degree." + col)
            ->Set(static_cast<int64_t>(st->max_degree(c)));
      }
    }
    total_rows += rel.size();
    total_bytes += bytes;
  }
  registry->gauge("db.relations")
      ->Set(static_cast<int64_t>(relations_.size()));
  registry->gauge("db.rows")->Set(static_cast<int64_t>(total_rows));
  registry->gauge("db.bytes")->Set(static_cast<int64_t>(total_bytes));
}

}  // namespace graphlog::storage
