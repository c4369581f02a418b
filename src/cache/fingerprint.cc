#include "cache/fingerprint.h"

namespace graphlog::cache {

std::string NormalizeQueryText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;  // a whitespace/comment run awaits emission
  size_t i = 0;
  auto emit = [&](char c) {
    if (pending_space) {
      if (!out.empty()) out += ' ';
      pending_space = false;
    }
    out += c;
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      // String literal: copy verbatim through the closing quote; a '\'
      // escapes the next byte (matching the lexer), so an escaped quote
      // does not terminate the literal.
      emit('"');
      ++i;
      while (i < text.size()) {
        const char d = text[i];
        out += d;
        ++i;
        if (d == '\\' && i < text.size()) {
          out += text[i];
          ++i;
          continue;
        }
        if (d == '"') break;
      }
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < text.size() && text[i + 1] == '/')) {
      // Comment to end of line; counts as whitespace.
      while (i < text.size() && text[i] != '\n') ++i;
      pending_space = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      pending_space = true;
      ++i;
      continue;
    }
    emit(c);
    ++i;
  }
  return out;
}

std::string CanonicalQueryKey(std::string_view text,
                              const QueryKeyOptions& options) {
  std::string key = "v1;lang=";
  key += std::to_string(options.language);
  key += ";strategy=";
  key += std::to_string(static_cast<int>(options.strategy));
  key += ";card=";
  key += options.cardinality_join_ordering ? '1' : '0';
  key += ";magic=";
  key += options.specialize_bound_closures ? '1' : '0';
  key += ";text=";
  key += NormalizeQueryText(text);
  return key;
}

uint64_t FingerprintKey(std::string_view canonical_key) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (char c : canonical_key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace graphlog::cache
