// Reading and writing the line-oriented text format of the pipeline
// image (serialize.cpp), the library's human-readable dump; entry deltas
// ship in a binary format (delta.cpp). Internal to camus_table. Lines are
// split into space-separated tokens in place, with no per-line or
// per-list allocation; writers append numbers with to_chars into one
// string sized up front.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "table/table.hpp"
#include "util/result.hpp"

namespace camus::table::textio {

// A text's lines as space-separated tokens: the first kMax tokens are kept
// and `n` counts them all. Blank lines are skipped but counted, so errors
// name the right line.
struct Lines {
  static constexpr std::size_t kMax = 8;
  explicit Lines(std::string_view t) : text(t) {}

  std::string_view text;
  std::size_t pos = 0;
  int line_no = 0;
  std::array<std::string_view, kMax> tok;
  std::size_t n = 0;

  // Reads the next non-blank line; false at the end of the text.
  bool next() {
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      const std::string_view line = text.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;
      n = 0;
      for (std::size_t i = 0; i < line.size();) {
        while (i < line.size() && line[i] == ' ') ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ') ++j;
        if (j > i) {
          if (n < kMax) tok[n] = line.substr(i, j - i);
          ++n;
        }
        i = j;
      }
      if (n > 0) return true;
    }
    n = 0;
    return false;
  }

  util::Error err(std::string msg) const {
    return util::Error{std::move(msg), line_no};
  }
};

inline bool parse_u64(std::string_view s, std::uint64_t* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

// Calls emit(x) for each value of a comma-separated list ("-" is empty);
// false on a malformed value.
template <typename Emit>
bool parse_list(std::string_view v, Emit&& emit) {
  if (v == "-") return true;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = v.find(',', i);
    if (j == std::string_view::npos) j = v.size();
    std::uint64_t x = 0;
    if (!parse_u64(v.substr(i, j - i), &x)) return false;
    emit(x);
    i = j + 1;
  }
  return true;
}

// Restores the sorted-unique invariant of an id list read in wire order.
template <typename T>
void sort_unique(std::vector<T>& v) {
  if (std::adjacent_find(v.begin(), v.end(), std::greater_equal<T>()) ==
      v.end())
    return;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// The value of a "key=value" token, or empty when the key differs.
inline std::string_view kv(std::string_view tok, std::string_view key) {
  if (tok.size() <= key.size() + 1) return {};
  if (tok.substr(0, key.size()) != key || tok[key.size()] != '=') return {};
  return tok.substr(key.size() + 1);
}

// --- writing ----------------------------------------------------------

inline void put_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

// "1,2,3", or "-" for an empty list.
template <typename T>
void put_list(std::string& out, const std::vector<T>& v) {
  if (v.empty()) {
    out += '-';
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    put_u64(out, v[i]);
  }
}

inline const char* value_kind_name(ValueMatch::Kind k) {
  switch (k) {
    case ValueMatch::Kind::kAny: return "any";
    case ValueMatch::Kind::kExact: return "exact";
    case ValueMatch::Kind::kRange: return "range";
  }
  return "?";
}

// " <kind> <lo> <hi> <next>": a field entry's match and next state.
inline void put_match(std::string& out, const ValueMatch& m,
                      std::uint64_t next_state) {
  out += ' ';
  out += value_kind_name(m.kind);
  out += ' ';
  put_u64(out, m.lo);
  out += ' ';
  put_u64(out, m.hi);
  out += ' ';
  put_u64(out, next_state);
}

// " ports=<list> updates=<list>": a leaf entry's action set.
inline void put_actions(std::string& out, const lang::ActionSet& a) {
  out += " ports=";
  put_list(out, a.ports);
  out += " updates=";
  put_list(out, a.state_updates);
}

}  // namespace camus::table::textio
