#include "src/util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace dovado::util {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  FieldCursor fields(s, delim);
  for (std::string_view field; fields.next(field);) out.emplace_back(field);
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (true) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return out;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool parse_int(std::string_view s, long long& out) {
  s = trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is available in libstdc++ >= 11.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

namespace {

/// Append the formatted text to `out`: one vsnprintf into a stack buffer,
/// and a second, in place, only when the text does not fit there.
void append_vformat(std::string& out, const char* fmt, va_list args) {
  char buffer[256];
  va_list retry;
  va_copy(retry, args);
  const int needed = std::vsnprintf(buffer, sizeof buffer, fmt, args);
  if (needed > 0) {
    const auto size = static_cast<std::size_t>(needed);
    if (size < sizeof buffer) {
      out.append(buffer, size);
    } else {
      const std::size_t start = out.size();
      out.resize(start + size);
      std::vsnprintf(out.data() + start, size + 1, fmt, retry);
    }
  }
  va_end(retry);
}

}  // namespace

std::string format(const char* fmt, ...) {
  std::string out;
  va_list args;
  va_start(args, fmt);
  append_vformat(out, fmt, args);
  va_end(args);
  return out;
}

void append_format(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  append_vformat(out, fmt, args);
  va_end(args);
}

namespace {

/// Append `digits` right-aligned in `width` columns.
void append_right(std::string& out, const char* first, const char* last, int width) {
  const auto length = static_cast<int>(last - first);
  if (width > length) out.append(static_cast<std::size_t>(width - length), ' ');
  out.append(first, last);
}

}  // namespace

void append_int(std::string& out, long long value, int width) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  append_right(out, buffer, result.ptr, width);
}

void append_fixed(std::string& out, double value, int precision, int width) {
  // Room for any double in fixed notation at the precisions reports use.
  char buffer[384];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value,
                                    std::chars_format::fixed, precision);
  if (result.ec != std::errc()) {
    append_format(out, "%*.*f", width, precision, value);
    return;
  }
  append_right(out, buffer, result.ptr, width);
}

void append_left(std::string& out, std::string_view text, int width) {
  out.append(text);
  const auto length = static_cast<int>(text.size());
  if (width > length) out.append(static_cast<std::size_t>(width - length), ' ');
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // One-row dynamic program; identifiers are short so O(|a|*|b|) is fine.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

std::string closest_match(std::string_view name,
                          const std::vector<std::string>& candidates) {
  const std::string needle = to_lower(name);
  const std::size_t budget = std::max<std::size_t>(2, needle.size() / 3);
  std::string best;
  std::size_t best_distance = budget + 1;
  for (const auto& candidate : candidates) {
    const std::size_t d = edit_distance(needle, to_lower(candidate));
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

}  // namespace dovado::util
