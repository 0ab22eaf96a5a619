// Small string helpers shared across the HDL front end, TCL interpreter and
// report parsers. All functions are pure and allocation is explicit.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dovado::util {

/// Remove leading/trailing whitespace (space, tab, CR, LF, FF, VT).
[[nodiscard]] std::string_view trim(std::string_view s);

/// Lower-case copy (ASCII only; HDL identifiers are ASCII).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Upper-case copy (ASCII only).
[[nodiscard]] std::string to_upper(std::string_view s);

/// Split on a delimiter character. Empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// The fields of `text` split on `delim` (empty fields kept), as views
/// into the text, one at a time and without allocating:
///   FieldCursor lines(text, '\n');
///   for (std::string_view line; lines.next(line);) { ... }
class FieldCursor {
 public:
  FieldCursor(std::string_view text, char delim) : rest_(text), delim_(delim) {}

  /// The next field; false once every field has been handed out.
  bool next(std::string_view& field) {
    if (done_) return false;
    const std::size_t at = rest_.find(delim_);
    if (at == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, at);
      rest_.remove_prefix(at + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
  char delim_;
  bool done_ = false;
};

/// Split on any whitespace run; no empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive equality (ASCII). VHDL identifiers are case-insensitive.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// True if `s` contains `needle`.
[[nodiscard]] bool contains(std::string_view s, std::string_view needle);

/// Replace every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

/// Join elements with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a decimal integer; returns false on any non-numeric content.
[[nodiscard]] bool parse_int(std::string_view s, long long& out);

/// Parse a floating-point value; returns false on failure.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

/// printf-style formatting into a std::string. Formats once into a stack
/// buffer; only a text of 256 bytes or more is formatted a second time.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// format(), appended to `out` without a temporary string.
void append_format(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Append `value` in decimal, right-aligned in `width` columns: printf's
/// "%*lld", through std::to_chars.
void append_int(std::string& out, long long value, int width = 0);

/// Append `value` with `precision` digits after the point, right-aligned
/// in `width` columns: printf's "%*.*f", through std::to_chars (which is
/// specified to print what printf prints for a given precision).
void append_fixed(std::string& out, double value, int precision, int width = 0);

/// Append `text` left-aligned in `width` columns: printf's "%-*s".
void append_left(std::string& out, std::string_view text, int width);

/// Levenshtein edit distance (insert/delete/substitute, each cost 1).
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// The candidate closest to `name` by edit distance (case-insensitive),
/// for did-you-mean diagnostics. Empty when no candidate is within
/// max(2, |name| / 3) edits — a suggestion further away would mislead.
[[nodiscard]] std::string closest_match(std::string_view name,
                                        const std::vector<std::string>& candidates);

}  // namespace dovado::util
