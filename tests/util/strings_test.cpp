#include "src/util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace dovado::util {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nabc\r\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no_ws"), "no_ws");
}

TEST(Case, Conversions) {
  EXPECT_EQ(to_lower("StD_LoGiC"), "std_logic");
  EXPECT_EQ(to_upper("abc123"), "ABC123");
}

TEST(Split, BasicAndEmptyFields) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, TrailingDelimiterYieldsEmptyField) {
  const auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(split("", ','), std::vector<std::string>{""});
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWs, CollapsesRuns) {
  const auto parts = split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(SplitWs, EmptyInput) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(Predicates, StartEndContains) {
  EXPECT_TRUE(starts_with("entity foo", "entity"));
  EXPECT_FALSE(starts_with("ent", "entity"));
  EXPECT_TRUE(ends_with("top.vhd", ".vhd"));
  EXPECT_FALSE(ends_with("vhd", ".vhd"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abc", "xyz"));
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("DownTo", "downto"));
  EXPECT_FALSE(iequals("down", "downto"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(ReplaceAll, MultipleOccurrences) {
  EXPECT_EQ(replace_all("a_b_c", "_", "--"), "a--b--c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(ParseInt, ValidAndInvalid) {
  long long v = 0;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int(" -17 ", v));
  EXPECT_EQ(v, -17);
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("3.5", v));
}

TEST(ParseDouble, ValidAndInvalid) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(format("%s", "plain"), "plain");
  EXPECT_EQ(format("empty"), "empty");
}

/// The two-pass formatting util::format used before its stack buffer:
/// measure with vsnprintf, then format into a string of that size.
std::string two_pass_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string two_pass_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

TEST(Format, MatchesTwoPassVsnprintfAtEveryBufferEdge) {
  // 0, 1, 255, 256 and 257 bytes sit at and around the 256-byte stack
  // buffer; 10,000 bytes takes the second pass.
  for (const std::size_t length : {0u, 1u, 255u, 256u, 257u, 10000u}) {
    const std::string text(length, 'x');
    const std::string formatted = format("%s", text.c_str());
    EXPECT_EQ(formatted.size(), length);
    EXPECT_EQ(formatted, two_pass_format("%s", text.c_str())) << length;
    // The same lengths reached through a padded field.
    const int width = static_cast<int>(length);
    EXPECT_EQ(format("%-*s|", width, "ab"), two_pass_format("%-*s|", width, "ab")) << length;
    EXPECT_EQ(format("%*d", width, -42), two_pass_format("%*d", width, -42)) << length;
  }
  for (const double value : {0.1, -1.0 / 3.0, 6.02214076e23, 5e-324, 1e300}) {
    EXPECT_EQ(format("%.17g", value), two_pass_format("%.17g", value));
    EXPECT_EQ(format("%.3f", value), two_pass_format("%.3f", value));
  }
  EXPECT_EQ(format("| %-*s | %10lld |", 20, "Slice LUTs", 1234LL),
            two_pass_format("| %-*s | %10lld |", 20, "Slice LUTs", 1234LL));
}

TEST(Format, AppendFormatAppendsWhatFormatReturns) {
  for (const std::size_t length : {0u, 1u, 255u, 256u, 257u, 10000u}) {
    const std::string text(length, 'y');
    std::string out = "head:";
    append_format(out, "%s;%.17g", text.c_str(), 0.1);
    EXPECT_EQ(out, "head:" + format("%s;%.17g", text.c_str(), 0.1)) << length;
  }
}

TEST(FieldCursor, KeepsEmptyFieldsAndStopsAfterTheLast) {
  FieldCursor cursor(",a,,b,", ',');
  std::vector<std::string> fields;
  for (std::string_view field; cursor.next(field);) fields.emplace_back(field);
  EXPECT_EQ(fields, (std::vector<std::string>{"", "a", "", "b", ""}));
  std::string_view field = "untouched";
  EXPECT_FALSE(cursor.next(field));
  EXPECT_EQ(field, "untouched");
}

}  // namespace
}  // namespace dovado::util
