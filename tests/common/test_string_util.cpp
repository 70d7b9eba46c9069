#include "common/string_util.hpp"

#include <gtest/gtest.h>

namespace dml {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a|b|c", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("|x||", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiterYieldsWholeString) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto parts = split("", '|');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInteriorWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Join, BasicAndEdgeCases) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"only"}, ", "), "only");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(StartsWith, Cases) {
  EXPECT_TRUE(starts_with("# BGL-RAS-LOG", "# "));
  EXPECT_FALSE(starts_with("#", "# "));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("KERNEL Panic 42!"), "kernel panic 42!");
}

TEST(ReplaceAll, Cases) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
  EXPECT_EQ(replace_all("abc", "", "z"), "abc");  // empty pattern: no-op
}

TEST(ParseNumber, ConsumesTheWholeString) {
  EXPECT_EQ(parse_number<long>("300"), 300);
  EXPECT_EQ(parse_number<long>("-5"), -5);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);  // strtod's grammar
  for (const char* bad : {"", "abc", "300x", "3 ", "0x10"}) {
    EXPECT_FALSE(parse_number<long>(bad).has_value()) << bad;
  }
  for (const char* bad : {"", "abc", "0.3x", "1e"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_number<unsigned long>("-1").has_value());
  EXPECT_FALSE(parse_number<int>("99999999999").has_value());  // overflow
}

TEST(ParseNumber, InRangeSetsOnlyValidValues) {
  int weeks = 4;
  EXPECT_EQ(parse_in_range(std::string_view("0"), 1, 520, weeks),
            "expected an integer in [1, 520]");
  EXPECT_EQ(weeks, 4);
  EXPECT_EQ(parse_in_range(std::string_view("26"), 1, 520, weeks), "");
  EXPECT_EQ(weeks, 26);
  double confidence = 0.1;
  EXPECT_EQ(parse_in_range(std::string_view("2"), 0.0, 1.0, confidence),
            "expected a number in [0, 1]");
  EXPECT_EQ(confidence, 0.1);
}

}  // namespace
}  // namespace dml
