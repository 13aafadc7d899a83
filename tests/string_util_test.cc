#include "util/string_util.h"

#include <cctype>
#include <clocale>
#include <string>

#include <gtest/gtest.h>

namespace pullmon {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputIsSingleEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(AsciiClassTest, EveryByteMatchesCLocaleCtype) {
  // The program never calls setlocale, so <cctype> answers for "C".
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const auto u = static_cast<unsigned char>(b);
    EXPECT_EQ(IsAsciiSpace(c), std::isspace(u) != 0) << "byte " << b;
    EXPECT_EQ(IsAsciiDigit(c), std::isdigit(u) != 0) << "byte " << b;
    EXPECT_EQ(IsAsciiAlpha(c), std::isalpha(u) != 0) << "byte " << b;
    const std::string padded = std::string(1, c) + "x" + std::string(1, c);
    EXPECT_EQ(Trim(padded) == "x", std::isspace(u) != 0) << "byte " << b;
  }
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("<rss version>", "<rss"));
  EXPECT_FALSE(StartsWith("<r", "<rss"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("S-EDF"), "s-edf");
  EXPECT_EQ(ToLower("mrsf"), "mrsf");
}

TEST(ParseInt64Test, ValidValues) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("  7 "), 7);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidValues) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StringFormat("r%d:[%d,%d]", 3, 1, 9), "r3:[1,9]");
  EXPECT_EQ(StringFormat("%.2f", 0.5), "0.50");
  EXPECT_EQ(StringFormat("%s", ""), "");
}

TEST(StringFormatTest, LongOutput) {
  std::string long_arg(5000, 'x');
  std::string out = StringFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

}  // namespace
}  // namespace pullmon
