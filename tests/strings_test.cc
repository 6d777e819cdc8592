#include "common/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace hygraph {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, StripsWhitespaceBothEnds) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("\t x\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(ToLowerTest, Basics) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToLower("123xY"), "123xy");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("__ts__bikes", "__ts__"));
  EXPECT_FALSE(StartsWith("ts__bikes", "__ts__"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith("file.cc", ".h"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(FormatDoubleTest, ShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(23.4), "23.4");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-0.0), "-0");
  EXPECT_EQ(FormatDouble(1e300), "1e+300");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  std::string out = "x=";
  AppendDouble(&out, 2.5);
  EXPECT_EQ(out, "x=2.5");
}

TEST(FormatDoubleTest, StrtodRestoresEveryBit) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           23.4,
                           -1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
  for (const double d : values) {
    const std::string text = FormatDouble(d);
    const double back = std::strtod(text.c_str(), nullptr);
    uint64_t want = 0;
    uint64_t got = 0;
    std::memcpy(&want, &d, sizeof(d));
    std::memcpy(&got, &back, sizeof(back));
    EXPECT_EQ(got, want) << text;
  }
}

}  // namespace
}  // namespace hygraph
