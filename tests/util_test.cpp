#include <gtest/gtest.h>

#include <set>

#include "util/csv.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace haven::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ChoiceCoversAllElements) {
  Rng rng(17);
  const std::vector<int> items = {1, 2, 3, 4};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.choice(items));
  EXPECT_EQ(seen.size(), items.size());
}

TEST(Rng, ChoiceOnEmptyThrows) {
  Rng rng(17);
  const std::vector<int> empty;
  EXPECT_THROW(rng.choice(empty), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(child.next(), a.next());
}

// --- strings -----------------------------------------------------------------

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, SplitLinesHandlesCrLf) {
  const auto lines = split_lines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(Strings, SplitLinesNoPhantomTrailing) {
  const auto lines = split_lines("a\nb\n");
  EXPECT_EQ(lines.size(), 2u);
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("aBc"), "ABC");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("module foo", "module"));
  EXPECT_FALSE(starts_with("mod", "module"));
  EXPECT_TRUE(ends_with("foo.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
}

TEST(Strings, IcontainsIsCaseInsensitive) {
  EXPECT_TRUE(icontains("Implement an FSM now", "fsm"));
  EXPECT_FALSE(icontains("counter", "fsm"));
  EXPECT_TRUE(icontains("anything", ""));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aXbXc", "X", "yy"), "ayybyyc");
  EXPECT_EQ(replace_all("abc", "z", "q"), "abc");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, NumberParsingIsStrict) {
  std::uint64_t u = 7;
  long long i = 7;
  double f = 7.0;
  // Whitespace, a sign on an unsigned value, and trailing text all fail and
  // leave the output untouched.
  for (const char* bad : {"", " 5", "5 ", "-1", " -1", "+5", "0x10", "5%", "1e3"}) {
    EXPECT_FALSE(parse_u64(bad, &u)) << bad;
  }
  for (const char* bad : {"", " 5", "5 ", "+5", "1.5", "9223372036854775808"}) {
    EXPECT_FALSE(parse_i64(bad, &i)) << bad;
  }
  for (const char* bad : {"", " 0.5", "0.5 ", "+0.5", "5%"}) {
    EXPECT_FALSE(parse_f64(bad, &f)) << bad;
  }
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(i, 7);
  EXPECT_EQ(f, 7.0);
  EXPECT_TRUE(parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, ~std::uint64_t{0});
  EXPECT_TRUE(parse_i64("-3", &i));
  EXPECT_EQ(i, -3);
  EXPECT_TRUE(parse_f64("0.25", &f));
  EXPECT_EQ(f, 0.25);
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("_foo$1"));
  EXPECT_TRUE(is_identifier("a"));
  EXPECT_FALSE(is_identifier("1a"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a b"));
  EXPECT_FALSE(is_identifier("$display"));
}

TEST(Strings, WordCount) {
  EXPECT_EQ(word_count("the quick brown fox"), 4u);
  EXPECT_EQ(word_count("  "), 0u);
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%%"), "%");
}

TEST(Strings, IndentSkipsEmptyLines) {
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b\n");
}

// --- table -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"Model", "pass@1"});
  t.add_row({"GPT-4", "60.0"});
  t.add_row({"HaVen-DeepSeek", "78.8"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| Model"), std::string::npos);
  EXPECT_NE(out.find("78.8 |"), std::string::npos);
  // All lines equal length.
  std::size_t len = std::string::npos;
  for (const auto& line : split_lines(out)) {
    if (len == std::string::npos) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, SeparatorRendersRule) {
  TablePrinter t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const auto lines = split_lines(t.to_string());
  // rule, header, rule, row, rule(separator), row, rule
  EXPECT_EQ(lines.size(), 7u);
}

// --- csv ---------------------------------------------------------------------

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w({"name", "value"});
  w.add_row({"has,comma", "has\"quote"});
  const std::string out = w.to_string();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, PlainFieldsUnquoted) {
  CsvWriter w({"a"});
  w.add_row({"simple"});
  EXPECT_EQ(w.to_string(), "a\nsimple\n");
}

TEST(Csv, ArityMismatchThrows) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"x"}), std::invalid_argument);
}

}  // namespace
}  // namespace haven::util
