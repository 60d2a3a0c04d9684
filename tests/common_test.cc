#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/json.h"
#include "common/record_file.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace bati {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, NormalMeanAndStddevRoughlyCorrect) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.WeightedIndex(w));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.WeightedIndex(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / trials, 0.75, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t v : sample) EXPECT_LT(v, 20u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---------- DynamicBitset ----------

TEST(DynamicBitset, SetTestResetCount) {
  DynamicBitset b(100);
  EXPECT_TRUE(b.empty());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(1));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, SubsetSemantics) {
  DynamicBitset small = DynamicBitset::FromIndices(128, {3, 70});
  DynamicBitset big = DynamicBitset::FromIndices(128, {3, 70, 127});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(DynamicBitset(128).IsSubsetOf(small));
}

TEST(DynamicBitset, SetAlgebra) {
  DynamicBitset a = DynamicBitset::FromIndices(70, {1, 2, 65});
  DynamicBitset b = DynamicBitset::FromIndices(70, {2, 3});
  EXPECT_EQ((a | b).ToIndices(), (std::vector<size_t>{1, 2, 3, 65}));
  EXPECT_EQ((a & b).ToIndices(), (std::vector<size_t>{2}));
  EXPECT_EQ((a - b).ToIndices(), (std::vector<size_t>{1, 65}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE((a - b).Intersects(b));
}

TEST(DynamicBitset, WithWithoutDoNotMutate) {
  DynamicBitset a = DynamicBitset::FromIndices(10, {1});
  DynamicBitset with = a.With(5);
  EXPECT_FALSE(a.test(5));
  EXPECT_TRUE(with.test(5));
  DynamicBitset without = with.Without(1);
  EXPECT_TRUE(with.test(1));
  EXPECT_FALSE(without.test(1));
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a = DynamicBitset::FromIndices(90, {10, 80});
  DynamicBitset b = DynamicBitset::FromIndices(90, {10, 80});
  DynamicBitset c = DynamicBitset::FromIndices(90, {10, 81});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());  // not guaranteed, but true for FNV here
}

TEST(DynamicBitset, ToStringFormat) {
  EXPECT_EQ(DynamicBitset::FromIndices(10, {1, 4, 7}).ToString(), "{1,4,7}");
  EXPECT_EQ(DynamicBitset(10).ToString(), "{}");
}

// ---------- Status ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

// ---------- RunningStats ----------

TEST(RunningStats, MeanStddevMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.Add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.stddev(), 0.0);
}

// ---------- strings ----------

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Selec", "SELECT"));
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("mcts-prior-bg", "mcts"));
  EXPECT_FALSE(StartsWith("mc", "mcts"));
}

// ---------- JSON codec ----------

TEST(Json, ReadsEveryValueKindAndEscape) {
  JsonReader r(R"( {"s":"a\"b\\c\/\n\t\r\b\fé","i":-12,)"
               R"("d":2.5e-1,"b":false,"n":null,"o":{"x":[1,{}]}} )");
  ASSERT_TRUE(r.BeginObject("doc").ok());
  bool more = false;
  std::string_view key;
  std::string s;
  int64_t i = 0;
  double d = 0.0;
  bool b = true;
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "s");
  ASSERT_TRUE(r.ReadString(key, &s).ok());
  EXPECT_EQ(s, "a\"b\\c/\n\t\r\b\fé");
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "i");
  ASSERT_TRUE(r.ReadInt(key, -100, 100, &i).ok());
  EXPECT_EQ(i, -12);
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "d");
  ASSERT_TRUE(r.ReadNumber(key, 0.0, 1.0, &d).ok());
  EXPECT_EQ(d, 0.25);
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "b");
  ASSERT_TRUE(r.ReadBool(key, &b).ok());
  EXPECT_FALSE(b);
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "n");
  ASSERT_TRUE(r.SkipValue().ok());
  ASSERT_TRUE(r.NextKey(&more, &key).ok() && more && key == "o");
  ASSERT_TRUE(r.SkipValue().ok());
  ASSERT_TRUE(r.NextKey(&more, &key).ok());
  EXPECT_FALSE(more);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(Json, RejectsWhatRfc8259Rejects) {
  for (const char* text :
       {"nan", "inf", "-inf", "0x10", "+1", ".5", "01", "1.", "1e", "-",
        "\"a\nb\"", "\"\\x\"", "\"\\ud800\"", "\"open", "tru", "[1,]",
        "{\"a\":1,}", "{\"a\" 1}", "[1 2]"}) {
    JsonReader r(text);
    EXPECT_FALSE(r.SkipValue().ok() && r.ExpectEnd().ok()) << text;
  }
  const std::string deep = std::string(100, '[') + std::string(100, ']');
  JsonReader r(deep);
  EXPECT_FALSE(r.SkipValue().ok());
}

TEST(Json, IntegersAreExactAndInRange) {
  struct Case {
    const char* text;
    bool ok;
    int64_t value;
  } cases[] = {{"4294967296", false, 0},  {"2147483647", true, 2147483647},
               {"1e30", false, 0},         {"1e3", true, 1000},
               {"1.5", false, 0},          {"-1", false, 0},
               {"9223372036854775808", false, 0}};
  for (const Case& c : cases) {
    JsonReader r(c.text);
    int64_t v = -7;
    const Status st = r.ReadInt("n", 0, 2147483647, &v);
    EXPECT_EQ(st.ok(), c.ok) << c.text << ": " << st.message();
    if (c.ok) {
      EXPECT_EQ(v, c.value);
    }
  }
}

TEST(Json, WriterEscapesAndRoundTrips) {
  const std::string nasty = "q\"b\\ c/\n\t\r\b\f end";
  const std::string doc = JsonWriter()
                              .String("s", nasty)
                              .Int("i", -3)
                              .Double("d", 0.1 + 0.2)
                              .Bool("b", true)
                              .Finish();
  EXPECT_EQ(doc.find('\n'), std::string::npos) << doc;
  JsonReader r(doc);
  std::string s;
  double d = 0.0;
  Status st = ReadFlatObject(&r, "doc", [&](std::string_view key) {
    if (key == "s") return r.ReadString(key, &s);
    if (key == "d") return r.ReadNumber(key, 0.0, 1.0, &d);
    return r.SkipValue();
  });
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(s, nasty);
  EXPECT_EQ(d, 0.1 + 0.2);
  EXPECT_EQ(JsonEscape("a\"\x1f"), "a\\\"\\u001f");
}

// ---------- Record file ----------

TEST(RecordFile, FramingRoundTripsAndNamesVersions) {
  const std::string framed = FrameRecordFile("bati-test v2", "a 1\nb 2\n");
  std::string_view body;
  ASSERT_TRUE(UnframeRecordFile(framed, "bati-test v2", &body).ok());
  EXPECT_EQ(body, "a 1\nb 2\n");
  const Status old = UnframeRecordFile("bati-test v1\na 1\n", "bati-test v2",
                                       &body);
  EXPECT_NE(old.message().find("v1"), std::string::npos) << old.message();
  EXPECT_FALSE(UnframeRecordFile("other\n", "bati-test v2", &body).ok());
  RecordLines lines("k 1 2\nrest of line\n");
  std::vector<std::string_view> toks;
  ASSERT_TRUE(lines.Next("k", 2, &toks));
  std::string_view rest;
  ASSERT_TRUE(lines.NextRest("rest", &rest));
  EXPECT_EQ(rest, "of line");
  EXPECT_TRUE(lines.AtEnd());
}

TEST(RecordFile, TokenHelpersAreStrict) {
  int64_t i = 0;
  uint64_t u = 0;
  EXPECT_TRUE(ParseInteger("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInteger("+1", &i));
  EXPECT_FALSE(ParseInteger(" 1", &i));
  EXPECT_FALSE(ParseInteger("-1", &u));
  EXPECT_FALSE(ParseInteger("18446744073709551616", &u));
  for (double v : {0.0, -0.0, 0.1 + 0.2, 1e-300, 4.9e-324, -1.5e300}) {
    std::string text;
    AppendHexDouble(&text, v);
    double back = 1.0;
    ASSERT_TRUE(ParseHexDouble(text, &back)) << text;
    EXPECT_EQ(std::signbit(back), std::signbit(v));
    EXPECT_EQ(back, v) << text;
  }
  double d = 0.0;
  for (const char* bad : {"nan", "inf", "1.5", "0x", "0x-1p+0", "0x1p+0 "}) {
    EXPECT_FALSE(ParseHexDouble(bad, &d)) << bad;
  }
}

TEST(RecordFile, ReadWholeFileDistinguishesMissingFiles) {
  EXPECT_EQ(ReadWholeFile("/no/such/file").status().code(),
            StatusCode::kNotFound);
  const std::string path = testing::TempDir() + "/bati_record_file_test";
  ASSERT_TRUE(AtomicWriteFile(path, "contents").ok());
  const StatusOr<std::string> text = ReadWholeFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "contents");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bati
