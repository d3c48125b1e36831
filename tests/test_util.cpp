// RNG, statistics, interner, flat map, and text-table utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "util/flat_map.hpp"
#include "util/intern.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace camus::util;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(124);
  bool all_equal = true;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) all_equal &= (a2.next() == c.next());
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform(3, 9);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, WeightedPicksByMass) {
  Rng rng(13);
  std::vector<double> w{1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfDistribution z(100, 1.0);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) {
    sum += z.pmf(k);
    if (k > 0) {
      EXPECT_LE(z.pmf(k), z.pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SamplingMatchesPmf) {
  Rng rng(19);
  ZipfDistribution z(10, 1.2);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z(rng)];
  for (std::size_t k = 0; k < 10; ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k), 0.01) << k;
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(CdfSampler, QuantilesAndFractions) {
  CdfSampler c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_NEAR(c.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(c.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(c.median(), 50.5, 1e-9);
  EXPECT_NEAR(c.fraction_below(50), 0.5, 1e-9);
  EXPECT_EQ(c.fraction_below(0), 0.0);
  EXPECT_EQ(c.fraction_below(1000), 1.0);

  const auto pts = c.cdf_points(10);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_NEAR(pts.back().first, 100.0, 1e-9);
  EXPECT_NEAR(pts.back().second, 1.0, 1e-9);
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_LE(pts[i - 1].first, pts[i].first);
}

TEST(CdfSampler, InterleavedAddAndQuery) {
  CdfSampler c;
  c.add(10);
  EXPECT_EQ(c.median(), 10.0);
  c.add(20);  // re-dirties after a query
  EXPECT_NEAR(c.median(), 15.0, 1e-9);
}

TEST(Interner, DenseIdsAndRoundTrip) {
  Interner in;
  const auto a = in.intern("alpha");
  const auto b = in.intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(in.intern("alpha"), a);
  EXPECT_EQ(in.name(b), "beta");
  EXPECT_EQ(in.lookup("alpha"), std::optional<std::uint64_t>(a));
  EXPECT_FALSE(in.lookup("gamma"));
  EXPECT_EQ(in.size(), 2u);
}

TEST(SymbolEncoding, RoundTripAndOrdering) {
  for (const char* s : {"GOOGL", "A", "ABCDEFGH", ""}) {
    EXPECT_EQ(decode_symbol(encode_symbol(s)), s);
  }
  // Space padding makes the encoding width-stable.
  EXPECT_EQ(encode_symbol("AAPL"), encode_symbol("AAPL    "));
  EXPECT_NE(encode_symbol("AAPL"), encode_symbol("AAPLX"));
}

TEST(FlatMap, InsertFindGrow) {
  struct H {
    std::size_t operator()(std::uint64_t k) const { return mix64(k); }
  };
  FlatMap<std::uint64_t, int, H> m(2);  // tiny: forces many grows
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert(i * 7, static_cast<int>(i));
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const int* v = m.find(i * 7);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(m.find(3), nullptr);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

TEST(FlatMapCounters, ProbesAndHits) {
  struct Hash {
    std::size_t operator()(int k) const noexcept {
      return static_cast<std::size_t>(k) * 0x9e3779b97f4a7c15ULL;
    }
  };
  FlatMap<int, int, Hash> m(4);
  m.insert(1, 10);
  EXPECT_EQ(m.probes(), 0u);
  EXPECT_NE(m.find(1), nullptr);   // hit
  EXPECT_EQ(m.find(2), nullptr);   // miss
  EXPECT_EQ(m.probes(), 2u);
  EXPECT_EQ(m.hits(), 1u);
  m.clear();
  // Lifetime totals: clear() keeps the counters.
  EXPECT_EQ(m.probes(), 2u);
  EXPECT_EQ(m.hits(), 1u);
}

TEST(Json, ParsesTelemetryShapes) {
  const auto r = json::parse(
      R"({"a":1,"b":-2.5e2,"s":"x\ny A","arr":[1,2,3],)"
      R"("nested":{"t":true,"f":false,"n":null}})");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const auto& v = r.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.member_u64("a"), 1u);
  EXPECT_DOUBLE_EQ(v.member_num("b"), -250.0);
  EXPECT_EQ(v.find("s")->string, "x\ny A");
  ASSERT_TRUE(v.find("arr")->is_array());
  EXPECT_EQ(v.find("arr")->array.size(), 3u);
  const auto* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->find("t")->boolean);
  EXPECT_FALSE(nested->find("f")->boolean);
  EXPECT_EQ(nested->find("n")->kind, json::Value::Kind::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("{\"a\":}").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
  EXPECT_FALSE(json::parse("{} trailing").ok());
  EXPECT_FALSE(json::parse("").ok());
}

TEST(Json, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, 0.1, 1e-9, 123456.789, 1.0 / 3.0}) {
    const std::string s = json::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

}  // namespace
