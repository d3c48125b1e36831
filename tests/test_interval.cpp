#include <gtest/gtest.h>

#include "util/interval.hpp"
#include "util/rng.hpp"

namespace {

using camus::util::IntervalSet;
using camus::util::Rng;

TEST(IntervalSet, EmptyAndAll) {
  EXPECT_TRUE(IntervalSet::empty().is_empty());
  EXPECT_TRUE(IntervalSet::all().is_all());
  EXPECT_TRUE(IntervalSet::all(255).is_all(255));
  EXPECT_FALSE(IntervalSet::all(255).is_all(256));
  EXPECT_FALSE(IntervalSet::empty().is_all());
  EXPECT_EQ(IntervalSet::range(5, 3), IntervalSet::empty());
}

TEST(IntervalSet, PointAndContains) {
  const auto p = IntervalSet::point(42);
  EXPECT_TRUE(p.contains(42));
  EXPECT_FALSE(p.contains(41));
  EXPECT_FALSE(p.contains(43));
  EXPECT_TRUE(p.is_single_point());
  EXPECT_EQ(p.cardinality(), 1u);
}

TEST(IntervalSet, LessGreaterBoundaries) {
  EXPECT_TRUE(IntervalSet::less_than(0).is_empty());
  EXPECT_EQ(IntervalSet::less_than(1), IntervalSet::point(0));
  EXPECT_TRUE(IntervalSet::greater_than(255, 255).is_empty());
  EXPECT_EQ(IntervalSet::greater_than(254, 255), IntervalSet::point(255));
  EXPECT_TRUE(IntervalSet::greater_than(300, 255).is_empty());
}

TEST(IntervalSet, UniteMergesAdjacent) {
  auto s = IntervalSet::range(0, 4).unite(IntervalSet::range(5, 9));
  EXPECT_EQ(s, IntervalSet::range(0, 9));
  EXPECT_EQ(s.intervals().size(), 1u);

  auto gap = IntervalSet::range(0, 4).unite(IntervalSet::range(6, 9));
  EXPECT_EQ(gap.intervals().size(), 2u);
}

TEST(IntervalSet, IntersectAndSubtract) {
  const auto a = IntervalSet::range(10, 20);
  const auto b = IntervalSet::range(15, 30);
  EXPECT_EQ(a.intersect(b), IntervalSet::range(15, 20));
  EXPECT_EQ(a.subtract(b), IntervalSet::range(10, 14));
  EXPECT_EQ(b.subtract(a), IntervalSet::range(21, 30));
  EXPECT_TRUE(a.intersect(IntervalSet::empty()).is_empty());
}

TEST(IntervalSet, ComplementWithinUniverse) {
  const auto s = IntervalSet::range(10, 20).unite(IntervalSet::point(40));
  const auto c = s.complement(255);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(9));
  EXPECT_FALSE(c.contains(10));
  EXPECT_FALSE(c.contains(20));
  EXPECT_TRUE(c.contains(21));
  EXPECT_FALSE(c.contains(40));
  EXPECT_TRUE(c.contains(255));
  EXPECT_EQ(c.complement(255), s);
}

TEST(IntervalSet, ComplementEdges) {
  EXPECT_TRUE(IntervalSet::all(99).complement(99).is_empty());
  EXPECT_TRUE(IntervalSet::empty().complement(99).is_all(99));
  // Set touching both universe ends.
  const auto s = IntervalSet::point(0).unite(IntervalSet::point(99));
  EXPECT_EQ(s.complement(99), IntervalSet::range(1, 98));
}

TEST(IntervalSet, ComplementAtUint64Max) {
  const auto s = IntervalSet::point(IntervalSet::kMax);
  const auto c = s.complement();
  EXPECT_EQ(c, IntervalSet::range(0, IntervalSet::kMax - 1));
  EXPECT_TRUE(IntervalSet::all().complement().is_empty());
}

TEST(IntervalSet, CardinalitySaturates) {
  EXPECT_EQ(IntervalSet::all().cardinality(), IntervalSet::kMax);
  EXPECT_EQ(IntervalSet::range(0, 9).cardinality(), 10u);
}

TEST(IntervalSet, SubsetChecks) {
  EXPECT_TRUE(IntervalSet::range(5, 8).is_subset_of(IntervalSet::range(0, 10)));
  EXPECT_FALSE(
      IntervalSet::range(5, 12).is_subset_of(IntervalSet::range(0, 10)));
  EXPECT_TRUE(IntervalSet::empty().is_subset_of(IntervalSet::empty()));
}

TEST(IntervalSet, ToString) {
  EXPECT_EQ(IntervalSet::empty().to_string(), "{}");
  EXPECT_EQ(IntervalSet::point(5).to_string(), "{5}");
  EXPECT_EQ(IntervalSet::range(1, 3).to_string(), "{[1,3]}");
}

// Property test: set algebra vs a bitset model over a small domain.
class IntervalSetModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetModel, MatchesBitsetSemantics) {
  Rng rng(GetParam());
  constexpr std::uint64_t kUmax = 63;

  auto random_set = [&](std::vector<bool>& model) {
    IntervalSet s;
    model.assign(kUmax + 1, false);
    const int n = static_cast<int>(rng.uniform(0, 4));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t lo = rng.uniform(0, kUmax);
      const std::uint64_t hi = rng.uniform(lo, kUmax);
      s = s.unite(IntervalSet::range(lo, hi));
      for (std::uint64_t v = lo; v <= hi; ++v) model[v] = true;
    }
    return s;
  };

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> ma, mb;
    const IntervalSet a = random_set(ma);
    const IntervalSet b = random_set(mb);

    const IntervalSet inter = a.intersect(b);
    const IntervalSet uni = a.unite(b);
    const IntervalSet sub = a.subtract(b);
    const IntervalSet comp = a.complement(kUmax);

    std::uint64_t card = 0;
    for (std::uint64_t v = 0; v <= kUmax; ++v) {
      EXPECT_EQ(a.contains(v), ma[v]) << v;
      EXPECT_EQ(inter.contains(v), ma[v] && mb[v]) << v;
      EXPECT_EQ(uni.contains(v), ma[v] || mb[v]) << v;
      EXPECT_EQ(sub.contains(v), ma[v] && !mb[v]) << v;
      EXPECT_EQ(comp.contains(v), !ma[v]) << v;
      card += ma[v] ? 1 : 0;
    }
    EXPECT_EQ(a.cardinality(), card);

    // Normalization invariants: sorted, disjoint, non-adjacent.
    const auto& ivs = a.intervals();
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      EXPECT_LE(ivs[i].lo, ivs[i].hi);
      if (i > 0) {
        EXPECT_GT(ivs[i].lo, ivs[i - 1].hi + 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetModel,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
