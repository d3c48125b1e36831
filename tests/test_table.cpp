// Table IR: lookup semantics, multicast groups, TCAM cost model, budgets.
#include <gtest/gtest.h>

#include "table/pipeline.hpp"
#include "table/table.hpp"
#include "util/rng.hpp"

namespace {

using namespace camus::table;
using camus::lang::Subject;

// The next state a lookup yields, or nullopt on a miss.
std::optional<StateId> next_of(const Table& t, StateId state,
                               std::uint64_t value) {
  const Entry* e = t.lookup(state, value);
  if (!e) return std::nullopt;
  return e->next_state;
}

TEST(ValueMatchTest, Semantics) {
  EXPECT_TRUE(ValueMatch::any().matches(0));
  EXPECT_TRUE(ValueMatch::any().matches(~0ULL));
  EXPECT_TRUE(ValueMatch::exact(5).matches(5));
  EXPECT_FALSE(ValueMatch::exact(5).matches(6));
  EXPECT_TRUE(ValueMatch::range(3, 7).matches(3));
  EXPECT_TRUE(ValueMatch::range(3, 7).matches(7));
  EXPECT_FALSE(ValueMatch::range(3, 7).matches(8));
  EXPECT_EQ(ValueMatch::any().to_string(), "*");
  EXPECT_EQ(ValueMatch::exact(5).to_string(), "5");
  EXPECT_EQ(ValueMatch::range(1, 2).to_string(), "[1,2]");
}

TEST(TableTest, LookupPrecedence) {
  Table t("t", Subject::field(0), MatchKind::kRange, 16);
  t.add_entry({1, ValueMatch::exact(10), 100});
  t.add_entry({1, ValueMatch::range(0, 50), 200});
  t.add_entry({1, ValueMatch::any(), 300});
  // Range entries must be disjoint; exact(10) and range [0,50] coexist
  // because exact wins first.

  EXPECT_EQ(next_of(t, 1, 10), std::optional<StateId>(100));  // exact first
  EXPECT_EQ(next_of(t, 1, 20), std::optional<StateId>(200));  // range
  EXPECT_EQ(next_of(t, 1, 60), std::optional<StateId>(300));  // wildcard
  EXPECT_EQ(next_of(t, 2, 10), std::nullopt);                 // unknown state
  // The matched entry itself comes back, so a caller can read its match.
  ASSERT_NE(t.lookup(1, 20), nullptr);
  EXPECT_EQ(t.lookup(1, 20)->match, ValueMatch::range(0, 50));
}

TEST(TableTest, RangeBinarySearch) {
  Table t("t", Subject::field(0), MatchKind::kRange, 16);
  t.add_entry({0, ValueMatch::range(10, 19), 1});
  t.add_entry({0, ValueMatch::range(30, 39), 2});
  t.add_entry({0, ValueMatch::range(20, 29), 3});
  EXPECT_EQ(next_of(t, 0, 15), std::optional<StateId>(1));
  EXPECT_EQ(next_of(t, 0, 25), std::optional<StateId>(3));
  EXPECT_EQ(next_of(t, 0, 35), std::optional<StateId>(2));
  EXPECT_EQ(next_of(t, 0, 9), std::nullopt);
  EXPECT_EQ(next_of(t, 0, 40), std::nullopt);
}

TEST(TableTest, LookupRuleOnCorruptEntries) {
  // Duplicates and overlaps fail validate(), yet a bit-flipped program
  // still classifies: lookup follows the lowered engine's rule.
  Table t("t", Subject::field(0), MatchKind::kRange, 16);
  t.add_entry({0, ValueMatch::exact(5), 1});
  t.add_entry({0, ValueMatch::exact(5), 2});      // last exact wins
  t.add_entry({0, ValueMatch::range(10, 40), 3});
  t.add_entry({0, ValueMatch::range(20, 25), 4});  // largest lo <= value
  t.add_entry({0, ValueMatch::range(10, 12), 5});  // ties lo 10: later wins
  t.add_entry({0, ValueMatch::any(), 6});
  t.add_entry({0, ValueMatch::any(), 7});         // last wildcard wins
  EXPECT_FALSE(t.validate().ok());
  EXPECT_EQ(next_of(t, 0, 5), std::optional<StateId>(2));
  EXPECT_EQ(next_of(t, 0, 11), std::optional<StateId>(5));
  // [10,12] is the only lo-10 range that counts, and it stops at 12.
  EXPECT_EQ(next_of(t, 0, 15), std::optional<StateId>(7));
  EXPECT_EQ(next_of(t, 0, 22), std::optional<StateId>(4));
  // [20,25] has the largest lo <= 30 and misses it; [10,40] is not tried.
  EXPECT_EQ(next_of(t, 0, 30), std::optional<StateId>(7));
  EXPECT_EQ(next_of(t, 0, 3), std::optional<StateId>(7));
}

TEST(TableTest, OverlappingRangesRejectedByValidate) {
  Table t("t", Subject::field(0), MatchKind::kRange, 16);
  t.add_entry({0, ValueMatch::range(10, 20), 1});
  t.add_entry({0, ValueMatch::range(15, 25), 2});
  auto r = t.validate();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("overlapping"), std::string::npos);

  Table ok("t", Subject::field(0), MatchKind::kRange, 16);
  ok.add_entry({0, ValueMatch::range(10, 20), 1});
  ok.add_entry({0, ValueMatch::range(21, 25), 2});
  ok.add_entry({1, ValueMatch::range(15, 25), 2});  // other state: disjoint
  EXPECT_TRUE(ok.validate().ok());
}

TEST(MulticastGroupsTest, InternDeduplicates) {
  MulticastGroups g;
  const auto a = g.intern({1, 2, 3});
  const auto b = g.intern({1, 2, 3});
  const auto c = g.intern({1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.ports(a), (std::vector<std::uint16_t>{1, 2, 3}));
}

TEST(LeafTableTest, LookupAndMiss) {
  LeafTable leaf;
  LeafEntry e;
  e.state = 7;
  e.actions = std::make_shared<const camus::lang::ActionSet>(
      camus::lang::ActionSet{{3}, {}});
  leaf.add_entry(e);
  ASSERT_NE(leaf.lookup(7), nullptr);
  EXPECT_EQ(leaf.lookup(7)->actions->ports,
            (std::vector<std::uint16_t>{3}));
  EXPECT_EQ(leaf.lookup(8), nullptr);
}

TEST(TcamExpansion, KnownCases) {
  // Full domain: one wildcard entry.
  EXPECT_EQ(tcam_entries_for_range(0, 255, 8), 1u);
  // Single point: one entry.
  EXPECT_EQ(tcam_entries_for_range(7, 7, 8), 1u);
  // Aligned power-of-two block: one entry.
  EXPECT_EQ(tcam_entries_for_range(16, 31, 8), 1u);
  // Classic worst-ish case [1, 254] on 8 bits: 14 entries.
  EXPECT_EQ(tcam_entries_for_range(1, 254, 8), 14u);
  // Empty.
  EXPECT_EQ(tcam_entries_for_range(5, 4, 8), 0u);
  // Clipped to width.
  EXPECT_EQ(tcam_entries_for_range(0, 1000, 8), 1u);
  EXPECT_EQ(tcam_entries_for_range(300, 1000, 8), 0u);
}

TEST(TcamExpansion, CoversExactlyTheRange) {
  // Cross-check the greedy cover against brute force on random ranges:
  // count entries and verify the bound O(2w - 2).
  camus::util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t lo = rng.uniform(0, 255);
    const std::uint64_t hi = rng.uniform(lo, 255);
    const std::uint64_t n = tcam_entries_for_range(lo, hi, 8);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 14u);  // 2*8 - 2
  }
  EXPECT_EQ(tcam_entries_for_range(0, ~0ULL, 64), 1u);
}

TEST(Resources, TableAccounting) {
  Table exact("e", Subject::field(0), MatchKind::kExact, 32);
  exact.add_entry({0, ValueMatch::exact(1), 1});
  exact.add_entry({0, ValueMatch::exact(2), 2});
  exact.add_entry({0, ValueMatch::any(), 3});
  const auto eu = exact.resources();
  EXPECT_EQ(eu.sram_entries, 2u);
  EXPECT_EQ(eu.tcam_entries, 1u);  // wildcard fallback
  EXPECT_EQ(eu.logical_entries, 3u);

  Table range("r", Subject::field(0), MatchKind::kRange, 8);
  range.add_entry({0, ValueMatch::range(1, 254), 1});  // 14 TCAM entries
  range.add_entry({0, ValueMatch::exact(0), 2});       // 1 TCAM (point)
  const auto ru = range.resources();
  EXPECT_EQ(ru.sram_entries, 0u);
  EXPECT_EQ(ru.tcam_entries, 15u);
}

TEST(Resources, BudgetFits) {
  ResourceBudget budget;
  ResourceUsage ok;
  ok.stages = 3;
  ok.sram_entries = 1000;
  ok.tcam_entries = 1000;
  ok.multicast_groups = 10;
  EXPECT_TRUE(budget.fits(ok));

  ResourceUsage too_many_stages = ok;
  too_many_stages.stages = 99;
  EXPECT_FALSE(budget.fits(too_many_stages));

  ResourceUsage too_much_tcam = ok;
  too_much_tcam.tcam_entries = budget.tcam_entries_per_stage * 13;
  EXPECT_FALSE(budget.fits(too_much_tcam));
}

TEST(PipelineTest, MissKeepsStateThroughStages) {
  // A packet whose state has no entry in an intermediate table must pass
  // through unchanged (the paper's field-skipping behaviour).
  Pipeline pipe;
  Table t1("f0", Subject::field(0), MatchKind::kRange, 8);
  t1.add_entry({0, ValueMatch::range(0, 9), 5});
  Table t2("f1", Subject::field(1), MatchKind::kRange, 8);
  t2.add_entry({5, ValueMatch::range(0, 9), 6});
  pipe.tables.push_back(std::move(t1));
  pipe.tables.push_back(std::move(t2));
  LeafEntry leaf;
  leaf.state = 6;
  leaf.actions = std::make_shared<const camus::lang::ActionSet>(
      camus::lang::ActionSet{{1}, {}});
  pipe.leaf.add_entry(leaf);

  camus::lang::Env env;
  env.fields = {5, 5};
  EXPECT_EQ(pipe.evaluate_actions(env).ports,
            (std::vector<std::uint16_t>{1}));
  env.fields = {50, 5};  // miss in t1: state stays 0, t2 misses, leaf drops
  EXPECT_TRUE(pipe.evaluate_actions(env).is_drop());
  env.fields = {5, 50};  // t1 hits, t2 misses -> state 5, leaf miss
  EXPECT_TRUE(pipe.evaluate_actions(env).is_drop());
}

}  // namespace
