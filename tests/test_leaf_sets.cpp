// Leaf action sets are immutable objects shared by reference: the BDD
// terminal's set is the one the compiled program's leaf entries, its
// multicast groups, every copy of the program and the lowered data-plane
// structure point at. These tests pin that sharing, and that staging an
// update never writes into a set the running program references.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/compiled.hpp"
#include "table/delta.hpp"
#include "table/serialize.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace {

using namespace camus;

workload::ChurnParams churn_params(std::uint64_t seed) {
  workload::ChurnParams cp;
  cp.seed = seed;
  cp.subs.seed = seed ^ 0x5eedULL;
  cp.subs.n_subscriptions = 300;
  cp.subs.n_symbols = 40;
  cp.subs.n_hosts = 60;
  return cp;
}

compiler::CompileOptions exact_first() {
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  return opts;
}

// Runs `n` churn ops through `inc`, committing each; returns the deltas.
std::vector<compiler::IncrementalCompiler::Delta> churn_commits(
    compiler::IncrementalCompiler& inc, workload::ChurnGenerator& churn,
    std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId>& ids,
    int n) {
  std::vector<compiler::IncrementalCompiler::Delta> out;
  for (int i = 0; i < n; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      EXPECT_TRUE(inc.remove(ids.at(op.slot)));
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    EXPECT_TRUE(delta.ok()) << delta.error().to_string();
    if (!delta.ok()) break;
    out.push_back(std::move(delta).take());
  }
  return out;
}

TEST(LeafSets, PipelineCopySharesEverySet) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnGenerator churn(schema, churn_params(3));
  auto c = compiler::compile_rules(schema, churn.base(), exact_first());
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  const table::Pipeline& pipe = c.value().pipeline;
  ASSERT_GT(pipe.mcast.size(), 1u);

  const table::Pipeline copy = pipe;
  ASSERT_EQ(copy.leaf.entries().size(), pipe.leaf.entries().size());
  for (std::size_t i = 0; i < pipe.leaf.entries().size(); ++i)
    EXPECT_EQ(copy.leaf.entries()[i].actions, pipe.leaf.entries()[i].actions)
        << "entry " << i;
  ASSERT_EQ(copy.mcast.size(), pipe.mcast.size());
  for (std::uint32_t g = 0; g < pipe.mcast.size(); ++g)
    EXPECT_EQ(copy.mcast.set(g), pipe.mcast.set(g)) << "group " << g;

  // A group holds the set of the first leaf that used its ports, in a
  // compiled program and in one parsed from its image.
  auto expect_groups_share = [](const table::Pipeline& p) {
    std::set<std::uint32_t> seen;
    for (const table::LeafEntry& e : p.leaf.entries()) {
      ASSERT_NE(e.actions, nullptr);
      if (!e.mcast_group || !seen.insert(*e.mcast_group).second) continue;
      EXPECT_EQ(p.mcast.set(*e.mcast_group), e.actions);
    }
    EXPECT_EQ(seen.size(), p.mcast.size());
  };
  expect_groups_share(pipe);
  auto parsed = table::deserialize_pipeline(table::serialize_pipeline(pipe));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  expect_groups_share(parsed.value());

  // The lowered program points at the same sets.
  const table::CompiledPipeline lowered(copy);
  ASSERT_TRUE(lowered.valid());
  for (std::uint32_t i = 0; i < pipe.leaf.entries().size(); ++i)
    EXPECT_EQ(lowered.actions(i), pipe.leaf.entries()[i].actions.get());
}

TEST(LeafSets, DefaultEntryIsTheSharedDropSet) {
  const table::LeafEntry a, b;
  ASSERT_NE(a.actions, nullptr);
  EXPECT_TRUE(a.actions->is_drop());
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.actions, lang::drop_actions());
}

// After every commit, each leaf entry of the compiler's diff base is its
// BDD terminal's own set: a packet's leaf entry and the terminal the BDD
// sends it to are one object.
TEST(LeafSets, DiffBaseSharesBddTerminals) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnGenerator churn(schema, churn_params(5));
  compiler::IncrementalCompiler inc(schema, exact_first());
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());

  util::Rng rng(9);
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      ASSERT_EQ(churn_commits(inc, churn, ids, 1).size(), 1u);
    }
    const bdd::BddManager& mgr = *inc.manager();
    std::set<const lang::ActionSet*> terminals;
    for (std::uint32_t t = 0; t < mgr.terminal_count(); ++t)
      terminals.insert(mgr.terminal_set(bdd::NodeRef::terminal(t)).get());
    const table::Pipeline& pipe = *inc.pipeline().value();
    for (const table::LeafEntry& e : pipe.leaf.entries())
      EXPECT_TRUE(terminals.count(e.actions.get()))
          << "round " << round << " state " << e.state;

    for (int probe = 0; probe < 200; ++probe) {
      lang::Env env;
      env.fields = {rng.uniform(0, 1000),
                    util::encode_symbol(rng.pick(churn.symbols())),
                    rng.uniform(0, 1200)};
      env.states.assign(schema.state_vars().size(), 0);
      const lang::ActionSet& want = mgr.evaluate(inc.root(), env);
      const table::LeafEntry* got = pipe.evaluate(env);
      if (got) {
        EXPECT_EQ(got->actions.get(), &want) << "round " << round;
      } else {
        EXPECT_TRUE(want.is_drop()) << "round " << round;
      }
    }
  }
}

// Switch::stage applies ops to a copy of the running program. The copy
// shares the running program's sets; the ops replace entries, they never
// write into a set, so the running program reads exactly what it read
// before, staged or committed.
TEST(LeafSets, StageNeverMutatesRunningSets) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnGenerator churn(schema, churn_params(7));
  compiler::IncrementalCompiler inc(schema, exact_first());
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());

  std::size_t leaf_ops = 0;
  for (const auto& delta : churn_commits(inc, churn, ids, 12)) {
    ASSERT_FALSE(delta.requires_reprogram);
    const auto running = sw.pipeline_snapshot();
    std::vector<lang::ActionSet> before;
    for (const table::LeafEntry& e : running->leaf.entries())
      before.push_back(*e.actions);
    auto expect_unchanged = [&](const char* when) {
      for (std::size_t i = 0; i < before.size(); ++i)
        ASSERT_EQ(*running->leaf.entries()[i].actions, before[i])
            << when << ", entry " << i;
    };

    auto staged = sw.stage(delta.ops);
    ASSERT_TRUE(staged.ok()) << staged.error().to_string();
    expect_unchanged("staged");
    ASSERT_TRUE(sw.commit(staged.value()).ok());
    expect_unchanged("committed");

    // Entries no leaf op named are the running program's own sets.
    std::set<table::StateId> touched;
    for (const table::EntryOp& op : delta.ops)
      if (op.is_leaf()) touched.insert(op.state);
    leaf_ops += touched.size();
    const auto next = sw.pipeline_snapshot();
    for (const table::LeafEntry& e : running->leaf.entries()) {
      if (touched.count(e.state)) continue;
      const table::LeafEntry* now = next->leaf.lookup(e.state);
      ASSERT_NE(now, nullptr) << "state " << e.state;
      EXPECT_EQ(now->actions, e.actions) << "state " << e.state;
    }
  }
  EXPECT_GT(leaf_ops, 0u);
}

}  // namespace
