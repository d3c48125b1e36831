// Incremental compilation: semantics must match batch compilation; small
// changes must produce small deltas; state ids must stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "compiler/p4gen.hpp"
#include "lang/eval.hpp"
#include "lang/parser.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "table/serialize.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "verify/fuzz_harness.hpp"
#include "workload/churn.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;
using compiler::IncrementalCompiler;

lang::Env itch_env(std::uint64_t shares, const std::string& stock,
                   std::uint64_t price) {
  lang::Env env;
  env.fields = {shares, util::encode_symbol(stock), price};
  env.states = {0, 0};
  return env;
}

TEST(Incremental, FirstCommitIsAllAdds) {
  IncrementalCompiler inc(spec::make_itch_schema());
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  ASSERT_TRUE(inc.add_source("stock == MSFT : fwd(2)").ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok()) << delta.error().to_string();
  EXPECT_EQ(delta.value().reused_entries, 0u);
  EXPECT_EQ(delta.value().adds(), delta.value().total_entries);
  EXPECT_EQ(delta.value().removes(), 0u);
}

TEST(Incremental, MatchesBatchCompilation) {
  auto schema = spec::make_itch_schema();
  const std::vector<std::string> sources = {
      "stock == GOOGL : fwd(1)",
      "stock == MSFT and price > 100 : fwd(2)",
      "shares > 500 or price < 10 : fwd(3)",
      "!(stock == AAPL) and shares < 50 : fwd(4)",
  };

  IncrementalCompiler inc(spec::make_itch_schema());
  std::vector<lang::BoundRule> batch_rules;
  for (const auto& s : sources) {
    ASSERT_TRUE(inc.add_source(s).ok()) << s;
    auto parsed = lang::parse_rule(s);
    ASSERT_TRUE(parsed.ok());
    auto bound = lang::bind_rule(parsed.value(), schema);
    ASSERT_TRUE(bound.ok());
    batch_rules.push_back(std::move(bound).take());
  }
  ASSERT_TRUE(inc.commit().ok());
  auto batch = compiler::compile_rules(schema, batch_rules);
  ASSERT_TRUE(batch.ok());

  util::Rng rng(17);
  const std::vector<std::string> syms = {"GOOGL", "MSFT", "AAPL", "X"};
  for (int trial = 0; trial < 500; ++trial) {
    const auto env = itch_env(rng.uniform(0, 1000), rng.pick(syms),
                              rng.uniform(0, 200));
    EXPECT_EQ(inc.pipeline().value()->evaluate_actions(env),
              batch.value().pipeline.evaluate_actions(env))
        << trial;
  }
}

TEST(Incremental, SmallChangeSmallDelta) {
  auto schema = spec::make_itch_schema();
  // Exact-match field first: a new-symbol subscription then only touches
  // its own branch. With a range field at the root, a new threshold
  // legitimately reshapes the root component and churns it.
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  IncrementalCompiler inc(spec::make_itch_schema(), opts);
  workload::ItchSubsParams p;
  p.seed = 5;
  p.n_subscriptions = 500;
  p.n_symbols = 50;
  p.n_hosts = 50;
  auto subs = workload::generate_itch_subscriptions(schema, p);
  for (auto& r : subs.rules) inc.add(std::move(r));
  auto first = inc.commit();
  ASSERT_TRUE(first.ok());
  const std::size_t total = first.value().total_entries;
  ASSERT_GT(total, 100u);

  // Adding one subscription for a brand-new symbol must touch only a
  // handful of entries.
  auto id = inc.add_source("stock == ZZZZ and price > 42 : fwd(7)");
  ASSERT_TRUE(id.ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_GT(delta.value().reused_entries, total * 9 / 10);
  EXPECT_LT(delta.value().ops.size(), 20u);
  EXPECT_GT(delta.value().adds(), 0u);

  // Removing it again restores the original table contents.
  ASSERT_TRUE(inc.remove(id.value()));
  auto delta2 = inc.commit();
  ASSERT_TRUE(delta2.ok());
  EXPECT_EQ(delta2.value().total_entries, total);
  EXPECT_EQ(delta2.value().adds(), 0u);
  EXPECT_GT(delta2.value().removes(), 0u);
}

TEST(Incremental, NoChangeYieldsEmptyDelta) {
  IncrementalCompiler inc(spec::make_itch_schema());
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  ASSERT_TRUE(inc.commit().ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta.value().ops.empty());
  EXPECT_EQ(delta.value().reused_entries, delta.value().total_entries);
}

TEST(Incremental, RemoveUnknownIdReturnsFalse) {
  IncrementalCompiler inc(spec::make_itch_schema());
  EXPECT_FALSE(inc.remove(99));
}

TEST(Incremental, RejectsBadSource) {
  IncrementalCompiler inc(spec::make_itch_schema());
  EXPECT_FALSE(inc.add_source("nosuch == 5 : fwd(1)").ok());
  EXPECT_FALSE(inc.add_source("stock == : fwd(1)").ok());
  EXPECT_EQ(inc.subscription_count(), 0u);
}

TEST(Incremental, PipelineBeforeCommitIsE122) {
  IncrementalCompiler inc(spec::make_itch_schema());
  auto p = inc.pipeline();
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.error().code, "E122");
}

TEST(Incremental, EmptyCommitDropsEverything) {
  IncrementalCompiler inc(spec::make_itch_schema());
  auto id = inc.add_source("stock == GOOGL : fwd(1)");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(inc.commit().ok());
  ASSERT_TRUE(inc.remove(id.value()));
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().total_entries, 0u);
  const auto env = itch_env(1, "GOOGL", 1);
  EXPECT_TRUE(inc.pipeline().value()->evaluate_actions(env).is_drop());
}

TEST(Incremental, SwitchReprogramKeepsRegisters) {
  auto schema = spec::make_itch_schema();
  IncrementalCompiler inc(spec::make_itch_schema());
  ASSERT_TRUE(
      inc.add_source("stock == AAPL : fwd(1); update(my_counter)").ok());
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());

  const auto env = itch_env(1, "AAPL", 1);
  (void)sw.classify(env.fields, 10);
  (void)sw.classify(env.fields, 20);
  EXPECT_EQ(sw.registers().read(0, 50), 2u);

  // Add a rule, reprogram: counter state survives the table update.
  ASSERT_TRUE(inc.add_source("stock == MSFT : fwd(2)").ok());
  ASSERT_TRUE(inc.commit().ok());
  sw.reprogram(*inc.pipeline().value());
  EXPECT_EQ(sw.registers().read(0, 50), 2u);
  EXPECT_EQ(sw.classify(itch_env(1, "MSFT", 1).fields, 60).ports,
            (std::vector<std::uint16_t>{2}));
  // Another AAPL message keeps counting where the old pipeline left off.
  (void)sw.classify(env.fields, 70);
  EXPECT_EQ(sw.registers().read(0, 70), 3u);
}

TEST(Incremental, OpToStringFormats) {
  IncrementalCompiler inc(spec::make_itch_schema());
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_FALSE(delta.value().ops.empty());
  for (const auto& op : delta.value().ops) {
    EXPECT_EQ(op.to_string().substr(0, 4), "add ");
  }
}

// Property: a random sequence of adds/removes with commits in between is
// always equivalent to batch-compiling the surviving rule set.
class IncrementalChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalChurn, AlwaysMatchesBatch) {
  util::Rng rng(GetParam());
  auto schema = spec::make_itch_schema();
  IncrementalCompiler inc(spec::make_itch_schema());

  std::map<IncrementalCompiler::SubscriptionId, lang::BoundRule> alive;
  const std::vector<std::string> syms = {"AA", "BB", "CC", "DD", "EE"};

  for (int round = 0; round < 6; ++round) {
    // Random adds.
    const std::size_t n_adds = 1 + rng.uniform(0, 4);
    for (std::size_t i = 0; i < n_adds; ++i) {
      const std::string text =
          "stock == " + rng.pick(syms) + " and price > " +
          std::to_string(rng.uniform(0, 100)) + " : fwd(" +
          std::to_string(1 + rng.uniform(0, 9)) + ")";
      auto parsed = lang::parse_rule(text);
      ASSERT_TRUE(parsed.ok());
      auto bound = lang::bind_rule(parsed.value(), schema);
      ASSERT_TRUE(bound.ok());
      const auto id = inc.add(bound.value());
      alive.emplace(id, std::move(bound).take());
    }
    // Random removes.
    while (!alive.empty() && rng.chance(0.3)) {
      auto it = alive.begin();
      std::advance(it, rng.uniform(0, alive.size() - 1));
      ASSERT_TRUE(inc.remove(it->first));
      alive.erase(it);
    }

    ASSERT_TRUE(inc.commit().ok());
    std::vector<lang::BoundRule> batch_rules;
    for (const auto& [id, r] : alive) batch_rules.push_back(r);
    auto batch = compiler::compile_rules(schema, batch_rules);
    ASSERT_TRUE(batch.ok());

    for (int trial = 0; trial < 100; ++trial) {
      const auto env = itch_env(rng.uniform(0, 10), rng.pick(syms),
                                rng.uniform(0, 120));
      ASSERT_EQ(inc.pipeline().value()->evaluate_actions(env),
                batch.value().pipeline.evaluate_actions(env))
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChurn,
                         ::testing::Values(61, 62, 63, 64));

// --- Union tree -------------------------------------------------------------
// Each subscription owns one fixed leaf of a persistent tree of partial
// unions, and a commit re-unites only the changed leaves' paths to the
// root. So the union work of a commit follows the change, not the size of
// the program or the position of the removed rule.

std::uint64_t union_misses(const bdd::CacheStats& c) {
  return (c.unite_probes - c.unite_hits) +
         (c.unite_res_probes - c.unite_res_hits);
}

// Union memo misses per single-subscription remove commit on a
// 1,500-rule churn population (deterministic): the median is 915 on the
// union tree, and the bound is twice that. A flat pairwise union over the
// compacted rule order, which re-pairs every rule after the removed one,
// reads 6,992.
TEST(IncrementalUnionTree, SingleRemoveUnionWorkFollowsTheChange) {
  const auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  workload::ChurnParams cp;
  cp.seed = 20260806;
  cp.subs.seed = cp.seed ^ 0x5eedULL;
  cp.subs.n_subscriptions = 1500;
  cp.subs.n_symbols = 100;
  cp.subs.n_hosts = 200;
  workload::ChurnGenerator churn(schema, cp);
  IncrementalCompiler inc(schema, opts);
  std::vector<IncrementalCompiler::SubscriptionId> ids;
  for (const auto& r : churn.base()) ids.push_back(inc.add(r));
  auto base = inc.commit();
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  std::uint64_t before = union_misses(base.value().stats.cache);

  util::Rng rng(7);
  std::vector<std::uint64_t> per_commit;
  for (int i = 0; i < 15; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform(0, ids.size() - 1));
    ASSERT_TRUE(inc.remove(ids[k]));
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
    auto d = inc.commit();
    ASSERT_TRUE(d.ok()) << d.error().to_string();
    const std::uint64_t after = union_misses(d.value().stats.cache);
    per_commit.push_back(after - before);
    before = after;
  }
  std::sort(per_commit.begin(), per_commit.end());
  const std::uint64_t median = per_commit[per_commit.size() / 2];
  EXPECT_LT(median, 2 * 915u) << "median union memo misses per remove commit";
}

// Re-adding a removed rule puts it back in its freed leaf, so the tree
// holds the pairs it held before: every union is a memo hit, the commit
// creates no BDD node, and the root is the old root. A rule placed in a
// fresh leaf would pair differently and create nodes.
TEST(IncrementalUnionTree, RemoveThenAddReusesTheFreedLeaf) {
  const auto schema = spec::make_itch_schema();
  const std::vector<std::string> sources = {
      "stock == GOOGL : fwd(1)", "stock == MSFT and price > 10 : fwd(2)",
      "price > 500 : fwd(3)", "shares < 20 : fwd(4)",
      "stock == AAPL or shares > 900 : fwd(5)"};
  IncrementalCompiler inc(schema);
  std::vector<IncrementalCompiler::SubscriptionId> ids;
  for (const auto& src : sources) {
    auto id = inc.add_source(src);
    ASSERT_TRUE(id.ok()) << src;
    ids.push_back(id.value());
  }
  auto base = inc.commit();
  ASSERT_TRUE(base.ok());
  const bdd::NodeRef root = inc.root();
  const std::size_t nodes = base.value().stats.cache.unique_nodes;

  // Remove then add in one commit.
  ASSERT_TRUE(inc.remove(ids[1]));
  ASSERT_TRUE(inc.add_source(sources[1]).ok());
  auto same = inc.commit();
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value().stats.cache.unique_nodes, nodes);
  EXPECT_EQ(inc.root(), root);
  EXPECT_TRUE(same.value().ops.empty());

  // Remove, commit, then add back: the re-add creates no node.
  ASSERT_TRUE(inc.remove(ids[3]));
  auto removed = inc.commit();
  ASSERT_TRUE(removed.ok());
  EXPECT_NE(inc.root(), root);
  ASSERT_TRUE(inc.add_source(sources[3]).ok());
  auto readded = inc.commit();
  ASSERT_TRUE(readded.ok());
  EXPECT_EQ(readded.value().stats.cache.unique_nodes,
            removed.value().stats.cache.unique_nodes);
  EXPECT_EQ(inc.root(), root);

  // A different rule in a freed leaf classifies like the live rules.
  ASSERT_TRUE(inc.remove(ids[2]));
  ASSERT_TRUE(inc.add_source("price < 5 : fwd(8)").ok());
  ASSERT_TRUE(inc.commit().ok());
  std::vector<lang::BoundRule> live;
  for (const std::string& src :
       {sources[0], sources[1], sources[3], sources[4],
        std::string("price < 5 : fwd(8)")})
    live.push_back(lang::bind_rule(lang::parse_rule(src).value(), schema)
                       .value());
  util::Rng rng(3);
  const std::vector<std::string> syms = {"GOOGL", "MSFT", "AAPL", "X"};
  for (int trial = 0; trial < 500; ++trial) {
    const auto env = itch_env(rng.uniform(0, 1000), rng.pick(syms),
                              rng.uniform(0, 1000));
    ASSERT_EQ(inc.pipeline().value()->evaluate_actions(env),
              lang::brute_eval_rules(live, env))
        << trial;
  }
}

TEST(IncrementalUnionTree, RemovingEverySubscriptionCommitsDropAll) {
  IncrementalCompiler inc(spec::make_itch_schema());
  std::vector<IncrementalCompiler::SubscriptionId> ids;
  for (int i = 0; i < 7; ++i) {
    auto id = inc.add_source("price > " + std::to_string(100 * i) +
                             " : fwd(" + std::to_string(i + 1) + ")");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  auto first = inc.commit();
  ASSERT_TRUE(first.ok());
  ASSERT_GT(inc.pipeline().value()->leaf.entries().size(), 0u);

  for (const auto id : ids) ASSERT_TRUE(inc.remove(id));
  auto none = inc.commit();
  ASSERT_TRUE(none.ok()) << none.error().to_string();
  EXPECT_EQ(inc.subscription_count(), 0u);
  EXPECT_EQ(inc.root(), inc.manager()->drop());
  const table::Pipeline& p = *inc.pipeline().value();
  EXPECT_TRUE(p.leaf.entries().empty());
  EXPECT_GT(none.value().removes(), 0u);
  EXPECT_EQ(none.value().adds(), 0u);
  for (std::uint64_t price : {0u, 150u, 650u, 5000u})
    EXPECT_TRUE(p.evaluate_actions(itch_env(1, "GOOGL", price)).is_drop());

  // The empty tree takes subscriptions again.
  ASSERT_TRUE(inc.add_source("price > 250 : fwd(9)").ok());
  ASSERT_TRUE(inc.commit().ok());
  const lang::ActionSet& actions =
      inc.pipeline().value()->evaluate_actions(itch_env(1, "X", 300));
  EXPECT_EQ(actions.ports, std::vector<std::uint16_t>{9});
}

// Waves of adds and removes that take the tree from 4 to 32 leaves (23 in
// use, freed leaves reused): after every commit the program classifies
// like a fresh compiler given only the live rules, and like the
// brute-force evaluator.
TEST(IncrementalUnionTree, DoubledTreeClassifiesLikeAFreshCompiler) {
  const auto schema = spec::make_itch_schema();
  workload::ItchSubsParams p;
  p.seed = 9;
  p.n_subscriptions = 40;
  p.n_symbols = 6;
  p.n_hosts = 12;
  p.round_robin = false;
  const auto pool = workload::generate_itch_subscriptions(schema, p).rules;
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  IncrementalCompiler inc(schema, opts);
  std::vector<std::pair<IncrementalCompiler::SubscriptionId, std::size_t>> live;
  std::size_t next = 0;
  util::Rng rng(9);
  const std::vector<std::string> syms =
      workload::generate_itch_subscriptions(schema, p).symbols;
  const struct { int adds, removes; } waves[] = {
      {3, 0}, {5, 0}, {2, 4}, {12, 1}, {0, 6}, {14, 2}};
  for (const auto& wave : waves) {
    for (int r = 0; r < wave.removes && !live.empty(); ++r) {
      const auto k = static_cast<std::size_t>(rng.uniform(0, live.size() - 1));
      ASSERT_TRUE(inc.remove(live[k].first));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    for (int a = 0; a < wave.adds; ++a, ++next)
      live.emplace_back(inc.add(pool[next]), next);
    ASSERT_TRUE(inc.commit().ok());

    std::vector<lang::BoundRule> rules;
    IncrementalCompiler fresh(schema, opts);
    for (const auto& [id, k] : live) {
      rules.push_back(pool[k]);
      fresh.add(pool[k]);
    }
    ASSERT_TRUE(fresh.commit().ok());
    for (int trial = 0; trial < 300; ++trial) {
      const auto env = itch_env(rng.uniform(0, 1000), rng.pick(syms),
                                rng.uniform(0, 1000));
      const auto& got = inc.pipeline().value()->evaluate_actions(env);
      ASSERT_EQ(got, fresh.pipeline().value()->evaluate_actions(env));
      ASSERT_EQ(got, lang::brute_eval_rules(rules, env));
    }
  }
}

// --- Emitted delta ---------------------------------------------------------
// A commit runs Algorithm 1 only for the In nodes it changed and emits the
// ops from that walk. The differential oracle (the method of "Testing
// Compilers for Programmable Switches Through Switch Hardware
// Simulation"): a second compiler driven by the same adds and removes,
// whose diff base is restored before every commit, so that it regenerates
// every table and diffs them against its last program. Both must agree op
// for op (verify::delta_mismatch).

using Delta = IncrementalCompiler::Delta;

// Two compilers in lockstep: `inc` emits its deltas, `oracle` regenerates.
struct DeltaPair {
  DeltaPair(const spec::Schema& schema, const compiler::CompileOptions& opts)
      : inc(schema, opts), oracle(schema, opts) {}

  // Both compilers number their subscriptions alike.
  IncrementalCompiler::SubscriptionId add(const lang::BoundRule& rule) {
    oracle.add(rule);
    return inc.add(rule);
  }
  IncrementalCompiler::SubscriptionId add(const spec::Schema& schema,
                                          const std::string& source) {
    return add(lang::bind_rule(lang::parse_rule(source).value(), schema)
                   .value());
  }
  void remove(IncrementalCompiler::SubscriptionId id) {
    EXPECT_TRUE(inc.remove(id));
    EXPECT_TRUE(oracle.remove(id));
  }

  // Commits both; `want` receives the oracle's delta. Fails the test when
  // the two disagree.
  util::Result<Delta> commit(Delta* want = nullptr) {
    if (oracle.has_pipeline())
      oracle.restore_installed(*oracle.pipeline().value());
    auto got = inc.commit();
    auto expected = oracle.commit();
    EXPECT_EQ(got.ok(), expected.ok());
    if (got.ok() && expected.ok()) {
      EXPECT_EQ(verify::delta_mismatch(got.value(), expected.value()), "");
      if (want) *want = expected.value();
    }
    return got;
  }

  IncrementalCompiler inc;
  IncrementalCompiler oracle;
};

compiler::CompileOptions exact_first_opts() {
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  return opts;
}

// Installs a delta: the ops, or the full image when they cannot express it.
void install(switchsim::Switch& sw, const Delta& d,
             const table::Pipeline& image) {
  if (d.requires_reprogram) {
    sw.reprogram(image);
  } else {
    auto applied = sw.apply_delta(d.ops);
    ASSERT_TRUE(applied.ok()) << applied.error().to_string();
  }
}

// Whether two programs hold the same stages, entries in the same order,
// leaf entries and multicast groups: what serialize_pipeline writes,
// compared without the text.
bool same_program(const table::Pipeline& a, const table::Pipeline& b) {
  auto same_stages = [](const std::vector<table::Table>& x,
                        const std::vector<table::Table>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const table::Table& s, const table::Table& t) {
                        return s.name() == t.name() && s.kind() == t.kind() &&
                               s.width_bits() == t.width_bits() &&
                               s.entries() == t.entries();
                      });
  };
  const auto& la = a.leaf.entries();
  const auto& lb = b.leaf.entries();
  if (a.initial_state != b.initial_state ||
      !same_stages(a.value_maps, b.value_maps) ||
      !same_stages(a.tables, b.tables) || la.size() != lb.size() ||
      a.mcast.size() != b.mcast.size())
    return false;
  for (std::size_t i = 0; i < la.size(); ++i)
    if (la[i].state != lb[i].state || *la[i].actions != *lb[i].actions ||
        la[i].mcast_group != lb[i].mcast_group)
      return false;
  for (std::uint32_t g = 0; g < a.mcast.size(); ++g)
    if (a.mcast.ports(g) != b.mcast.ports(g)) return false;
  return true;
}

// The BENCH_churn op stream (2,000 base subscriptions over 100 symbols
// and 200 hosts, 500 ops, symbol stage first). After every commit, the
// switch that applied the emitted ops, the switch that applied the
// oracle's and the compiler's own program are the same program; at the
// end they serialize to the same bytes.
TEST(IncrementalDelta, ChurnStreamMatchesTheRegeneratingOracle) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnParams cp;
  cp.seed = 20260806;
  cp.subs.seed = cp.seed ^ 0x5eedULL;
  cp.subs.n_subscriptions = 2000;
  cp.subs.n_symbols = 100;
  cp.subs.n_hosts = 200;
  workload::ChurnGenerator churn(schema, cp);
  DeltaPair pair(schema, exact_first_opts());
  std::map<std::size_t, IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = pair.add(churn.base()[slot]);
  ASSERT_TRUE(pair.commit().ok());
  switchsim::Switch sw(schema, *pair.inc.pipeline().value());
  switchsim::Switch sw_oracle(schema, *pair.oracle.pipeline().value());

  std::size_t regenerated = 0, live = 0;
  for (int i = 0; i < 500; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = pair.add(op.rule);
    } else {
      pair.remove(ids.at(op.slot));
      ids.erase(op.slot);
    }
    Delta want;
    auto got = pair.commit(&want);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    if (HasFailure()) return;
    install(sw, got.value(), *pair.inc.pipeline().value());
    install(sw_oracle, want, *pair.oracle.pipeline().value());
    ASSERT_TRUE(same_program(*sw.pipeline_snapshot(),
                             *sw_oracle.pipeline_snapshot()));
    ASSERT_TRUE(
        same_program(*sw.pipeline_snapshot(), *pair.inc.pipeline().value()));
    regenerated += got.value().stats.tablegen.in_nodes_regenerated;
    live += got.value().stats.tablegen.in_nodes;
  }
  const std::string image = table::serialize_pipeline(*sw.pipeline_snapshot());
  EXPECT_EQ(image, table::serialize_pipeline(*sw_oracle.pipeline_snapshot()));
  EXPECT_EQ(image, table::serialize_pipeline(*pair.inc.pipeline().value()));
  // Commits cost what they change: the stream regenerates a few In nodes
  // per commit of the ~50 the program holds.
  EXPECT_LT(regenerated * 10, live);
}

// An unsubscribe replaces its symbol's price In node; resubscribing the
// identical rule brings the departed node back with its old state id, and
// its entries return as adds.
TEST(IncrementalDelta, ResubscribedRuleReturnsWithItsOldState) {
  const auto schema = spec::make_itch_schema();
  DeltaPair pair(schema, exact_first_opts());
  pair.add(schema, "stock == GOOGL and price > 10 : fwd(1)");
  const auto id = pair.add(schema, "stock == GOOGL and price > 20 : fwd(2)");
  pair.add(schema, "stock == MSFT and price > 5 : fwd(3)");
  ASSERT_TRUE(pair.commit().ok());

  pair.remove(id);
  auto removed = pair.commit();
  ASSERT_TRUE(removed.ok());
  std::set<table::StateId> departed;
  for (const table::EntryOp& op : removed.value().ops)
    if (op.kind == table::EntryOp::Kind::kRemove && !op.is_leaf() &&
        op.state != table::kInitialState)
      departed.insert(op.state);
  ASSERT_FALSE(departed.empty());

  pair.add(schema, "stock == GOOGL and price > 20 : fwd(2)");
  auto back = pair.commit();
  ASSERT_TRUE(back.ok());
  std::set<table::StateId> returned;
  for (const table::EntryOp& op : back.value().ops)
    if (op.kind == table::EntryOp::Kind::kAdd && !op.is_leaf() &&
        op.state != table::kInitialState)
      returned.insert(op.state);
  EXPECT_EQ(returned, departed);
}

// A commit whose output was rejected downstream is rolled back with
// restore_installed: the next commit diffs against the restored base, and
// the one after emits its delta again.
TEST(IncrementalDelta, CommitAfterRestoreDiffsTheRestoredBase) {
  const auto schema = spec::make_itch_schema();
  DeltaPair pair(schema, exact_first_opts());
  pair.add(schema, "stock == GOOGL and price > 10 : fwd(1)");
  pair.add(schema, "stock == MSFT : fwd(2)");
  ASSERT_TRUE(pair.commit().ok());
  const table::Pipeline accepted = *pair.inc.pipeline().value();
  const table::Pipeline oracle_accepted = *pair.oracle.pipeline().value();

  pair.add(schema, "stock == AAPL and price < 50 : fwd(3)");
  ASSERT_TRUE(pair.commit().ok());
  pair.inc.restore_installed(accepted);
  pair.oracle.restore_installed(oracle_accepted);

  pair.add(schema, "stock == GOOGL and price > 30 : fwd(4)");
  auto next = pair.commit();
  ASSERT_TRUE(next.ok());
  table::Pipeline patched = accepted;
  ASSERT_TRUE(table::apply_ops(patched, next.value().ops).ok());
  EXPECT_EQ(table::pipeline_digest(patched),
            table::pipeline_digest(*pair.inc.pipeline().value()));

  pair.add(schema, "stock == IBM : fwd(5)");
  ASSERT_TRUE(pair.commit().ok());
}

// A rule that fails to flatten fails its commit before the union; the
// next commit still emits its delta against the last accepted program.
TEST(IncrementalDelta, CommitAfterAFailedFlatten) {
  const auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts = exact_first_opts();
  opts.max_dnf_terms = 4;
  DeltaPair pair(schema, opts);
  pair.add(schema, "stock == GOOGL and price > 10 : fwd(1)");
  pair.add(schema, "stock == MSFT : fwd(2)");
  ASSERT_TRUE(pair.commit().ok());

  const auto wide = pair.add(
      schema,
      "(shares == 1 or shares == 2 or shares == 3) and "
      "(price == 1 or price == 2) : fwd(3)");
  EXPECT_FALSE(pair.commit().ok());
  pair.remove(wide);
  pair.add(schema, "stock == GOOGL and price > 40 : fwd(4)");
  auto next = pair.commit();
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  EXPECT_FALSE(next.value().requires_reprogram);
  EXPECT_FALSE(next.value().ops.empty());
}

// Removing every subscription makes the root the drop terminal. A
// terminal root holds the initial state like any other root, so the
// program empties by entry removes and the subscriptions return as adds:
// no reprogram either way.
TEST(IncrementalDelta, RemovingEverySubscriptionShipsAsOps) {
  const auto schema = spec::make_itch_schema();
  DeltaPair pair(schema, exact_first_opts());
  const auto a = pair.add(schema, "stock == GOOGL and price > 10 : fwd(1)");
  const auto b = pair.add(schema, "stock == MSFT : fwd(2)");
  ASSERT_TRUE(pair.commit().ok());
  switchsim::Switch sw(schema, *pair.inc.pipeline().value());
  auto commit_and_install = [&](const char* what) {
    auto d = pair.commit();
    ASSERT_TRUE(d.ok()) << what;
    EXPECT_FALSE(d.value().requires_reprogram) << what;
    const table::Pipeline& image = *pair.inc.pipeline().value();
    EXPECT_EQ(image.initial_state, table::kInitialState) << what;
    install(sw, d.value(), image);
    EXPECT_TRUE(same_program(*sw.pipeline_snapshot(), image)) << what;
  };
  pair.remove(a);
  pair.remove(b);
  commit_and_install("remove every subscription");
  EXPECT_EQ(pair.inc.pipeline().value()->total_entries(), 0u);
  pair.add(schema, "stock == IBM : fwd(3)");
  commit_and_install("subscribe again");
  pair.add(schema, "stock == IBM and price > 7 : fwd(4)");
  commit_and_install("subscribe once more");
}

// Domain compression's value-map codes are global per field, so its
// commits regenerate every table; the deltas still equal the oracle's.
TEST(IncrementalDelta, DomainCompressionRegenerates) {
  const auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts = exact_first_opts();
  opts.domain_compression = true;
  opts.compression_min_entries = 2;
  DeltaPair pair(schema, opts);
  workload::ItchSubsParams p;
  p.seed = 4;
  p.n_subscriptions = 60;
  p.n_symbols = 6;
  p.n_hosts = 10;
  const auto rules = workload::generate_itch_subscriptions(schema, p).rules;
  std::vector<IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t k = 0; k < 40; ++k) ids.push_back(pair.add(rules[k]));
  auto first = pair.commit();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.tablegen.in_nodes_regenerated,
            first.value().stats.tablegen.in_nodes);
  for (std::size_t k = 0; k < 10; ++k) {
    pair.remove(ids[k]);
    pair.add(rules[40 + k]);
    auto d = pair.commit();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().stats.tablegen.in_nodes_regenerated,
              d.value().stats.tablegen.in_nodes);
  }
}

// Entry ops never change a stage's match kind, so a commit that turns an
// exact table into a range table (its first range entry) requires a
// reprogram; after it, the switch runs the compiler's kinds and emits the
// compiler's P4.
TEST(IncrementalDelta, MatchKindFlipRequiresReprogram) {
  const auto schema = spec::make_itch_schema();
  DeltaPair pair(schema, {});
  pair.add(schema, "stock == GOOGL and price == 5 : fwd(1)");
  ASSERT_TRUE(pair.commit().ok());
  const table::Table* price =
      pair.inc.pipeline().value()->find_table("add_order.price");
  ASSERT_NE(price, nullptr);
  EXPECT_EQ(price->kind(), table::MatchKind::kExact);
  switchsim::Switch sw(schema, *pair.inc.pipeline().value());

  pair.add(schema, "stock == GOOGL and price > 10 : fwd(2)");
  auto flip = pair.commit();
  ASSERT_TRUE(flip.ok());
  EXPECT_TRUE(flip.value().requires_reprogram);
  install(sw, flip.value(), *pair.inc.pipeline().value());
  const auto running = sw.pipeline_snapshot();
  const table::Pipeline& want = *pair.inc.pipeline().value();
  ASSERT_EQ(running->tables.size(), want.tables.size());
  for (std::size_t i = 0; i < want.tables.size(); ++i)
    EXPECT_EQ(running->tables[i].kind(), want.tables[i].kind())
        << want.tables[i].name();
  EXPECT_EQ(want.find_table("add_order.price")->kind(),
            table::MatchKind::kRange);
  EXPECT_EQ(compiler::generate_p4(schema, running.get()),
            compiler::generate_p4(schema, &want));

  // The kind is part of the layout for any diff, not just the compiler's.
  table::Pipeline retyped = want;
  retyped.tables.back() =
      table::Table(want.tables.back().name(), want.tables.back().subject(),
                   table::MatchKind::kTernary,
                   want.tables.back().width_bits());
  for (const table::Entry& e : want.tables.back().entries())
    retyped.tables.back().add_entry(e);
  EXPECT_TRUE(table::diff_pipelines(&want, retyped).requires_reprogram);
  EXPECT_FALSE(table::diff_pipelines(&want, want).requires_reprogram);
}

// --- Partition-fallback diagnostic (I130) ---------------------------------
// The persistent-manager path has no partitioned variant; when the options
// ask for partitioned output the commit must SAY so instead of silently
// emitting a structurally different pipeline.

TEST(IncrementalPartitionFallback, ForcedPartitionRequestSurfacesI130) {
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kForce;
  IncrementalCompiler inc(spec::make_itch_schema(), opts);
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  auto d = inc.commit();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().stats.partition_groups, 0u);
  EXPECT_NE(d.value().stats.partition_fallback.find("I130"),
            std::string::npos)
      << d.value().stats.partition_fallback;
  // The diagnostic rides the telemetry everywhere stats go.
  EXPECT_NE(d.value().stats.to_json().find("I130"), std::string::npos);
  EXPECT_NE(d.value().stats.to_string().find("I130"), std::string::npos);
}

TEST(IncrementalPartitionFallback, AutoBelowThresholdStaysSilent) {
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kAuto;  // min_rules default 4096
  IncrementalCompiler inc(spec::make_itch_schema(), opts);
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  auto d = inc.commit();
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().stats.partition_fallback.empty())
      << d.value().stats.partition_fallback;
}

}  // namespace
