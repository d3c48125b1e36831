// CompiledPipeline: the flattened fast-path lookup must be bit-identical
// to Pipeline::evaluate — randomized pipelines (exact/range/wildcard
// mixes, duplicates, state subjects), compiled ITCH programs under both
// stage orderings and with domain compression, manual value-map chains,
// and degenerate shapes. The hot-key memo split (prefix_key / run_prefix /
// finish) must compose to a full traverse.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "table/compiled.hpp"
#include "table/pipeline.hpp"
#include "util/rng.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;
using namespace camus::table;
using camus::lang::Subject;

// Leaf index the reference evaluator lands on: the entry's position in the
// source leaf table (the order CompiledPipeline::traverse reports), or
// kMiss on drop.
std::uint32_t ref_leaf_index(const Pipeline& p, const lang::Env& env) {
  const LeafEntry* e = p.evaluate(env);
  if (!e) return CompiledPipeline::kMiss;
  return static_cast<std::uint32_t>(e - p.leaf.entries().data());
}

constexpr std::uint32_t kStates = 8;       // state ids used by random tables
constexpr std::uint64_t kValueSpan = 48;   // env values drawn from [0, span)

Pipeline random_pipeline(util::Rng& rng) {
  Pipeline p;
  const std::size_t n_tables = 1 + rng.next() % 3;
  for (std::size_t t = 0; t < n_tables; ++t) {
    const Subject subj = rng.next() % 4 == 0
                             ? Subject::state(rng.next() % 2)
                             : Subject::field(rng.next() % 3);
    Table tab("t" + std::to_string(t), subj,
              rng.next() % 2 ? MatchKind::kExact : MatchKind::kRange, 16);
    // Disjoint ranges per state: advance a per-state cursor.
    std::uint64_t cursor[kStates] = {};
    const std::size_t n_entries = 1 + rng.next() % 9;
    for (std::size_t e = 0; e < n_entries; ++e) {
      const StateId st = static_cast<StateId>(rng.next() % kStates);
      const StateId next = static_cast<StateId>(rng.next() % kStates);
      switch (rng.next() % 3) {
        case 0:
          tab.add_entry({st, ValueMatch::exact(rng.next() % 16), next});
          break;
        case 1: {
          const std::uint64_t lo = cursor[st] + rng.next() % 3;
          const std::uint64_t hi = lo + rng.next() % 5;
          cursor[st] = hi + 1;
          tab.add_entry({st, ValueMatch::range(lo, hi), next});
          break;
        }
        case 2:
          tab.add_entry({st, ValueMatch::any(), next});
          break;
      }
    }
    // Duplicate exact entries must resolve last-wins in both evaluators.
    if (rng.next() % 2) {
      const StateId st = static_cast<StateId>(rng.next() % kStates);
      const std::uint64_t v = rng.next() % 16;
      tab.add_entry({st, ValueMatch::exact(v), 3});
      tab.add_entry({st, ValueMatch::exact(v), 5});
    }
    p.tables.push_back(std::move(tab));
  }
  for (StateId s = 0; s < kStates; ++s) {
    if (rng.next() % 2) continue;
    LeafEntry e;
    e.state = s;
    e.actions.add_port(static_cast<std::uint16_t>(rng.next() % 4));
    p.leaf.add_entry(std::move(e));
    // Duplicate leaf states must resolve first-wins in both evaluators.
    if (rng.next() % 4 == 0) {
      LeafEntry dup;
      dup.state = s;
      dup.actions.add_port(63);
      p.leaf.add_entry(std::move(dup));
    }
  }
  p.finalize();
  return p;
}

TEST(CompiledPipeline, RandomizedEquivalence) {
  util::Rng rng(0xc0de);
  for (int trial = 0; trial < 100; ++trial) {
    const Pipeline p = random_pipeline(rng);
    const CompiledPipeline cp(p);
    ASSERT_TRUE(cp.valid());
    lang::Env env;
    env.fields.resize(3);
    env.states.resize(2);
    for (int i = 0; i < 300; ++i) {
      for (auto& f : env.fields) f = rng.next() % kValueSpan;
      for (auto& s : env.states) s = rng.next() % kValueSpan;
      const std::uint32_t want = ref_leaf_index(p, env);
      const std::uint32_t got = cp.traverse(env.fields, env.states);
      ASSERT_EQ(got, want) << "trial " << trial << " iter " << i;
      if (want != CompiledPipeline::kMiss) {
        const lang::ActionSet* a = cp.actions(got);
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(*a, p.leaf.entries()[want].actions);
        EXPECT_EQ(cp.leaf_entry(got).state, p.leaf.entries()[want].state);
      } else {
        EXPECT_EQ(cp.actions(got), nullptr);
      }
    }
  }
}

TEST(CompiledPipeline, EmptyAndLeafOnlyPipelines) {
  Pipeline empty;  // no tables, no leaf: everything drops
  const CompiledPipeline ce(empty);
  ASSERT_TRUE(ce.valid());
  EXPECT_EQ(ce.traverse(std::vector<std::uint64_t>{1, 2},
                        std::vector<std::uint64_t>{}),
            CompiledPipeline::kMiss);

  Pipeline leaf_only;  // no tables: every packet lands in the initial state
  LeafEntry e;
  e.state = kInitialState;
  e.actions.add_port(9);
  leaf_only.leaf.add_entry(e);
  leaf_only.finalize();
  const CompiledPipeline cl(leaf_only);
  ASSERT_TRUE(cl.valid());
  const auto idx = cl.traverse(std::vector<std::uint64_t>{7},
                               std::vector<std::uint64_t>{});
  ASSERT_EQ(idx, 0u);
  EXPECT_EQ(cl.actions(idx)->ports, std::vector<std::uint16_t>{9});
}

TEST(CompiledPipeline, WildcardOnlyTable) {
  Pipeline p;
  Table t("w", Subject::field(0), MatchKind::kExact, 16);
  t.add_entry({kInitialState, ValueMatch::any(), 4});
  p.tables.push_back(std::move(t));
  LeafEntry e;
  e.state = 4;
  e.actions.add_port(2);
  p.leaf.add_entry(e);
  p.finalize();
  const CompiledPipeline cp(p);
  ASSERT_TRUE(cp.valid());
  for (std::uint64_t v : {0ULL, 5ULL, ~0ULL}) {
    lang::Env env;
    env.fields = {v};
    EXPECT_EQ(cp.traverse(env.fields, env.states), ref_leaf_index(p, env));
  }
}

// Manual value-map chain: raw field 0 is mapped onto a narrow code domain,
// the main table matches codes, and values outside the map's coverage must
// fall to code 0 in both evaluators.
TEST(CompiledPipeline, ValueMapEquivalenceIncludingMapMiss) {
  Pipeline p;
  Table vm("map_f0", Subject::field(0), MatchKind::kRange, 16);
  vm.add_entry({kInitialState, ValueMatch::range(0, 9), 0});
  vm.add_entry({kInitialState, ValueMatch::range(10, 19), 1});
  vm.add_entry({kInitialState, ValueMatch::range(20, 29), 2});
  p.value_maps.push_back(std::move(vm));

  Table t0("f0_codes", Subject::field(0), MatchKind::kExact, 16);
  t0.add_entry({kInitialState, ValueMatch::exact(1), 5});
  t0.add_entry({kInitialState, ValueMatch::exact(2), 6});
  p.tables.push_back(std::move(t0));

  Table t1("f1", Subject::field(1), MatchKind::kRange, 16);
  t1.add_entry({5, ValueMatch::range(0, 100), 7});
  t1.add_entry({6, ValueMatch::any(), 8});
  p.tables.push_back(std::move(t1));

  for (StateId s : {kInitialState, StateId{5}, StateId{6}, StateId{7},
                    StateId{8}}) {
    LeafEntry e;
    e.state = s;
    e.actions.add_port(static_cast<std::uint16_t>(s + 10));
    p.leaf.add_entry(e);
  }
  p.finalize();

  const CompiledPipeline cp(p);
  ASSERT_TRUE(cp.valid());
  lang::Env env;
  env.fields.resize(2);
  for (std::uint64_t f0 = 0; f0 < 40; ++f0) {    // >= 30 exercises map miss
    for (std::uint64_t f1 = 0; f1 < 130; f1 += 7) {
      env.fields[0] = f0;
      env.fields[1] = f1;
      ASSERT_EQ(cp.traverse(env.fields, env.states), ref_leaf_index(p, env))
          << "f0=" << f0 << " f1=" << f1;
    }
  }
}

// Full compiled-ITCH equivalence over a generated feed, under both stage
// orderings and with domain compression (compiler-produced value maps).
void itch_equivalence(bdd::OrderHeuristic order, bool compress) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 7;
  sp.n_subscriptions = 300;
  sp.n_symbols = 120;
  sp.n_hosts = 16;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  compiler::CompileOptions co;
  co.order = order;
  co.domain_compression = compress;
  auto pipeline = compiler::compile_rules(schema, subs.rules, co).take().pipeline;
  pipeline.finalize();
  const CompiledPipeline cp(pipeline);
  ASSERT_TRUE(cp.valid());

  workload::FeedParams fp;
  fp.seed = 3;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = 3000;
  fp.symbols = subs.symbols;
  fp.price_min = 1;
  fp.price_max = 1200;
  auto feed = workload::generate_feed(fp);

  switchsim::ItchFieldExtractor ex(schema);
  lang::Env env;
  env.states.assign(schema.state_vars().size(), 0);
  util::Rng rng(11);
  for (const auto& fm : feed.messages) {
    ex.extract_into(fm.msg, env.fields);
    for (auto& s : env.states) s = rng.next() % 10000;  // cover state inputs
    ASSERT_EQ(cp.traverse(env.fields, env.states), ref_leaf_index(pipeline, env));
  }
}

TEST(CompiledPipeline, ItchDeclaredOrder) {
  itch_equivalence(bdd::OrderHeuristic::kDeclared, false);
}
TEST(CompiledPipeline, ItchExactFirstOrder) {
  itch_equivalence(bdd::OrderHeuristic::kExactFirst, false);
}
TEST(CompiledPipeline, ItchWithDomainCompression) {
  itch_equivalence(bdd::OrderHeuristic::kDeclared, true);
}

// The memo decomposition: run_prefix over the leading exact stages plus
// finish must equal a full traverse, and the prefix key must be a pure
// function of the prefix subjects (same symbol -> same key and state).
TEST(CompiledPipeline, PrefixRunsComposeToTraverse) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 5;
  sp.n_subscriptions = 200;
  sp.n_symbols = 80;
  sp.n_hosts = 8;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  compiler::CompileOptions co;
  co.order = bdd::OrderHeuristic::kExactFirst;  // symbol stage leads
  auto pipeline = compiler::compile_rules(schema, subs.rules, co).take().pipeline;
  pipeline.finalize();
  const CompiledPipeline cp(pipeline);
  ASSERT_TRUE(cp.valid());
  ASSERT_GT(cp.prefix_stages(), 0u);
  ASSERT_LE(cp.prefix_stages(), CompiledPipeline::kMaxPrefix);

  workload::FeedParams fp;
  fp.seed = 9;
  fp.n_messages = 2000;
  fp.symbols = subs.symbols;
  auto feed = workload::generate_feed(fp);

  switchsim::ItchFieldExtractor ex(schema);
  std::vector<std::uint64_t> fields;
  const std::vector<std::uint64_t> states(schema.state_vars().size(), 0);
  std::uint64_t key[CompiledPipeline::kMaxPrefix] = {};
  for (const auto& fm : feed.messages) {
    ex.extract_into(fm.msg, fields);
    cp.prefix_key(fields, states, key);
    const std::uint32_t mid = cp.run_prefix(fields, states);
    const std::uint32_t composed = cp.finish(mid, fields, states);
    ASSERT_EQ(composed, cp.traverse(fields, states));

    // Purity: re-running the prefix on the same inputs is deterministic.
    std::uint64_t key2[CompiledPipeline::kMaxPrefix] = {};
    cp.prefix_key(fields, states, key2);
    for (std::size_t i = 0; i < cp.prefix_stages(); ++i)
      ASSERT_EQ(key[i], key2[i]);
    ASSERT_EQ(cp.run_prefix(fields, states), mid);
  }
}

}  // namespace
