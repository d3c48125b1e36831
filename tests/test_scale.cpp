// Compile-at-scale paths: symbol-partitioned compilation (partition.*),
// the same program at every thread count, entry interning (compress.*),
// the cost-model layout search (explore.*), and the compile and memory
// telemetry — each proven against the monolithic compile and the
// brute-force evaluator.
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/compile.hpp"
#include "compiler/explore.hpp"
#include "compiler/field_order.hpp"
#include "compiler/incremental.hpp"
#include "compiler/partition.hpp"
#include "lang/eval.hpp"
#include "lang/parser.hpp"
#include "spec/itch_spec.hpp"
#include "table/serialize.hpp"
#include "util/intern.hpp"
#include "util/json.hpp"
#include "verify/equivalence.hpp"
#include "workload/fuzz.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;

workload::ItchSubscriptions make_subs(std::size_t n, std::size_t symbols = 20,
                                      std::size_t hosts = 8) {
  workload::ItchSubsParams p;
  p.seed = 42;
  p.n_subscriptions = n;
  p.n_symbols = symbols;
  p.n_hosts = hosts;
  p.price_max = 1000;
  return workload::generate_itch_subscriptions(spec::make_itch_schema(), p);
}

std::vector<lang::BoundRule> parse_bound(const spec::Schema& schema,
                                         const std::string& src) {
  auto parsed = lang::parse_rules(src);
  EXPECT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto bound = lang::bind_rules(parsed.value(), schema);
  EXPECT_TRUE(bound.ok()) << bound.error().to_string();
  return bound.value();
}

// Sweep a deterministic grid of environments through both pipelines and
// the brute-force AST evaluator.
void expect_same_classification(const spec::Schema& schema,
                                const std::vector<lang::BoundRule>& rules,
                                const table::Pipeline& a,
                                const table::Pipeline& b) {
  const auto stock = schema.resolve_field("stock");
  const auto price = schema.resolve_field("price");
  const auto shares = schema.resolve_field("shares");
  ASSERT_TRUE(stock && price && shares);
  for (std::size_t sym = 0; sym < 24; ++sym) {
    for (std::uint64_t pr : {0ull, 1ull, 99ull, 500ull, 501ull, 999ull,
                             100000ull}) {
      lang::Env env;
      env.fields.assign(schema.fields().size(), 0);
      env.states.assign(schema.state_vars().size(), 0);
      env.fields[*stock] =
          util::encode_symbol("STK" + std::to_string(sym));
      env.fields[*price] = pr;
      env.fields[*shares] = pr * 3;
      const lang::ActionSet want = lang::brute_eval_rules(rules, env);
      EXPECT_EQ(a.evaluate_actions(env), want)
          << "pipeline A diverges at sym=" << sym << " price=" << pr;
      EXPECT_EQ(b.evaluate_actions(env), want)
          << "pipeline B diverges at sym=" << sym << " price=" << pr;
    }
  }
}

// --- partition planning ------------------------------------------------

TEST(PartitionPlan, FindsDominantSubjectAndSlicesRules) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(400);
  auto flat = lang::flatten_rules(subs.rules, schema);
  ASSERT_TRUE(flat.ok());
  bdd::VarOrder order =
      compiler::choose_order(schema, flat.value(), bdd::OrderHeuristic{});

  const auto plan = compiler::plan_partition(flat.value(), order);
  ASSERT_TRUE(plan.subject.has_value());
  EXPECT_EQ(plan.pinned_rules, flat.value().size());  // every rule pins stock
  EXPECT_EQ(plan.values.size(), plan.groups.size());
  EXPECT_GE(plan.values.size(), 2u);
  EXPECT_TRUE(plan.catch_all.empty());
  EXPECT_TRUE(std::is_sorted(plan.values.begin(), plan.values.end()));
  std::size_t sliced = 0;
  for (const auto& g : plan.groups) {
    EXPECT_FALSE(g.empty());
    sliced += g.size();
    // The pin was stripped: no term in a value shard constrains stock.
    for (const auto& r : g)
      for (const auto& t : r.terms)
        EXPECT_EQ(t.constraints.count(*plan.subject), 0u);
  }
  EXPECT_EQ(sliced, flat.value().size());
}

TEST(PartitionPlan, SpecializesCatchAllsIntoEveryValueShard) {
  auto schema = spec::make_itch_schema();
  auto bound = parse_bound(schema,
                           "stock == AAPL and price > 10 : fwd(1)\n"
                           "stock == MSFT and price > 20 : fwd(2)\n"
                           "stock == AAPL and shares > 5 : fwd(3)\n"
                           "price > 900 : fwd(4)\n"
                           "stock != AAPL and price > 50 : fwd(5)\n");
  auto flat = lang::flatten_rules(bound, schema);
  ASSERT_TRUE(flat.ok());
  bdd::VarOrder order =
      compiler::choose_order(schema, flat.value(), bdd::OrderHeuristic{});
  const auto plan = compiler::plan_partition(flat.value(), order);
  ASSERT_TRUE(plan.subject.has_value());
  EXPECT_EQ(plan.values.size(), 2u);  // AAPL, MSFT
  EXPECT_EQ(plan.pinned_rules, 3u);
  // The two catch-alls ride in the default shard unchanged...
  EXPECT_EQ(plan.catch_all.size(), 2u);
  // ...and were specialized into each value shard: "price > 900" into
  // both; "stock != AAPL and price > 50" only where AAPL is excluded.
  const std::size_t aapl =
      plan.values[0] == util::encode_symbol("AAPL") ? 0 : 1;
  const std::size_t msft = 1 - aapl;
  EXPECT_EQ(plan.groups[aapl].size(), 2u + 1u);  // 2 pinned + price>900
  EXPECT_EQ(plan.groups[msft].size(), 1u + 2u);  // 1 pinned + both
}

TEST(PartitionPlan, DegeneratesWithoutPointConstraints) {
  auto schema = spec::make_itch_schema();
  auto bound = parse_bound(schema,
                           "price > 10 : fwd(1)\n"
                           "shares > 20 : fwd(2)\n"
                           "price < 5 and shares < 3 : fwd(3)\n");
  auto flat = lang::flatten_rules(bound, schema);
  ASSERT_TRUE(flat.ok());
  bdd::VarOrder order =
      compiler::choose_order(schema, flat.value(), bdd::OrderHeuristic{});
  const auto plan = compiler::plan_partition(flat.value(), order);
  EXPECT_FALSE(plan.subject.has_value());
  compiler::CompileOptions force;
  force.partition = compiler::PartitionMode::kForce;
  EXPECT_FALSE(
      compiler::partition_applies(plan, force, flat.value().size()));
  // And compile_rules falls back to the monolithic path without error.
  auto compiled = compiler::compile_rules(schema, bound, force);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  EXPECT_EQ(compiled.value().stats.partition_groups, 0u);
  EXPECT_NE(compiled.value().manager, nullptr);
}

// --- partitioned compile vs monolithic ---------------------------------

TEST(PartitionedCompile, SymbolicallyEquivalentToMonolithicReference) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(500);
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kForce;
  opts.partition_min_rules = 0;
  opts.partition_reference = true;  // keep the monolithic MTBDD
  auto compiled = compiler::compile_rules(schema, subs.rules, opts);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const compiler::Compiled& c = compiled.value();
  ASSERT_GT(c.stats.partition_groups, 1u);
  ASSERT_NE(c.manager, nullptr);

  const auto eq =
      verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  EXPECT_TRUE(eq.completed) << eq.detail;
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

TEST(PartitionedCompile, DifferentialAgainstMonolithicAndOracle) {
  auto schema = spec::make_itch_schema();
  auto bound = parse_bound(schema,
                           "stock == STK0 and price > 100 : fwd(1)\n"
                           "stock == STK0 and price > 500 : fwd(2)\n"
                           "stock == STK1 and price > 100 : fwd(3)\n"
                           "stock == STK2 and shares >= 30 : fwd(4)\n"
                           "stock == STK3 : fwd(5)\n"
                           "price > 500 : fwd(6)\n"
                           "stock != STK1 and price > 999 : fwd(7)\n");
  auto mono = compiler::compile_rules(schema, bound, {});
  ASSERT_TRUE(mono.ok());
  compiler::CompileOptions popts;
  popts.partition = compiler::PartitionMode::kForce;
  popts.partition_min_rules = 0;
  auto part = compiler::compile_rules(schema, bound, popts);
  ASSERT_TRUE(part.ok()) << part.error().to_string();
  EXPECT_GT(part.value().stats.partition_groups, 1u);
  // Partitioned path skips the union MTBDD entirely.
  EXPECT_EQ(part.value().manager, nullptr);
  expect_same_classification(schema, bound, mono.value().pipeline,
                             part.value().pipeline);
}

// Compiles `rules` with `base` at threads 0 (auto) through 4 and expects
// one serialized image: threads sets only the partitioned compile's
// worker count, and a monolithic compile is serial.
void expect_one_image_at_every_thread_count(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const char* name, const compiler::CompileOptions& base) {
  std::string first;
  for (const std::size_t threads : {0, 1, 2, 3, 4}) {
    compiler::CompileOptions opts = base;
    opts.threads = threads;
    auto c = compiler::compile_rules(schema, rules, opts);
    ASSERT_TRUE(c.ok()) << name << " threads=" << threads;
    const auto& st = c.value().stats;
    if (base.partition == compiler::PartitionMode::kOff) {
      EXPECT_EQ(st.threads_used, 1u) << name << " threads=" << threads;
      EXPECT_TRUE(st.shards.empty()) << name << " threads=" << threads;
    } else {
      EXPECT_GT(st.partition_groups, 1u) << name;
    }
    const std::string image = table::serialize_pipeline(c.value().pipeline);
    if (first.empty()) first = image;
    EXPECT_EQ(image, first) << name << " threads=" << threads;
  }
}

// A program is a function of its rules and options, so every layout
// serializes to the same bytes at every thread count.
TEST(CompileDeterminism, SameProgramAtEveryThreadCount) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(300);
  compiler::CompileOptions exact_first;
  exact_first.order = bdd::OrderHeuristic::kExactFirst;
  compiler::CompileOptions partitioned;
  partitioned.partition = compiler::PartitionMode::kForce;
  partitioned.partition_min_rules = 0;
  partitioned.intern_entries = true;
  expect_one_image_at_every_thread_count(schema, subs.rules, "monolithic", {});
  expect_one_image_at_every_thread_count(schema, subs.rules,
                                         "monolithic exact-first", exact_first);
  expect_one_image_at_every_thread_count(schema, subs.rules,
                                         "partitioned + intern", partitioned);
}

// The plain partitioned layout: shards finish in any order on the pool
// and are still stitched in value order.
TEST(PartitionedCompile, DeterministicAcrossThreadCounts) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(300);
  compiler::CompileOptions base;
  base.partition = compiler::PartitionMode::kForce;
  base.partition_min_rules = 0;
  expect_one_image_at_every_thread_count(schema, subs.rules, "partitioned",
                                         base);
}

TEST(ParallelCompile, AutoThreadsCompiles) {
  // threads = 0 resolves to the hardware concurrency; whatever that is
  // here, both layouts must compile to a working pipeline, and the
  // partitioned pool must start at least one worker and no more than
  // there are shards.
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(100);
  compiler::CompileOptions mopts;
  mopts.threads = 0;
  auto mono = compiler::compile_rules(schema, subs.rules, mopts);
  ASSERT_TRUE(mono.ok()) << mono.error().to_string();
  EXPECT_EQ(mono.value().stats.threads_used, 1u);
  EXPECT_GT(mono.value().stats.total_entries, 0u);

  compiler::CompileOptions popts = mopts;
  popts.partition = compiler::PartitionMode::kForce;
  popts.partition_min_rules = 0;
  auto part = compiler::compile_rules(schema, subs.rules, popts);
  ASSERT_TRUE(part.ok()) << part.error().to_string();
  const auto& st = part.value().stats;
  EXPECT_GE(st.threads_used, 1u);
  EXPECT_LE(st.threads_used, st.partition_groups);
  EXPECT_GT(st.total_entries, 0u);
  expect_same_classification(schema, subs.rules, mono.value().pipeline,
                             part.value().pipeline);
}

TEST(PartitionedCompile, AutoModeGatesOnRuleCount) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(200);
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kAuto;
  opts.partition_min_rules = 100000;  // way above the set size
  auto compiled = compiler::compile_rules(schema, subs.rules, opts);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value().stats.partition_groups, 0u);  // monolithic
  opts.partition_min_rules = 10;
  auto again = compiler::compile_rules(schema, subs.rules, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again.value().stats.partition_groups, 1u);
}

// --- entry interning ---------------------------------------------------

TEST(InternEntries, CollapsesIsomorphicShardChains) {
  // Per-host thresholds are identical across symbols (round-robin
  // generator), so every value shard compiles to an isomorphic price
  // chain; interning must collapse them to ~one chain.
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(2000, 50, 8);
  compiler::CompileOptions popts;
  popts.partition = compiler::PartitionMode::kForce;
  popts.partition_min_rules = 0;
  auto plain = compiler::compile_rules(schema, subs.rules, popts);
  ASSERT_TRUE(plain.ok());
  compiler::CompileOptions iopts = popts;
  iopts.intern_entries = true;
  auto interned = compiler::compile_rules(schema, subs.rules, iopts);
  ASSERT_TRUE(interned.ok());

  const auto& st = interned.value().stats;
  EXPECT_TRUE(st.interned);
  EXPECT_LT(st.intern.states_after, st.intern.states_before);
  EXPECT_LT(st.intern.entries_after, st.intern.entries_before);
  // The 50 isomorphic per-symbol chains must fold into far fewer states:
  // at least a 5x reduction on this workload (observed: ~50x).
  EXPECT_LT(st.intern.states_after * 5, st.intern.states_before);
  EXPECT_EQ(st.total_entries, st.intern.entries_after);

  expect_same_classification(schema, subs.rules, plain.value().pipeline,
                             interned.value().pipeline);
}

TEST(InternEntries, PropertyFuzzedRuleSetsClassifyIdentically) {
  auto schema = spec::make_itch_schema();
  workload::FuzzParams fp;
  fp.seed = 2026;
  const workload::GrammarFuzzer fuzzer(schema, fp);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto s = fuzzer.sample(i);
    if (s.bound.empty()) continue;
    auto plain = compiler::compile_rules(schema, s.bound, {});
    compiler::CompileOptions iopts;
    iopts.intern_entries = true;
    auto interned = compiler::compile_rules(schema, s.bound, iopts);
    ASSERT_TRUE(plain.ok() && interned.ok()) << "sample " << i;
    EXPECT_LE(interned.value().stats.intern.entries_after,
              interned.value().stats.intern.entries_before);
    for (const auto& p : s.probes) {
      lang::Env env;
      env.fields = p.fields;
      env.states.assign(schema.state_vars().size(), 0);
      EXPECT_EQ(plain.value().pipeline.evaluate_actions(env),
                interned.value().pipeline.evaluate_actions(env))
          << "sample " << i;
    }
  }
}

TEST(InternEntries, InternedPartitionedPipelineStillVerifies) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(600);
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kForce;
  opts.partition_min_rules = 0;
  opts.partition_reference = true;
  opts.intern_entries = true;
  auto compiled = compiler::compile_rules(schema, subs.rules, opts);
  ASSERT_TRUE(compiled.ok());
  const compiler::Compiled& c = compiled.value();
  ASSERT_NE(c.manager, nullptr);
  const auto eq =
      verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  EXPECT_TRUE(eq.proven_equivalent()) << eq.detail;
}

// --- cost-model exploration --------------------------------------------

TEST(Explore, PicksBestScoredLayoutAndCompilesWithIt) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(800);
  compiler::ExploreParams params;
  params.sample_rules = 200;
  auto res = compiler::explore(schema, subs.rules, params);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  const auto& r = res.value();
  EXPECT_EQ(r.sampled, 200u);
  EXPECT_EQ(r.total_rules, 800u);
  // 4 order probes + the layout grid.
  EXPECT_GE(r.candidates.size(), 8u);
  EXPECT_FALSE(r.best_label.empty());
  double min_cost = 1e300;
  for (const auto& c : r.candidates)
    if (c.ok) min_cost = std::min(min_cost, c.cost);
  EXPECT_DOUBLE_EQ(r.best_cost, min_cost);

  // The winning options must drive a successful, equivalent full compile.
  auto mono = compiler::compile_rules(schema, subs.rules, {});
  auto best = compiler::compile_rules(schema, subs.rules, r.best);
  ASSERT_TRUE(mono.ok() && best.ok());
  expect_same_classification(schema, subs.rules, mono.value().pipeline,
                             best.value().pipeline);

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"best\""), std::string::npos);
}

TEST(Explore, ErrorsOnEmptyRuleSet) {
  auto schema = spec::make_itch_schema();
  EXPECT_FALSE(compiler::explore(schema, {}, {}).ok());
}

// --- S2: memory telemetry ----------------------------------------------

TEST(MemStats, PopulatedOnBothCompilePaths) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(300);
  auto mono = compiler::compile_rules(schema, subs.rules, {});
  ASSERT_TRUE(mono.ok());
  const auto& ms = mono.value().stats.mem;
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(ms.peak_rss, 0u);
#endif
  EXPECT_GT(ms.bdd_bytes, 0u);

  compiler::CompileOptions popts;
  popts.partition = compiler::PartitionMode::kForce;
  popts.partition_min_rules = 0;
  auto part = compiler::compile_rules(schema, subs.rules, popts);
  ASSERT_TRUE(part.ok());
  EXPECT_GT(part.value().stats.mem.bdd_bytes, 0u);
  // Partitioned: bdd_bytes tracks the *largest shard*, which must be far
  // below the monolithic manager for a 20-symbol partition.
  EXPECT_LT(part.value().stats.mem.bdd_bytes, ms.bdd_bytes);

  const std::string json = mono.value().stats.to_json();
  EXPECT_NE(json.find("\"mem\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss\""), std::string::npos);
  EXPECT_NE(json.find("\"partition\""), std::string::npos);
  EXPECT_NE(json.find("\"intern\""), std::string::npos);
}

// --- compile telemetry -------------------------------------------------

TEST(CompileStats, PhaseTimesPopulated) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(150);
  auto c = compiler::compile_rules(schema, subs.rules);
  ASSERT_TRUE(c.ok());
  const auto& s = c.value().stats;
  EXPECT_EQ(s.rule_count, 150u);
  EXPECT_GT(s.dnf_terms, 0u);
  EXPECT_GT(s.t_total, 0.0);
  EXPECT_GT(s.t_build, 0.0);
  EXPECT_GT(s.t_tables, 0.0);
  EXPECT_GE(s.t_total,
            s.t_flatten + s.t_build + s.t_union + s.t_prune);
  EXPECT_GT(s.cache.unique_nodes, 0u);
  EXPECT_GT(s.cache.unite_res_probes, 0u);
  EXPECT_GT(s.cache.memo_hit_rate(), 0.0);
  // One stage entry per field table plus the leaf count.
  EXPECT_FALSE(s.tablegen.stage_entries.empty());
  EXPECT_GT(s.tablegen.leaf_entries, 0u);

  // A partitioned compile reports its shards' BDD work, with no
  // reference MTBDD built.
  compiler::CompileOptions popts;
  popts.partition = compiler::PartitionMode::kForce;
  popts.partition_min_rules = 0;
  popts.threads = 2;
  auto p = compiler::compile_rules(schema, subs.rules, popts);
  ASSERT_TRUE(p.ok());
  const auto& ps = p.value().stats;
  ASSERT_GT(ps.partition_groups, 1u);
  EXPECT_EQ(p.value().manager, nullptr);
  EXPECT_GT(ps.cache.unique_nodes, 0u);
  EXPECT_GT(ps.cache.unite_res_probes, 0u);
  EXPECT_GT(ps.bdd_before_prune.node_count, 0u);
  EXPECT_GT(ps.bdd_after_prune.node_count, 0u);
}

// A partitioned compile on three workers, so the threads key and the
// per-shard array carry more than the monolithic defaults.
TEST(CompileStats, JsonRoundTrips) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subs(150);
  compiler::CompileOptions opts;
  opts.partition = compiler::PartitionMode::kForce;
  opts.partition_min_rules = 0;
  opts.partition_reference = true;  // a reference leaves the stats as is
  opts.threads = 3;
  auto c = compiler::compile_rules(schema, subs.rules, opts);
  ASSERT_TRUE(c.ok());
  const auto& s = c.value().stats;
  ASSERT_EQ(s.threads_used, 3u);
  ASSERT_FALSE(s.shards.empty());

  auto parsed = util::json::parse(s.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const auto& v = parsed.value();
  ASSERT_TRUE(v.is_object());

  EXPECT_EQ(v.member_u64("rules"), s.rule_count);
  EXPECT_EQ(v.member_u64("threads"), s.threads_used);
  EXPECT_EQ(v.member_u64("entries"), s.total_entries);
  EXPECT_EQ(v.member_u64("multicast_groups"), s.multicast_groups);

  const auto* phases = v.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_DOUBLE_EQ(phases->member_num("total"), s.t_total);
  EXPECT_DOUBLE_EQ(phases->member_num("build"), s.t_build);
  EXPECT_DOUBLE_EQ(phases->member_num("union"), s.t_union);

  const auto* bdd = v.find("bdd");
  ASSERT_NE(bdd, nullptr);
  EXPECT_EQ(bdd->member_u64("nodes_after_prune"),
            s.bdd_after_prune.node_count);

  const auto* cache = v.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->member_u64("unite_probes"), s.cache.unite_probes);
  EXPECT_EQ(cache->member_u64("unique_nodes"), s.cache.unique_nodes);
  EXPECT_DOUBLE_EQ(cache->member_num("memo_hit_rate"),
                   s.cache.memo_hit_rate());

  const auto* stages = v.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  // Field tables plus the trailing leaf row.
  ASSERT_EQ(stages->array.size(), s.tablegen.stage_entries.size() + 1);
  for (std::size_t i = 0; i < s.tablegen.stage_entries.size(); ++i) {
    EXPECT_EQ(stages->array[i].find("table")->string,
              s.tablegen.stage_entries[i].table);
    EXPECT_EQ(stages->array[i].member_u64("entries"),
              s.tablegen.stage_entries[i].entries);
  }
  EXPECT_EQ(stages->array.back().find("table")->string, "leaf");
  EXPECT_EQ(stages->array.back().member_u64("entries"),
            s.tablegen.leaf_entries);

  const auto* shards = v.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), s.shards.size());
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    EXPECT_EQ(shards->array[i].member_u64("rules"), s.shards[i].rules);
    EXPECT_EQ(shards->array[i].member_u64("bdd_nodes"),
              s.shards[i].bdd_nodes);
  }
}

TEST(CompileStats, IncrementalCommitPopulatesStats) {
  compiler::IncrementalCompiler inc(spec::make_itch_schema());
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  ASSERT_TRUE(inc.add_source("stock == MSFT and price > 100 : fwd(2)").ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok()) << delta.error().to_string();
  const auto& s = delta.value().stats;
  EXPECT_EQ(s.rule_count, 2u);
  EXPECT_EQ(s.dnf_terms, 2u);
  EXPECT_GT(s.t_total, 0.0);
  EXPECT_GT(s.total_entries, 0u);
  EXPECT_GT(s.cache.unique_nodes, 0u);
  EXPECT_FALSE(s.tablegen.stage_entries.empty());
  auto parsed = util::json::parse(s.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().member_u64("rules"), 2u);
}

}  // namespace
