// Microbenchmarks (google-benchmark): the per-message and per-operation
// costs underlying the system-level results — compiled-pipeline
// classification vs the software matchers (the "software alternatives" of
// the paper's evaluation), wire codec costs, and compiler kernel costs.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "baseline/matcher.hpp"
#include "compiler/compile.hpp"
#include "proto/packet.hpp"
#include "spec/itch_spec.hpp"
#include "table/compiled.hpp"
#include "switchsim/switch.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

namespace {

struct Workbench {
  spec::Schema schema = spec::make_itch_schema();
  std::vector<lang::BoundRule> rules;
  std::vector<lang::FlatRule> flat;
  table::Pipeline pipeline;
  std::vector<lang::Env> envs;  // pre-extracted messages

  explicit Workbench(std::size_t n_rules) {
    workload::ItchSubsParams p;
    p.seed = 1;
    p.n_subscriptions = n_rules;
    p.n_symbols = 100;
    p.n_hosts = 200;
    auto subs = workload::generate_itch_subscriptions(schema, p);
    rules = std::move(subs.rules);
    flat = lang::flatten_rules(rules, schema).take();
    pipeline = compiler::compile_rules(schema, rules).take().pipeline;

    workload::FeedParams fp;
    fp.seed = 2;
    fp.n_messages = 4096;
    fp.symbols = subs.symbols;
    fp.price_min = 1;
    fp.price_max = 999;
    auto feed = workload::generate_feed(fp);
    for (const auto& fm : feed.messages) {
      lang::Env env;
      env.fields = {fm.msg.shares, util::encode_symbol(fm.msg.stock),
                    fm.msg.price};
      env.states = {0, 0};
      envs.push_back(std::move(env));
    }
  }
};

Workbench& bench_state(std::size_t n_rules) {
  static std::map<std::size_t, std::unique_ptr<Workbench>> cache;
  auto& slot = cache[n_rules];
  if (!slot) slot = std::make_unique<Workbench>(n_rules);
  return *slot;
}

void BM_CompiledTraverse(benchmark::State& state) {
  auto& wb = bench_state(static_cast<std::size_t>(state.range(0)));
  table::CompiledPipeline cp(wb.pipeline);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& env = wb.envs[i++ & 4095];
    benchmark::DoNotOptimize(cp.traverse(env.fields, env.states));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledTraverse)->Arg(100)->Arg(1000)->Arg(10000);

// The memo-hit path of the batched switch: prefix key extraction plus
// finish() from a memoized prefix state (run_prefix is skipped).
void BM_CompiledMemoHit(benchmark::State& state) {
  auto& wb = bench_state(1000);
  table::CompiledPipeline cp(wb.pipeline);
  const auto& env = wb.envs[0];
  const std::uint32_t memoized = cp.run_prefix(env.fields, env.states);
  std::uint64_t key[table::CompiledPipeline::kMaxPrefix];
  for (auto _ : state) {
    cp.prefix_key(env.fields, env.states, key);
    benchmark::DoNotOptimize(key[0]);
    benchmark::DoNotOptimize(cp.finish(memoized, env.fields, env.states));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledMemoHit);

void BM_NaiveMatch(benchmark::State& state) {
  auto& wb = bench_state(static_cast<std::size_t>(state.range(0)));
  baseline::NaiveMatcher matcher(wb.flat);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(wb.envs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveMatch)->Arg(100)->Arg(1000);

void BM_CountingMatch(benchmark::State& state) {
  auto& wb = bench_state(static_cast<std::size_t>(state.range(0)));
  baseline::CountingMatcher matcher(wb.flat, wb.schema);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(wb.envs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingMatch)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SwitchProcessFrame(benchmark::State& state) {
  auto& wb = bench_state(1000);
  switchsim::Switch sw(wb.schema, wb.pipeline);
  proto::ItchAddOrder msg;
  msg.stock = "GOOGL";
  msg.shares = 100;
  msg.price = 500;
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  const auto frame =
      proto::encode_market_data_packet(eth, 1, 2, mold, {msg});
  std::uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.process(frame, ++t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchProcessFrame);

void BM_ItchEncode(benchmark::State& state) {
  proto::ItchAddOrder msg;
  msg.stock = "GOOGL";
  msg.shares = 100;
  msg.price = 500;
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::encode_market_data_packet(eth, 1, 2, mold, {msg}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ItchEncode);

void BM_ItchDecode(benchmark::State& state) {
  proto::ItchAddOrder msg;
  msg.stock = "GOOGL";
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  const auto frame =
      proto::encode_market_data_packet(eth, 1, 2, mold, {msg});
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_market_data_packet(frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ItchDecode);

void BM_CompileRules(benchmark::State& state) {
  auto& wb = bench_state(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile_rules(wb.schema, wb.rules));
  }
}
BENCHMARK(BM_CompileRules)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_IntervalSetIntersect(benchmark::State& state) {
  util::Rng rng(5);
  util::IntervalSet a, b;
  for (int i = 0; i < 20; ++i) {
    const auto lo1 = rng.uniform(0, 1000000);
    a = a.unite(util::IntervalSet::range(lo1, lo1 + rng.uniform(0, 500)));
    const auto lo2 = rng.uniform(0, 1000000);
    b = b.unite(util::IntervalSet::range(lo2, lo2 + rng.uniform(0, 500)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
}
BENCHMARK(BM_IntervalSetIntersect);

void BM_TcamRangeExpansion(benchmark::State& state) {
  std::uint64_t lo = 12345, hi = 9876543;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table::tcam_entries_for_range(lo, hi, 32));
    lo += 7;
    hi += 13;
  }
}
BENCHMARK(BM_TcamRangeExpansion);

}  // namespace

BENCHMARK_MAIN();
