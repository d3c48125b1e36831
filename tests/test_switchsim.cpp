// Switch simulator: registers with tumbling windows, field extraction,
// end-to-end frame processing with compiled pipelines, stateful rules.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "proto/generic.hpp"
#include "proto/packet.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "util/intern.hpp"

namespace {

using namespace camus;

proto::ItchAddOrder order(std::string stock, std::uint32_t shares,
                          std::uint32_t price) {
  proto::ItchAddOrder m;
  m.stock = std::move(stock);
  m.shares = shares;
  m.price = price;
  m.side = 'B';
  return m;
}

std::vector<std::uint8_t> frame_for(const proto::ItchAddOrder& m) {
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  return proto::encode_market_data_packet(eth, 1, 2, mold, {m});
}

// ---- registers -----------------------------------------------------------

TEST(StateRegisters, CounterTumblingWindow) {
  auto schema = spec::make_itch_schema();  // my_counter window = 100us
  switchsim::StateRegisters regs(schema);

  EXPECT_EQ(regs.read(0, 0), 0u);
  regs.apply_update(0, {0, 0, 0}, 10);
  regs.apply_update(0, {0, 0, 0}, 20);
  EXPECT_EQ(regs.read(0, 50), 2u);
  // Window [100, 200) resets the count.
  EXPECT_EQ(regs.read(0, 100), 0u);
  regs.apply_update(0, {0, 0, 0}, 150);
  EXPECT_EQ(regs.read(0, 199), 1u);
  EXPECT_EQ(regs.read(0, 200), 0u);
}

TEST(StateRegisters, AvgAggregates) {
  auto schema = spec::make_itch_schema();  // avg_price over price (field 2)
  switchsim::StateRegisters regs(schema);
  // fields: shares, stock, price
  regs.apply_update(1, {0, 0, 100}, 10);
  regs.apply_update(1, {0, 0, 200}, 20);
  EXPECT_EQ(regs.read(1, 50), 150u);
  regs.apply_update(1, {0, 0, 50}, 60);
  EXPECT_EQ(regs.read(1, 90), (100u + 200u + 50u) / 3u);
  // New window: empty average reads 0.
  EXPECT_EQ(regs.read(1, 101), 0u);
}

TEST(StateRegisters, SnapshotOrder) {
  auto schema = spec::make_itch_schema();
  switchsim::StateRegisters regs(schema);
  regs.apply_update(0, {0, 0, 0}, 5);
  regs.apply_update(1, {0, 0, 80}, 5);
  const auto snap = regs.snapshot(10);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], 1u);   // my_counter
  EXPECT_EQ(snap[1], 80u);  // avg_price
}

TEST(StateRegisters, CumulativeWhenWindowZero) {
  spec::Schema s;
  s.add_header("t", "h");
  auto f = s.add_field("x", 32);
  s.mark_queryable(f, spec::MatchHint::kRange);
  s.add_state_var("total", spec::StateFunc::kSum, f, 0);
  switchsim::StateRegisters regs(s);
  regs.apply_update(0, {7}, 10);
  regs.apply_update(0, {5}, 1000000);
  EXPECT_EQ(regs.read(0, 99999999), 12u);
}

// ---- extractor -------------------------------------------------------------

TEST(ItchFieldExtractor, MapsNamedFields) {
  auto schema = spec::make_itch_schema();
  switchsim::ItchFieldExtractor ex(schema);
  const auto m = order("GOOGL", 500, 123456);
  const auto fields = ex.extract(m);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], 500u);                                // shares
  EXPECT_EQ(fields[1], util::encode_symbol("GOOGL"));        // stock
  EXPECT_EQ(fields[2], 123456u);                             // price
}

TEST(ItchFieldExtractor, MasksToFieldWidth) {
  spec::Schema s;
  s.add_header("t", "h");
  auto f = s.add_field("price", 8);  // deliberately narrow
  s.mark_queryable(f, spec::MatchHint::kRange);
  switchsim::ItchFieldExtractor ex(s);
  const auto fields = ex.extract(order("X", 1, 0x1ff));
  EXPECT_EQ(fields[0], 0xffu);
}

// ---- switch ---------------------------------------------------------------

TEST(Switch, ForwardsPerCompiledRules) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_source(schema, R"(
    stock == GOOGL : fwd(1)
    stock == MSFT and price > 1000 : fwd(2)
    shares > 900 : fwd(3)
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  switchsim::Switch sw(schema, compiled.value().pipeline);

  auto ports_of = [&](const proto::ItchAddOrder& m) {
    std::vector<std::uint16_t> out;
    for (const auto& c : sw.process(frame_for(m), 0)) out.push_back(c.port);
    return out;
  };

  EXPECT_EQ(ports_of(order("GOOGL", 10, 5)), (std::vector<std::uint16_t>{1}));
  EXPECT_EQ(ports_of(order("MSFT", 10, 2000)),
            (std::vector<std::uint16_t>{2}));
  EXPECT_TRUE(ports_of(order("MSFT", 10, 1000)).empty());
  EXPECT_EQ(ports_of(order("GOOGL", 950, 5)),
            (std::vector<std::uint16_t>{1, 3}));
  EXPECT_TRUE(ports_of(order("IBM", 10, 5)).empty());

  const auto& c = sw.counters();
  EXPECT_EQ(c.rx_frames, 5u);
  EXPECT_EQ(c.matched, 3u);
  EXPECT_EQ(c.dropped, 2u);
  EXPECT_EQ(c.tx_copies, 4u);
  EXPECT_EQ(c.multicast_frames, 1u);
}

TEST(Switch, CountsParseErrors) {
  auto schema = spec::make_itch_schema();
  auto sw = switchsim::Switch::make_broadcast(schema, {1});
  std::vector<std::uint8_t> junk(10, 0xab);
  EXPECT_TRUE(sw.process(junk, 0).empty());
  EXPECT_EQ(sw.counters().parse_errors, 1u);
}

TEST(Switch, BroadcastMode) {
  auto schema = spec::make_itch_schema();
  auto sw = switchsim::Switch::make_broadcast(schema, {1, 2, 3});
  const auto copies = sw.process(frame_for(order("ANY", 1, 1)), 0);
  ASSERT_EQ(copies.size(), 3u);
  EXPECT_EQ(sw.counters().multicast_frames, 1u);
  EXPECT_TRUE(sw.fits());
}

TEST(Switch, StatefulAvgRule) {
  auto schema = spec::make_itch_schema();
  // Forward GOOGL only while the windowed average price exceeds 1000;
  // every GOOGL message updates the average.
  auto compiled = compiler::compile_source(schema, R"(
    stock == GOOGL and avg(price) > 1000 : fwd(1)
    stock == GOOGL : update(avg_price)
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  switchsim::Switch sw(schema, compiled.value().pipeline);

  // First message: avg is 0 -> not forwarded, but updates the register.
  EXPECT_TRUE(sw.process(frame_for(order("GOOGL", 1, 5000)), 10).empty());
  EXPECT_EQ(sw.registers().read(1, 10), 5000u);
  // Second message in the same window: avg 5000 > 1000 -> forwarded.
  EXPECT_EQ(sw.process(frame_for(order("GOOGL", 1, 3000)), 20).size(), 1u);
  // After the window rolls, the average resets -> not forwarded again.
  EXPECT_TRUE(sw.process(frame_for(order("GOOGL", 1, 3000)), 150).empty());
  EXPECT_GE(sw.counters().state_updates, 3u);
}

TEST(Switch, CounterRuleCountsMatches) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_source(schema, R"(
    stock == AAPL : fwd(1); update(my_counter)
  )");
  ASSERT_TRUE(compiled.ok());
  switchsim::Switch sw(schema, compiled.value().pipeline);
  for (int i = 0; i < 5; ++i)
    (void)sw.process(frame_for(order("AAPL", 1, 1)), 10 + i);
  (void)sw.process(frame_for(order("MSFT", 1, 1)), 16);
  EXPECT_EQ(sw.registers().read(0, 50), 5u);
}

TEST(Switch, ResourceAuditForLargePipeline) {
  auto schema = spec::make_itch_schema();
  std::string rules;
  for (int i = 0; i < 500; ++i) {
    rules += "stock == S" + std::to_string(i) + " and price > " +
             std::to_string(i * 10) + " : fwd(" + std::to_string(i % 64) +
             ")\n";
  }
  auto compiled = compiler::compile_source(schema, rules);
  ASSERT_TRUE(compiled.ok());
  switchsim::Switch sw(schema, compiled.value().pipeline);
  EXPECT_TRUE(sw.fits());
  const auto res = sw.resources();
  EXPECT_GT(res.logical_entries, 500u);
}

// Every entry point runs the compiled engine: on a program whose leading
// stage is the exact-match symbol table, process(), process_generic() and
// classify() each probe the hot-key memo; on a pipeline the flattener
// refuses, all three still answer through the Pipeline::evaluate fallback.
TEST(Switch, EveryEntryPointRunsTheCompiledEngine) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions co;
  co.order = bdd::OrderHeuristic::kExactFirst;
  auto compiled = compiler::compile_source(schema, R"(
    stock == GOOGL : fwd(1)
    stock == MSFT and price > 1000 : fwd(2)
  )", co);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  switchsim::Switch sw(schema, compiled.value().pipeline);
  ASSERT_GT(sw.compiled().prefix_stages(), 0u);

  const auto googl = order("GOOGL", 1, 5);
  const switchsim::ItchFieldExtractor ex(schema);
  const auto googl_generic =
      proto::encode_generic_packet(schema, ex.extract(googl));
  const std::vector<std::uint16_t> port1{1};

  std::uint64_t probes = sw.batch_stats().memo_probes;
  EXPECT_EQ(sw.process(frame_for(googl), 0).size(), 1u);
  EXPECT_GT(sw.batch_stats().memo_probes, probes);
  probes = sw.batch_stats().memo_probes;
  EXPECT_EQ(sw.process_generic(googl_generic, 0).size(), 1u);
  EXPECT_GT(sw.batch_stats().memo_probes, probes);
  probes = sw.batch_stats().memo_probes;
  EXPECT_EQ(sw.classify(ex.extract(googl), 0).ports, port1);
  EXPECT_GT(sw.batch_stats().memo_probes, probes);
  EXPECT_GT(sw.batch_stats().memo_hits, 0u);  // GOOGL's key repeated

  // A leaf state beyond the dense-id cap leaves the pipeline unflattened.
  const table::StateId huge = 1u << 25;
  table::Pipeline p;
  table::Table t("stock", lang::Subject::field(1), table::MatchKind::kExact,
                 64);
  t.add_entry({table::kInitialState,
               table::ValueMatch::exact(googl.stock_key()), huge});
  p.tables.push_back(std::move(t));
  table::LeafEntry e;
  e.state = huge;
  e.actions.add_port(5);
  p.leaf.add_entry(e);
  switchsim::Switch fallback(schema, p);
  ASSERT_FALSE(fallback.compiled().valid());

  const std::vector<std::uint16_t> port5{5};
  EXPECT_EQ(fallback.process(frame_for(googl), 0).size(), 1u);
  EXPECT_EQ(fallback.process_generic(googl_generic, 0).size(), 1u);
  EXPECT_EQ(fallback.classify(ex.extract(googl), 0).ports, port5);
  EXPECT_TRUE(
      fallback.classify(ex.extract(order("MSFT", 1, 5)), 0).ports.empty());
  EXPECT_EQ(fallback.counters().matched, 2u);
  EXPECT_EQ(fallback.batch_stats().memo_probes, 0u);
}

}  // namespace
