// Differential test for the data-plane engine: Switch::process_batch must
// be bit-identical to the per-message reference interpreter
// (reference_switch.hpp) — TxPacket sequences (port and frame bytes),
// SwitchCounters, and register state — on >= 10k nasdaq-replay messages
// with malformed/truncated frames interleaved, across batch sizes, with
// stateful rules, a reprogram mid-stream (hot-key memo invalidation), and
// the non-flattenable fallback path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "proto/packet.hpp"
#include "reference_switch.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;
using oracle::ReferenceSwitch;
using switchsim::Switch;

struct RunResult {
  std::vector<Switch::TxPacket> pkts;
  switchsim::SwitchCounters counters;
  std::vector<std::uint64_t> regs;  // snapshot at final_time
};

RunResult run_reference(ReferenceSwitch& sw,
                        const std::vector<workload::PackedFrame>& frames,
                        std::uint64_t final_time) {
  RunResult r;
  for (const auto& f : frames) {
    auto out = sw.process(f.bytes, f.t_us);
    for (auto& tx : out) r.pkts.push_back(std::move(tx));
  }
  r.counters = sw.counters();
  r.regs = sw.registers().snapshot(final_time);
  return r;
}

RunResult run_batched(Switch& sw,
                      const std::vector<workload::PackedFrame>& frames,
                      std::size_t batch_size, std::uint64_t final_time) {
  RunResult r;
  std::vector<Switch::Frame> batch;
  for (std::size_t i = 0; i < frames.size(); i += batch_size) {
    batch.clear();
    for (std::size_t j = i; j < std::min(i + batch_size, frames.size()); ++j)
      batch.push_back({frames[j].bytes, frames[j].t_us});
    auto out = sw.process_batch(batch);
    for (auto& tx : out) r.pkts.push_back(std::move(tx));
  }
  r.counters = sw.counters();
  r.regs = sw.registers().snapshot(final_time);
  return r;
}

void expect_identical(const RunResult& ref, const RunResult& fast) {
  ASSERT_EQ(ref.pkts.size(), fast.pkts.size());
  for (std::size_t i = 0; i < ref.pkts.size(); ++i) {
    ASSERT_EQ(ref.pkts[i].port, fast.pkts[i].port) << "packet " << i;
    ASSERT_EQ(ref.pkts[i].frame, fast.pkts[i].frame) << "packet " << i;
  }
  EXPECT_EQ(ref.counters.rx_frames, fast.counters.rx_frames);
  EXPECT_EQ(ref.counters.parse_errors, fast.counters.parse_errors);
  EXPECT_EQ(ref.counters.dropped, fast.counters.dropped);
  EXPECT_EQ(ref.counters.matched, fast.counters.matched);
  EXPECT_EQ(ref.counters.tx_copies, fast.counters.tx_copies);
  EXPECT_EQ(ref.counters.multicast_frames, fast.counters.multicast_frames);
  EXPECT_EQ(ref.counters.state_updates, fast.counters.state_updates);
  EXPECT_EQ(ref.regs, fast.regs);
}

table::Pipeline itch_pipeline(std::uint64_t seed, std::size_t n_subs,
                              std::vector<std::string>* symbols_out,
                              bdd::OrderHeuristic order =
                                  bdd::OrderHeuristic::kExactFirst) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = seed;
  sp.n_subscriptions = n_subs;
  sp.n_symbols = 200;
  sp.n_hosts = 24;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  if (symbols_out) *symbols_out = subs.symbols;
  compiler::CompileOptions co;
  co.order = order;
  return compiler::compile_rules(schema, subs.rules, co).take().pipeline;
}

// Well-formed feed frames plus hand-corrupted variants interleaved: the
// scan path must settle every malformed shape exactly like the decode
// path.
std::vector<workload::PackedFrame> mixed_frames(
    const std::vector<std::string>& symbols, std::size_t n_messages) {
  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = n_messages;
  fp.symbols = symbols;
  fp.price_min = 1;
  fp.price_max = 900;
  auto feed = workload::generate_feed(fp);
  auto good = workload::pack_feed_frames(feed, 4);

  // Corruptions derived from a healthy template frame.
  const std::vector<std::uint8_t>& g = good.front().bytes;
  proto::MarketDataView view;
  std::vector<std::uint32_t> offs;
  EXPECT_TRUE(proto::scan_market_data_packet(g, view, offs));
  EXPECT_FALSE(offs.empty());
  constexpr std::size_t kMoldCountOff = 14 + 20 + 8 + 18;

  std::vector<std::vector<std::uint8_t>> bad;
  bad.emplace_back();                                        // empty frame
  bad.emplace_back(g.begin(), g.begin() + 10);               // truncated eth
  bad.emplace_back(g.begin(), g.begin() + 20);               // truncated ip
  bad.emplace_back(g.begin(), g.end() - 10);                 // short payload
  auto ether = g;  ether[12] = 0x08; ether[13] = 0x06;       // ARP ethertype
  bad.push_back(ether);
  auto ver = g;    ver[14] = 0x55;                           // IP version 5
  bad.push_back(ver);
  auto proto_ = g; proto_[23] = 6;                           // TCP, not UDP
  bad.push_back(proto_);
  auto count = g;  count[kMoldCountOff] = 0xff;              // count overrun
  bad.push_back(count);
  auto zero = g;   zero[kMoldCountOff] = 0; zero[kMoldCountOff + 1] = 0;
  bad.push_back(zero);       // zero messages: parses, nothing to classify
  auto junk = std::vector<std::uint8_t>(64, 0xab);           // random bytes
  bad.push_back(junk);

  // Payload-level damage: a bad side byte and a non-add-order type skip
  // single messages without rejecting the frame.
  auto side = g;   side[offs[0] + 19] = 'X';
  bad.push_back(side);
  auto type = g;   type[offs.back()] = 'Z';
  bad.push_back(type);
  auto trail = g;  trail.insert(trail.end(), {1, 2, 3, 4, 5});
  bad.push_back(trail);      // trailing bytes beyond udp length: ignored
  auto allbad = g;
  for (std::uint32_t o : offs) allbad[o + 19] = 'Q';
  bad.push_back(allbad);     // every message skipped -> parse error

  std::vector<workload::PackedFrame> frames;
  frames.reserve(good.size() + good.size() / 40 + bad.size());
  std::size_t next_bad = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i % 41 == 40) {
      workload::PackedFrame pf;
      pf.t_us = good[i].t_us;
      pf.bytes = bad[next_bad++ % bad.size()];
      frames.push_back(std::move(pf));
    }
    frames.push_back(good[i]);
  }
  return frames;
}

TEST(ProcessBatch, DifferentialAcrossBatchSizes) {
  std::vector<std::string> symbols;
  auto pipeline = itch_pipeline(1, 400, &symbols);
  const auto frames = mixed_frames(symbols, 12000);
  const std::uint64_t final_time = frames.back().t_us + 1;

  ReferenceSwitch sw_ref(spec::make_itch_schema(), pipeline);
  const auto ref = run_reference(sw_ref, frames, final_time);
  ASSERT_GT(ref.pkts.size(), 0u);
  ASSERT_GT(ref.counters.parse_errors, 0u);

  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            frames.size()}) {
    Switch sw_fast(spec::make_itch_schema(), pipeline);
    const auto fast = run_batched(sw_fast, frames, batch, final_time);
    expect_identical(ref, fast);
    const auto& bs = sw_fast.batch_stats();
    EXPECT_GT(bs.memo_probes, 0u);
    EXPECT_LE(bs.memo_hits, bs.memo_probes);
  }
}

// Declared ordering leaves a range table first (no memo prefix): the
// batched path must stay identical with the memo disabled.
TEST(ProcessBatch, DifferentialWithoutMemoPrefix) {
  std::vector<std::string> symbols;
  auto pipeline =
      itch_pipeline(2, 300, &symbols, bdd::OrderHeuristic::kDeclared);
  const auto frames = mixed_frames(symbols, 10000);
  const std::uint64_t final_time = frames.back().t_us + 1;

  ReferenceSwitch sw_ref(spec::make_itch_schema(), pipeline);
  Switch sw_fast(spec::make_itch_schema(), pipeline);
  const auto ref = run_reference(sw_ref, frames, final_time);
  const auto fast = run_batched(sw_fast, frames, 64, final_time);
  expect_identical(ref, fast);
}

// Stateful rules: register updates are order-sensitive and feed back into
// classification (windowed average gating), so this catches any snapshot
// staleness in the batched path's cached register view.
TEST(ProcessBatch, DifferentialStatefulRules) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_source(schema, R"(
    stock == GOOGL and avg(price) > 1000 : fwd(1)
    stock == GOOGL : update(avg_price)
    stock == MSFT : fwd(2); update(my_counter)
    stock == AAPL and price > 500 : fwd(3)
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const auto& pipeline = compiled.value().pipeline;

  // Frames crossing window boundaries (windows are 100us wide), with
  // prices straddling the avg threshold.
  const char* names[] = {"GOOGL", "MSFT", "AAPL", "OTHER"};
  std::vector<workload::PackedFrame> frames;
  for (int i = 0; i < 400; ++i) {
    std::vector<proto::ItchAddOrder> msgs;
    for (int m = 0; m < 3; ++m) {
      proto::ItchAddOrder o;
      o.stock = names[(i + m) % 4];
      o.side = m % 2 ? 'S' : 'B';
      o.shares = static_cast<std::uint32_t>(1 + i);
      o.price = static_cast<std::uint32_t>(200 + 37 * ((i * 3 + m) % 60));
      msgs.push_back(std::move(o));
    }
    proto::MoldUdp64Header mold;
    mold.session = "CAMUS00001";
    mold.sequence = static_cast<std::uint64_t>(1 + i * 3);
    workload::PackedFrame pf;
    pf.t_us = static_cast<std::uint64_t>(i) * 13;  // rolls windows mid-run
    pf.bytes = proto::encode_market_data_packet(proto::EthernetHeader{}, 1,
                                                2, mold, msgs);
    frames.push_back(std::move(pf));
  }
  const std::uint64_t final_time = frames.back().t_us + 1;

  ReferenceSwitch sw_ref(schema, pipeline);
  Switch sw_fast(schema, pipeline);
  const auto ref = run_reference(sw_ref, frames, final_time);
  const auto fast = run_batched(sw_fast, frames, 32, final_time);
  ASSERT_GT(ref.counters.state_updates, 0u);
  expect_identical(ref, fast);
}

// Reprogramming mid-stream must invalidate the hot-key memo: cached
// prefix outcomes for the old tables would otherwise leak into the new
// program's classifications.
TEST(ProcessBatch, ReprogramInvalidatesMemo) {
  std::vector<std::string> symbols;
  auto pipe_a = itch_pipeline(3, 300, &symbols);
  auto pipe_b = itch_pipeline(4, 300, nullptr);  // different rules/ports
  const auto frames = mixed_frames(symbols, 10000);
  const std::uint64_t final_time = frames.back().t_us + 1;
  const std::size_t half = frames.size() / 2;
  const std::vector<workload::PackedFrame> first(frames.begin(),
                                                 frames.begin() + half);
  const std::vector<workload::PackedFrame> second(frames.begin() + half,
                                                  frames.end());

  ReferenceSwitch sw_ref(spec::make_itch_schema(), pipe_a);
  Switch sw_fast(spec::make_itch_schema(), pipe_a);

  RunResult ref = run_reference(sw_ref, first, final_time);
  RunResult fast = run_batched(sw_fast, first, 64, final_time);
  sw_ref.reprogram(pipe_b);
  sw_fast.reprogram(pipe_b);
  const RunResult ref2 = run_reference(sw_ref, second, final_time);
  const RunResult fast2 = run_batched(sw_fast, second, 64, final_time);

  for (const auto& tx : ref2.pkts) ref.pkts.push_back(tx);
  for (const auto& tx : fast2.pkts) fast.pkts.push_back(tx);
  ref.counters = ref2.counters;
  fast.counters = fast2.counters;
  ref.regs = ref2.regs;
  fast.regs = fast2.regs;
  expect_identical(ref, fast);
}

// A pipeline the flattener refuses (leaf state far beyond the dense-id
// cap) must push the batched path onto the Pipeline::evaluate fallback —
// still bit-identical.
TEST(ProcessBatch, FallbackWhenPipelineNotFlattenable) {
  auto schema = spec::make_itch_schema();
  // Field id of "stock" comes from the extractor order: shares=0, stock=1,
  // price=2 per the spec text; match GOOGL's 64-bit symbol key.
  proto::ItchAddOrder probe;
  probe.stock = "GOOGL";
  const std::uint64_t googl = probe.stock_key();
  const table::StateId huge = 1u << 25;  // > kMaxDenseStates

  table::Pipeline p;
  table::Table t("stock", lang::Subject::field(1), table::MatchKind::kExact,
                 64);
  t.add_entry({table::kInitialState, table::ValueMatch::exact(googl), huge});
  p.tables.push_back(std::move(t));
  table::LeafEntry e;
  e.state = huge;
  e.actions.add_port(5);
  p.leaf.add_entry(e);
  p.finalize();

  ReferenceSwitch sw_ref(schema, p);
  Switch sw_fast(schema, p);
  ASSERT_FALSE(sw_fast.compiled().valid());

  std::vector<workload::PackedFrame> frames;
  const char* names[] = {"GOOGL", "MSFT"};
  for (int i = 0; i < 200; ++i) {
    proto::ItchAddOrder o;
    o.stock = names[i % 2];
    o.price = 100;
    o.shares = 1;
    proto::MoldUdp64Header mold;
    mold.session = "CAMUS00001";
    mold.sequence = static_cast<std::uint64_t>(i + 1);
    workload::PackedFrame pf;
    pf.t_us = static_cast<std::uint64_t>(i);
    pf.bytes = proto::encode_market_data_packet(proto::EthernetHeader{}, 1,
                                                2, mold, {o});
    frames.push_back(std::move(pf));
  }
  const auto ref = run_reference(sw_ref, frames, 1000);
  const auto fast = run_batched(sw_fast, frames, 16, 1000);
  ASSERT_EQ(ref.pkts.size(), 100u);  // every GOOGL frame forwarded
  expect_identical(ref, fast);
}

// The hot-key memo keys on the prefix signature plus the raw prefix key
// words alone. When a prefix stage matches a REGISTER subject, soundness
// relies on prefix_key() copying the register's snapshot value into the
// key itself (see Switch::current_data_plane). This pipeline puts an
// exact-match my_counter stage FIRST — so it lands inside the memo
// prefix — has every matched message bump that counter, and replays
// traffic long enough that counter values repeat across many 100us
// window rollovers. A memo that ignored register state would replay
// stale post-prefix states here and diverge from the reference path.
TEST(ProcessBatch, StatefulPrefixMemoAcrossRegisterRollover) {
  auto schema = spec::make_itch_schema();
  const auto var = schema.resolve_state_var("my_counter");
  ASSERT_TRUE(var.has_value());

  // counter==0,1,2 -> distinct leaves (ports 1,2,3), each updating the
  // counter; counter>=3 misses the table, reaches no leaf, and drops
  // until the window rolls the counter back to 0.
  table::Pipeline p;
  table::Table t("count", lang::Subject::state(*var),
                 table::MatchKind::kExact, 64);
  for (std::uint64_t v = 0; v < 3; ++v)
    t.add_entry({table::kInitialState, table::ValueMatch::exact(v),
                 static_cast<table::StateId>(v + 1)});
  p.tables.push_back(std::move(t));
  for (std::uint32_t s = 1; s <= 3; ++s) {
    table::LeafEntry e;
    e.state = s;
    e.actions.add_port(static_cast<std::uint16_t>(s));
    e.actions.state_updates.push_back(*var);
    p.leaf.add_entry(std::move(e));
  }
  p.finalize();

  ReferenceSwitch sw_ref(schema, p);
  Switch sw_fast(schema, p);
  ASSERT_TRUE(sw_fast.compiled().valid());
  ASSERT_EQ(sw_fast.compiled().prefix_stages(), 1u);

  // One message per frame, 13us apart: the 100us counter window rolls
  // over every ~8 frames, so the prefix key cycles 0,1,2 continuously.
  std::vector<workload::PackedFrame> frames;
  for (int i = 0; i < 600; ++i) {
    proto::ItchAddOrder o;
    o.stock = i % 2 ? "GOOGL" : "MSFT";
    o.price = 100;
    o.shares = 1;
    proto::MoldUdp64Header mold;
    mold.session = "CAMUS00001";
    mold.sequence = static_cast<std::uint64_t>(i + 1);
    workload::PackedFrame pf;
    pf.t_us = static_cast<std::uint64_t>(i) * 13;
    pf.bytes = proto::encode_market_data_packet(proto::EthernetHeader{}, 1,
                                                2, mold, {o});
    frames.push_back(std::move(pf));
  }
  const std::uint64_t final_time = frames.back().t_us + 1;
  const auto ref = run_reference(sw_ref, frames, final_time);
  const auto fast = run_batched(sw_fast, frames, 32, final_time);
  ASSERT_GT(ref.counters.state_updates, 0u);
  ASSERT_GT(ref.counters.dropped, 0u);  // counter saturates inside windows
  expect_identical(ref, fast);
  // The memo must actually be exercised: keys repeat across rollovers.
  EXPECT_GT(sw_fast.batch_stats().memo_probes, 0u);
  EXPECT_GT(sw_fast.batch_stats().memo_hits, 0u);
}

}  // namespace
