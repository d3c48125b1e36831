// Differential test for the data-plane engine: Switch::process_batch must
// be bit-identical to the per-message reference interpreter
// (reference_switch.hpp) — TxPacket sequences (port and frame bytes),
// SwitchCounters, and register state — on >= 10k nasdaq-replay messages
// with malformed/truncated frames interleaved, across batch sizes, in 4-
// and 40-message frames (egress ports 0 and 65535 among them), with
// stateful rules, a reprogram mid-stream (hot-key memo invalidation),
// state ids far beyond any dense array, and frames of up to 1,723 messages
// fanned out to 200 ports, where one built packet serves every port of a
// frame with the same messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "proto/packet.hpp"
#include "reference_switch.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "util/rng.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;
using oracle::ReferenceSwitch;
using switchsim::Switch;

struct RunResult {
  std::vector<oracle::Packet> pkts;
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
    // The views die at the next call: keep copies.
    for (const auto& tx : sw.process_batch(batch))
      r.pkts.push_back(oracle::own(tx));
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

// Moves a rule's egress ports before compilation.
using PortRemap = void (*)(lang::ActionSet&);

table::Pipeline itch_pipeline(std::uint64_t seed, std::size_t n_subs,
                              std::vector<std::string>* symbols_out,
                              bdd::OrderHeuristic order =
                                  bdd::OrderHeuristic::kExactFirst,
                              PortRemap remap = nullptr) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = seed;
  sp.n_subscriptions = n_subs;
  sp.n_symbols = 200;
  sp.n_hosts = 24;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  if (symbols_out) *symbols_out = subs.symbols;
  if (remap)
    for (auto& rule : subs.rules) remap(rule.actions);
  compiler::CompileOptions co;
  co.order = order;
  return compiler::compile_rules(schema, subs.rules, co).take().pipeline;
}

// Hosts 1..24 moved to the edges of the port space: host 1 to port 0,
// host 24 to port 65535, host h to 2,000 h otherwise, and every rule also
// forwards to port 30,001, so every matched message shares one port.
void edge_ports(lang::ActionSet& actions) {
  lang::ActionSet moved;
  for (const std::uint16_t h : actions.ports)
    moved.add_port(h == 1    ? 0
                   : h == 24 ? 65535
                             : static_cast<std::uint16_t>(2000 * h));
  moved.add_port(30001);
  actions.ports = std::move(moved.ports);
}

// Well-formed feed frames plus hand-corrupted variants interleaved: the
// scan path must settle every malformed shape exactly like the decode
// path.
std::vector<workload::PackedFrame> mixed_frames(
    const std::vector<std::string>& symbols, std::size_t n_messages,
    std::size_t msgs_per_frame = 4,
    const std::string& session = "CAMUS00001") {
  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = n_messages;
  fp.symbols = symbols;
  fp.price_min = 1;
  fp.price_max = 900;
  auto feed = workload::generate_feed(fp);
  auto good = workload::pack_feed_frames(feed, msgs_per_frame, session);

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

// `ref` receives the reference run the batched runs are compared against.
void expect_identical_across_batch_sizes(
    const table::Pipeline& pipeline,
    const std::vector<workload::PackedFrame>& frames, RunResult& ref) {
  const std::uint64_t final_time = frames.back().t_us + 1;

  ReferenceSwitch sw_ref(spec::make_itch_schema(), pipeline);
  ref = run_reference(sw_ref, frames, final_time);
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

TEST(ProcessBatch, DifferentialAcrossBatchSizes) {
  std::vector<std::string> symbols;
  RunResult ref;
  {
    SCOPED_TRACE("4-message frames, ports 1..24");
    const auto pipeline = itch_pipeline(1, 400, &symbols);
    expect_identical_across_batch_sizes(pipeline,
                                        mixed_frames(symbols, 12000), ref);
  }
  {
    // The egress merge's edges: up to 40 cursors per frame, the lowest and
    // highest port values, and a tie across every matched message of a
    // frame. The session's trailing space is stripped by the decoder and
    // re-padded on the wire.
    SCOPED_TRACE("40-message frames, ports 0..65535 with one shared port");
    const auto pipeline = itch_pipeline(
        1, 4800, &symbols, bdd::OrderHeuristic::kExactFirst, edge_ports);
    expect_identical_across_batch_sizes(
        pipeline, mixed_frames(symbols, 12000, 40, "CAMUS "), ref);
    bool low = false, high = false;
    std::size_t widest = 0;  // most messages in one egress packet
    for (const auto& tx : ref.pkts) {
      low |= tx.port == 0;
      high |= tx.port == 65535;
      widest = std::max(widest, (tx.frame.size() - proto::kMarketHeaderSize) /
                                    (2 + proto::ItchAddOrder::kSize));
    }
    EXPECT_TRUE(low);
    EXPECT_TRUE(high);
    EXPECT_EQ(widest, 40u);  // the shared port carries whole frames
  }
}

// Frames [first, first + n) as one batch.
std::vector<Switch::Frame> batch_of(
    const std::vector<workload::PackedFrame>& frames, std::size_t first,
    std::size_t n) {
  std::vector<Switch::Frame> batch;
  for (std::size_t i = first; i < first + n; ++i)
    batch.push_back({frames[i].bytes, frames[i].t_us});
  return batch;
}

// The MoldUDP sequence number of an egress packet, which names the ingress
// frame that sent it: the feeds here give each frame its own.
std::uint64_t sequence_of(std::span<const std::uint8_t> frame) {
  std::uint64_t seq = 0;
  for (std::size_t k = 0; k < 8; ++k)
    seq = seq << 8 | frame[proto::kMarketHeaderSize - 10 + k];
  return seq;
}

// Checks the egress contract on one call's packets and returns where its
// buffer starts. The views lie in one buffer: the distinct ones tile one
// block without overlap or gap. Packets of one frame with equal bytes
// (equal messages) view the same bytes; `shared` counts those that view
// bytes an earlier packet of the call already viewed.
const std::uint8_t* expect_egress_contract(
    const std::vector<Switch::TxPacket>& out, std::size_t* shared) {
  std::vector<std::span<const std::uint8_t>> distinct;
  *shared = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto frame = out[k].frame;
    bool seen = false;
    for (std::size_t j = 0; j < k; ++j) {
      const auto other = out[j].frame;
      if (other.data() == frame.data()) {
        EXPECT_EQ(other.size(), frame.size()) << "packets " << j << ", " << k;
        seen = true;
      } else if (sequence_of(other) == sequence_of(frame) &&
                 std::equal(other.begin(), other.end(), frame.begin(),
                            frame.end())) {
        ADD_FAILURE() << "packets " << j << " and " << k
                      << " carry the same messages in separate copies";
      }
    }
    if (seen)
      ++*shared;
    else
      distinct.push_back(frame);
  }
  if (distinct.empty()) return nullptr;
  std::sort(distinct.begin(), distinct.end(),
            [](const auto& a, const auto& b) { return a.data() < b.data(); });
  for (std::size_t k = 0; k + 1 < distinct.size(); ++k)
    EXPECT_EQ(distinct[k].data() + distinct[k].size(), distinct[k + 1].data())
        << "distinct packets overlap or leave a gap";
  return distinct.front().data();
}

// The egress contract: a call's packets are views into one buffer the
// switch owns, where a frame's packets with the same messages view the
// same bytes and others do not overlap, and the next call reuses that
// buffer.
TEST(ProcessBatch, EgressViewsShareOneReusedBuffer) {
  std::vector<std::string> symbols;
  auto pipeline = itch_pipeline(5, 400, &symbols);
  const auto frames = mixed_frames(symbols, 2000);
  const auto batch = batch_of(frames, 0, 64);
  Switch sw(spec::make_itch_schema(), pipeline);
  (void)sw.process_batch(batch);  // warm: the buffer reaches its size

  const auto first = sw.process_batch(batch);
  ASSERT_GT(first.size(), 1u);
  std::size_t shared = 0;
  const std::uint8_t* start = expect_egress_contract(first, &shared);
  EXPECT_GT(shared, 0u);
  std::vector<oracle::Packet> kept;
  for (const auto& tx : first) kept.push_back(oracle::own(tx));

  // Stateless program, same frames: the same bytes, at the same address.
  const auto second = sw.process_batch(batch);
  ASSERT_EQ(second.size(), kept.size());
  EXPECT_EQ(expect_egress_contract(second, &shared), start);
  for (std::size_t k = 0; k < second.size(); ++k) {
    EXPECT_EQ(second[k].port, kept[k].port) << "packet " << k;
    EXPECT_EQ(second[k].frame.data(), first[k].frame.data()) << "packet " << k;
    EXPECT_EQ(oracle::own(second[k]).frame, kept[k].frame) << "packet " << k;
  }
}

// Views from one switch keep their bytes while another switch runs a
// batch on them: the spine -> leaf pattern of netsim::Fabric::inject,
// where the spine's egress views are the leaf's ingress frames.
TEST(ProcessBatch, EgressViewsOutliveOtherSwitches) {
  std::vector<std::string> symbols;
  auto pipeline = itch_pipeline(6, 400, &symbols);
  const auto frames = mixed_frames(symbols, 2000);
  Switch spine(spec::make_itch_schema(), pipeline);
  Switch leaf(spec::make_itch_schema(), pipeline);
  Switch leaf_ref(spec::make_itch_schema(), pipeline);

  const auto down = spine.process_batch(batch_of(frames, 0, 64));
  ASSERT_GT(down.size(), 1u);
  std::size_t shared = 0;
  ASSERT_NE(expect_egress_contract(down, &shared), nullptr);
  EXPECT_GT(shared, 0u);
  std::vector<oracle::Packet> kept;
  for (const auto& tx : down) kept.push_back(oracle::own(tx));

  // The leaf reads the spine's views in place and grows its own buffer.
  std::vector<Switch::Frame> hop, hop_ref;
  for (std::size_t k = 0; k < down.size(); ++k) {
    hop.push_back({down[k].frame, k});
    hop_ref.push_back({kept[k].frame, k});
  }
  const auto up = leaf.process_batch(hop);
  ASSERT_GT(up.size(), 0u);

  for (std::size_t k = 0; k < down.size(); ++k)
    EXPECT_EQ(oracle::own(down[k]).frame, kept[k].frame) << "packet " << k;
  // Fed from owned copies, a second leaf sends the same packets.
  const auto want = leaf_ref.process_batch(hop_ref);
  ASSERT_EQ(up.size(), want.size());
  for (std::size_t k = 0; k < up.size(); ++k) {
    EXPECT_EQ(up[k].port, want[k].port) << "packet " << k;
    EXPECT_EQ(oracle::own(up[k]).frame, oracle::own(want[k]).frame)
        << "packet " << k;
  }
}

// One copy per distinct packet, on frames wider than a 64-bit message
// mask: 200 ports over frames of 1 to 1,723 add-orders (a full frame).
// Ports 1-100 subscribe by symbol in four groups of 25, so the ports of a
// group get equal lists; ports 101-180 by price thresholds, so their lists
// nest and mostly differ; ports 181-200 take every message, so they share
// the whole frame. One frame leads with 100 AAPL orders and then
// alternates GOOGL and MSFT, so the {AAPL, GOOGL} and {AAPL, MSFT} groups
// get lists of equal length that first differ at message 101. The engine
// must match the reference byte for byte and build exactly one packet per
// distinct (frame, message list).
TEST(ProcessBatch, SharedCopiesMatchReferenceOnWideFrames) {
  auto schema = spec::make_itch_schema();
  const std::string names[] = {"AAPL", "GOOGL", "MSFT", "IBM", "ORCL"};
  const std::string groups[] = {"stock == AAPL or stock == GOOGL",
                                "stock == AAPL or stock == MSFT",
                                "stock == IBM", "stock == GOOGL"};
  std::string rules;
  for (int p = 1; p <= 100; ++p)
    rules += groups[p % 4] + " : fwd(" + std::to_string(p) + ")\n";
  for (int p = 101; p <= 180; ++p)
    rules += "price > " + std::to_string((p - 100) * 11) + " : fwd(" +
             std::to_string(p) + ")\n";
  for (int p = 181; p <= 200; ++p)
    rules += "shares > 0 : fwd(" + std::to_string(p) + ")\n";
  auto compiled = compiler::compile_source(schema, rules);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const table::Pipeline& pipeline = compiled.value().pipeline;

  util::Rng rng(26);
  std::vector<workload::PackedFrame> frames;
  std::uint64_t sequence = 1;
  // Appends one frame of these symbols at random prices and sizes.
  const auto add_frame = [&](const std::vector<std::string>& stocks) {
    std::vector<proto::ItchAddOrder> msgs(stocks.size());
    for (std::size_t k = 0; k < msgs.size(); ++k) {
      msgs[k].order_ref = sequence + k;
      msgs[k].stock = stocks[k];
      msgs[k].price = static_cast<std::uint32_t>(rng.uniform(1, 1000));
      msgs[k].shares = static_cast<std::uint32_t>(rng.uniform(1, 1000));
    }
    proto::MoldUdp64Header mold;
    mold.sequence = sequence;
    sequence += msgs.size();
    workload::PackedFrame pf;
    pf.t_us = frames.size();
    pf.bytes = proto::encode_market_data_packet(proto::EthernetHeader{}, 1, 2,
                                                mold, msgs);
    pf.n_msgs = static_cast<std::uint32_t>(msgs.size());
    frames.push_back(std::move(pf));
  };
  for (const std::size_t n : {1, 4, 64, 65, 300, 4, 1723, 65, 1}) {
    std::vector<std::string> stocks(n);
    for (auto& stock : stocks) stock = names[rng.uniform(0, 4)];
    add_frame(stocks);
  }
  std::vector<std::string> stocks(300);
  for (std::size_t k = 0; k < stocks.size(); ++k)
    stocks[k] = k < 100 ? names[0] : names[1 + k % 2];
  add_frame(stocks);

  // The reference sends one packet per port; count each frame's distinct
  // packets, which are its distinct message lists (no frame repeats a
  // message).
  ReferenceSwitch sw_ref(schema, pipeline);
  RunResult ref;
  std::size_t distinct = 0;
  for (const auto& f : frames) {
    std::vector<std::vector<std::uint8_t>> lists;
    for (auto& tx : sw_ref.process(f.bytes, f.t_us)) {
      lists.push_back(tx.frame);
      ref.pkts.push_back(std::move(tx));
    }
    std::sort(lists.begin(), lists.end());
    distinct += std::unique(lists.begin(), lists.end()) - lists.begin();
  }
  const std::uint64_t final_time = frames.size();
  ref.counters = sw_ref.counters();
  ref.regs = sw_ref.registers().snapshot(final_time);
  ASSERT_EQ(ref.counters.matched, frames.size());
  ASSERT_LT(distinct, ref.counters.tx_copies);  // lists repeat...
  ASSERT_GT(distinct, 2 * frames.size());       // ...and differ
  std::size_t widest = 0;
  for (const auto& tx : ref.pkts)
    widest = std::max(widest, tx.frame.size());
  ASSERT_EQ(widest, proto::market_frame_raw_size(1723));

  for (const std::size_t batch : {std::size_t{1}, frames.size()}) {
    SCOPED_TRACE("batches of " + std::to_string(batch) + " frames");
    Switch sw(schema, pipeline);
    expect_identical(ref, run_batched(sw, frames, batch, final_time));
    EXPECT_EQ(sw.batch_stats().packets_built, distinct);
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

// State ids far beyond any dense array (2^25) are renumbered when the
// pipeline is lowered: the batched path still runs the compiled engine,
// memo included, and stays bit-identical to the reference.
TEST(ProcessBatch, SparseStateIdsRunCompiled) {
  auto schema = spec::make_itch_schema();
  // Field id of "stock" comes from the extractor order: shares=0, stock=1,
  // price=2 per the spec text; match GOOGL's 64-bit symbol key.
  proto::ItchAddOrder probe;
  probe.stock = "GOOGL";
  const std::uint64_t googl = probe.stock_key();
  const table::StateId huge = 1u << 25;

  table::Pipeline p;
  table::Table t("stock", lang::Subject::field(1), table::MatchKind::kExact,
                 64);
  t.add_entry({table::kInitialState, table::ValueMatch::exact(googl), huge});
  p.tables.push_back(std::move(t));
  table::LeafEntry e;
  e.state = huge;
  e.actions = std::make_shared<const lang::ActionSet>(lang::ActionSet{{5}, {}});
  p.leaf.add_entry(e);

  ReferenceSwitch sw_ref(schema, p);
  Switch sw_fast(schema, p);
  ASSERT_EQ(sw_fast.compiled().n_states(), 2u);  // initial + huge
  ASSERT_EQ(sw_fast.compiled().prefix_stages(), 1u);

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
  EXPECT_GT(sw_fast.batch_stats().memo_probes, 0u);
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
    e.actions = std::make_shared<const lang::ActionSet>(
        lang::ActionSet{{static_cast<std::uint16_t>(s)}, {*var}});
    p.leaf.add_entry(std::move(e));
  }

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
