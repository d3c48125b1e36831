// SwitchCounters semantics, uniform across the frame entry points:
// every ingress frame increments rx_frames and exactly one of
// parse_errors/dropped/matched; multicast_frames counts frames (never
// messages) replicated to more than one distinct egress port.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "proto/generic.hpp"
#include "proto/packet.hpp"
#include "reference_switch.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "util/intern.hpp"

namespace {

using namespace camus;

// GOOGL -> ports {1, 2} (multicast), MSFT -> port 1 (unicast), rest drop.
constexpr std::string_view kRules = R"(
  stock == GOOGL : fwd(1)
  stock == GOOGL : fwd(2)
  stock == MSFT : fwd(1)
)";

proto::ItchAddOrder order(std::string stock) {
  proto::ItchAddOrder m;
  m.stock = std::move(stock);
  m.shares = 1;
  m.price = 100;
  return m;
}

std::vector<std::uint8_t> batch_frame(
    const std::vector<proto::ItchAddOrder>& msgs) {
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  return proto::encode_market_data_packet(eth, 1, 2, mold, msgs);
}

table::Pipeline make_pipeline(const spec::Schema& schema) {
  auto c = compiler::compile_source(schema, kRules);
  EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
  return c.value().pipeline;
}

switchsim::Switch make_switch(const spec::Schema& schema) {
  return switchsim::Switch(schema, make_pipeline(schema));
}

// Message-level forwarding of a single frame: a one-frame batch.
std::vector<switchsim::Switch::TxPacket> process_one(
    switchsim::Switch& sw, std::span<const std::uint8_t> frame) {
  const switchsim::Switch::Frame in{frame, 0};
  return sw.process_batch({&in, 1});
}

void expect_frame_invariant(const switchsim::SwitchCounters& c) {
  EXPECT_EQ(c.rx_frames, c.parse_errors + c.dropped + c.matched);
  EXPECT_LE(c.multicast_frames, c.matched);
}

TEST(Counters, ProcessPath) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema);

  EXPECT_EQ(sw.process(batch_frame({order("GOOGL")}), 0).size(), 2u);
  EXPECT_EQ(sw.process(batch_frame({order("MSFT")}), 0).size(), 1u);
  EXPECT_TRUE(sw.process(batch_frame({order("IBM")}), 0).empty());
  std::vector<std::uint8_t> junk(16, 0xee);
  EXPECT_TRUE(sw.process(junk, 0).empty());

  const auto& c = sw.counters();
  EXPECT_EQ(c.rx_frames, 4u);
  EXPECT_EQ(c.parse_errors, 1u);
  EXPECT_EQ(c.matched, 2u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.tx_copies, 3u);
  EXPECT_EQ(c.multicast_frames, 1u);  // only the GOOGL frame fanned out
  expect_frame_invariant(c);
}

TEST(Counters, ProcessGenericPath) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema);

  auto fields_for = [&](const std::string& stock) {
    std::vector<std::uint64_t> fields(schema.fields().size(), 0);
    fields[*schema.resolve_field("stock")] = util::encode_symbol(stock);
    return fields;
  };
  auto frame_for = [&](const std::string& stock) {
    return proto::encode_generic_packet(schema, fields_for(stock));
  };

  EXPECT_EQ(sw.process_generic(frame_for("GOOGL"), 0).size(), 2u);
  EXPECT_EQ(sw.process_generic(frame_for("MSFT"), 0).size(), 1u);
  EXPECT_TRUE(sw.process_generic(frame_for("IBM"), 0).empty());
  std::vector<std::uint8_t> junk(8, 0x11);
  EXPECT_TRUE(sw.process_generic(junk, 0).empty());

  const auto& c = sw.counters();
  EXPECT_EQ(c.rx_frames, 4u);
  EXPECT_EQ(c.parse_errors, 1u);
  EXPECT_EQ(c.matched, 2u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.tx_copies, 3u);
  EXPECT_EQ(c.multicast_frames, 1u);
  expect_frame_invariant(c);
}

TEST(Counters, ProcessMessagesCountsFramesNotMessages) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema);

  // Two multicast-matching messages in ONE frame: multicast_frames must
  // advance once (the old per-message accounting counted 2 here).
  auto out = process_one(sw, batch_frame({order("GOOGL"), order("GOOGL")}));
  EXPECT_EQ(out.size(), 2u);  // ports 1 and 2
  EXPECT_EQ(sw.counters().multicast_frames, 1u);
  EXPECT_EQ(sw.counters().tx_copies, 2u);  // one re-framed packet per port

  // Unicast messages reaching a single port: not multicast.
  out = process_one(sw, batch_frame({order("MSFT"), order("IBM")}));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(sw.counters().multicast_frames, 1u);

  // A frame is multicast when its messages COLLECTIVELY reach > 1 port,
  // even if each message is unicast.
  out = process_one(sw, batch_frame({order("GOOGL"), order("MSFT")}));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(sw.counters().multicast_frames, 2u);

  EXPECT_TRUE(process_one(sw, batch_frame({order("IBM")})).empty());
  std::vector<std::uint8_t> junk(16, 0x77);
  EXPECT_TRUE(process_one(sw, junk).empty());

  const auto& c = sw.counters();
  EXPECT_EQ(c.rx_frames, 5u);
  EXPECT_EQ(c.parse_errors, 1u);
  EXPECT_EQ(c.matched, 3u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.tx_copies, 5u);
  expect_frame_invariant(c);
}

TEST(Counters, PathsAgreeOnSingleMessageFrames) {
  // For single-message frames frame-level and message-level forwarding
  // must report identical frame-granularity counters.
  auto schema = spec::make_itch_schema();
  auto sw_frame = make_switch(schema);
  auto sw_msgs = make_switch(schema);

  for (const char* stock : {"GOOGL", "MSFT", "IBM", "GOOGL"}) {
    const auto frame = batch_frame({order(stock)});
    sw_frame.process(frame, 0);
    process_one(sw_msgs, frame);
  }
  const auto& a = sw_frame.counters();
  const auto& b = sw_msgs.counters();
  EXPECT_EQ(a.rx_frames, b.rx_frames);
  EXPECT_EQ(a.parse_errors, b.parse_errors);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.multicast_frames, b.multicast_frames);
}

void expect_counters_equal(const switchsim::SwitchCounters& a,
                           const switchsim::SwitchCounters& b) {
  EXPECT_EQ(a.rx_frames, b.rx_frames);
  EXPECT_EQ(a.parse_errors, b.parse_errors);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.tx_copies, b.tx_copies);
  EXPECT_EQ(a.multicast_frames, b.multicast_frames);
  EXPECT_EQ(a.state_updates, b.state_updates);
}

// Full counter differential — reference interpreter vs one batch vs
// one-frame batches — over a multicast-heavy workload: every multicast
// shape the account_frame() helper distinguishes (replicated ActionSet,
// cross-port unicast union, same-port unicast union, drop, junk)
// interleaved. All three must land on identical counters and packets.
TEST(Counters, MulticastHeavyDifferentialAcrossPaths) {
  auto schema = spec::make_itch_schema();
  oracle::ReferenceSwitch sw_ref(schema, make_pipeline(schema));
  auto sw_batch = make_switch(schema);
  auto sw_single = make_switch(schema);

  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 80; ++i) {
    switch (i % 5) {
      case 0:  // multicast ActionSet: one message reaching ports {1,2}
        frames.push_back(batch_frame({order("GOOGL"), order("GOOGL")}));
        break;
      case 1:  // unicast + drop: single distinct port
        frames.push_back(batch_frame({order("MSFT"), order("IBM")}));
        break;
      case 2:  // two individually-unicast messages, distinct ports: the
               // frame is multicast even though no message is
        frames.push_back(batch_frame({order("GOOGL"), order("MSFT")}));
        break;
      case 3:  // all-miss frame: dropped
        frames.push_back(batch_frame({order("IBM")}));
        break;
      default:  // unparseable: parse_errors
        frames.push_back(std::vector<std::uint8_t>(16, 0x77));
        break;
    }
  }

  // sw_single's views die at its next call: keep copies.
  std::vector<oracle::Packet> out_ref, out_single, out_batch;
  std::vector<switchsim::Switch::Frame> batch;
  for (const auto& f : frames) {
    for (auto& tx : sw_ref.process(f, 0)) out_ref.push_back(std::move(tx));
    for (const auto& tx : process_one(sw_single, f))
      out_single.push_back(oracle::own(tx));
    batch.push_back({f, 0});
  }
  for (const auto& tx : sw_batch.process_batch(batch))
    out_batch.push_back(oracle::own(tx));

  ASSERT_GT(sw_ref.counters().multicast_frames, 0u);
  expect_counters_equal(sw_ref.counters(), sw_batch.counters());
  expect_counters_equal(sw_ref.counters(), sw_single.counters());
  expect_frame_invariant(sw_batch.counters());

  ASSERT_EQ(out_ref.size(), out_batch.size());
  ASSERT_EQ(out_ref.size(), out_single.size());
  for (std::size_t i = 0; i < out_ref.size(); ++i) {
    EXPECT_EQ(out_ref[i].port, out_batch[i].port) << "packet " << i;
    EXPECT_EQ(out_ref[i].frame, out_batch[i].frame) << "packet " << i;
    EXPECT_EQ(out_ref[i].port, out_single[i].port) << "packet " << i;
    EXPECT_EQ(out_ref[i].frame, out_single[i].frame) << "packet " << i;
  }
}

}  // namespace
