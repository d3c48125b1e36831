// Message-level forwarding (Switch::process_batch, one-frame batches):
// multi-message MoldUDP packets are split per subscriber, each receiving
// exactly its matching messages.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "proto/packet.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"

namespace {

using namespace camus;

proto::ItchAddOrder order(std::string stock, std::uint32_t shares = 1) {
  proto::ItchAddOrder m;
  m.stock = std::move(stock);
  m.shares = shares;
  m.price = 100;
  return m;
}

std::vector<std::uint8_t> batch_frame(
    const std::vector<proto::ItchAddOrder>& msgs, std::uint64_t seq = 7) {
  proto::EthernetHeader eth;
  proto::MoldUdp64Header mold;
  mold.sequence = seq;
  return proto::encode_market_data_packet(eth, 1, 2, mold, msgs);
}

switchsim::Switch make_switch(const spec::Schema& schema,
                              std::string_view rules) {
  auto c = compiler::compile_source(schema, rules);
  EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
  return switchsim::Switch(schema, c.value().pipeline);
}

std::vector<switchsim::Switch::TxPacket> split(
    switchsim::Switch& sw, std::span<const std::uint8_t> frame,
    std::uint64_t now_us) {
  const switchsim::Switch::Frame in{frame, now_us};
  return sw.process_batch({&in, 1});
}

TEST(MessageSplit, EachSubscriberGetsItsSlice) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema, R"(
    stock == GOOGL : fwd(1)
    stock == MSFT : fwd(2)
    stock == GOOGL or stock == MSFT : fwd(3)
  )");

  const auto frame = batch_frame(
      {order("GOOGL"), order("MSFT"), order("IBM"), order("GOOGL")});
  auto out = split(sw, frame, 0);
  ASSERT_EQ(out.size(), 3u);  // ports 1, 2, 3

  auto decode = [](std::span<const std::uint8_t> f) {
    auto pkt = proto::decode_market_data_packet(f);
    EXPECT_TRUE(pkt.has_value());
    return *pkt;
  };

  // Port 1: the two GOOGL messages, original sequence preserved.
  EXPECT_EQ(out[0].port, 1);
  auto p1 = decode(out[0].frame);
  ASSERT_EQ(p1.itch.add_orders.size(), 2u);
  EXPECT_EQ(p1.itch.add_orders[0].stock, "GOOGL");
  EXPECT_EQ(p1.itch.add_orders[1].stock, "GOOGL");
  EXPECT_EQ(p1.itch.mold.sequence, 7u);
  EXPECT_EQ(p1.itch.mold.message_count, 2u);

  // Port 2: the MSFT message.
  EXPECT_EQ(out[1].port, 2);
  auto p2 = decode(out[1].frame);
  ASSERT_EQ(p2.itch.add_orders.size(), 1u);
  EXPECT_EQ(p2.itch.add_orders[0].stock, "MSFT");

  // Port 3: all three matching messages.
  EXPECT_EQ(out[2].port, 3);
  EXPECT_EQ(decode(out[2].frame).itch.add_orders.size(), 3u);
}

TEST(MessageSplit, AllMissProducesNothing) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema, "stock == GOOGL : fwd(1)");
  EXPECT_TRUE(split(sw, batch_frame({order("IBM"), order("ORCL")}), 0).empty());
  EXPECT_EQ(sw.counters().dropped, 1u);
}

TEST(MessageSplit, StateUpdatesFirePerMessage) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(
      schema, "stock == AAPL : fwd(1); update(my_counter)");
  const auto frame =
      batch_frame({order("AAPL"), order("AAPL"), order("IBM")});
  auto out = split(sw, frame, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sw.registers().read(0, 50), 2u);  // two AAPL messages counted
}

TEST(MessageSplit, MalformedCounted) {
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema, "stock == AAPL : fwd(1)");
  std::vector<std::uint8_t> junk(20, 0x55);
  EXPECT_TRUE(split(sw, junk, 0).empty());
  EXPECT_EQ(sw.counters().parse_errors, 1u);
}

TEST(MessageSplit, SplitFramesReparseCleanly) {
  // Round-trip invariant: every emitted frame is a well-formed market-data
  // packet whose messages all match the destination's subscriptions.
  auto schema = spec::make_itch_schema();
  auto sw = make_switch(schema, R"(
    shares > 500 : fwd(4)
    stock == NVDA : fwd(5)
  )");
  const auto frame = batch_frame({order("NVDA", 600), order("AMD", 700),
                                  order("NVDA", 10), order("AMD", 10)});
  auto out = split(sw, frame, 0);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& tx : out) {
    auto pkt = proto::decode_market_data_packet(tx.frame);
    ASSERT_TRUE(pkt.has_value());
    for (const auto& m : pkt->itch.add_orders) {
      if (tx.port == 4) {
        EXPECT_GT(m.shares, 500u);
      }
      if (tx.port == 5) {
        EXPECT_EQ(m.stock, "NVDA");
      }
    }
  }
}

}  // namespace
