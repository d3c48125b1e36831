// Camus pub/sub runtime: controller, publisher/subscriber endpoints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/p4gen.hpp"
#include "pubsub/endpoints.hpp"
#include "single_switch.hpp"
#include "spec/itch_spec.hpp"

namespace {

using namespace camus;

proto::ItchAddOrder order(std::string stock, std::uint32_t price = 100) {
  proto::ItchAddOrder m;
  m.stock = std::move(stock);
  m.price = price;
  m.shares = 10;
  return m;
}

TEST(Controller, SubscribeInterestOnlyForm) {
  fixture::SingleSwitch plant;
  ASSERT_TRUE(plant.ctl.subscribe(3, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(4, "stock == GOOGL : fwd(4)").ok());
  EXPECT_EQ(plant.ctl.subscription_count(), 2u);

  auto installed = plant.commit_and_install();
  ASSERT_TRUE(installed.ok()) << installed.error().to_string();
  pubsub::Publisher pub;
  const auto copies = plant.sw.process(pub.publish(order("GOOGL")), 0);
  std::vector<std::uint16_t> ports;
  for (const auto& c : copies) ports.push_back(c.port);
  EXPECT_EQ(ports, (std::vector<std::uint16_t>{3, 4}));
}

TEST(Controller, RejectsBadRules) {
  fixture::SingleSwitch plant;
  const std::string journal = plant.storage.load().value();
  EXPECT_FALSE(plant.ctl.subscribe(1, "nosuchfield == 5").ok());
  EXPECT_FALSE(plant.ctl.subscribe(1, "stock == ").ok());
  EXPECT_EQ(plant.ctl.subscription_count(), 0u);
  // Rejected before journaling: replay never sees them.
  EXPECT_EQ(plant.storage.load().value(), journal);
}

TEST(Controller, RecompilesOnChange) {
  fixture::SingleSwitch plant;
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == AAPL").ok());
  ASSERT_TRUE(plant.ctl.commit().ok());
  const auto entries1 = plant.program().total_entries();
  ASSERT_TRUE(plant.ctl.subscribe(2, "stock == MSFT and price > 100").ok());
  ASSERT_TRUE(plant.ctl.commit().ok());
  EXPECT_GT(plant.program().total_entries(), entries1);
}

TEST(Controller, EmitsP4AndControlPlane) {
  fixture::SingleSwitch plant;
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == GOOGL and price > 500").ok());
  ASSERT_TRUE(plant.ctl.commit().ok());

  const std::string p4 =
      compiler::generate_p4(plant.ctl.schema(), &plant.program());
  EXPECT_NE(p4.find("parser CamusParser"), std::string::npos);
  EXPECT_NE(p4.find("table tbl_add_order_stock"), std::string::npos);
  EXPECT_NE(p4.find("register"), std::string::npos);
  EXPECT_NE(p4.find("V1Switch"), std::string::npos);

  const std::string rules =
      compiler::generate_control_plane_rules(plant.program());
  EXPECT_NE(rules.find("table_add tbl_add_order_stock"), std::string::npos);
  EXPECT_NE(rules.find("table_add tbl_leaf"), std::string::npos);
}

TEST(Controller, CompiledBeforeCompileIsDiagnosed) {
  fixture::SingleSwitch plant;
  auto intended = plant.ctl.intended();
  ASSERT_FALSE(intended.ok());
  EXPECT_EQ(intended.error().code, "E122");
  auto installed = plant.ctl.install(plant.installer, pubsub::FabricDelta{});
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.error().code, "E122");
}

TEST(Controller, ClearResets) {
  fixture::SingleSwitch plant;
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == AAPL").ok());
  ASSERT_TRUE(plant.commit_and_install().ok());
  pubsub::Publisher pub;
  EXPECT_EQ(plant.sw.process(pub.publish(order("AAPL")), 0).size(), 1u);

  // The last subscriber leaves: the empty set compiles to drop-all.
  EXPECT_EQ(plant.ctl.unsubscribe(1).value(), 1u);
  EXPECT_EQ(plant.ctl.subscription_count(), 0u);
  ASSERT_TRUE(plant.commit_and_install().ok());
  EXPECT_TRUE(plant.sw.process(pub.publish(order("AAPL")), 0).empty());
}

TEST(Publisher, SequencesMoldUdp) {
  pubsub::Publisher pub;
  const auto f1 = pub.publish(order("A"));
  const auto f2 = pub.publish_batch({order("B"), order("C")});
  const auto f3 = pub.publish(order("D"));
  auto p1 = proto::decode_market_data_packet(f1);
  auto p2 = proto::decode_market_data_packet(f2);
  auto p3 = proto::decode_market_data_packet(f3);
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_EQ(p1->itch.mold.sequence, 1u);
  EXPECT_EQ(p2->itch.mold.sequence, 2u);
  EXPECT_EQ(p2->itch.add_orders.size(), 2u);
  EXPECT_EQ(p3->itch.mold.sequence, 4u);
}

TEST(Subscriber, TracksSymbolsAndGaps) {
  pubsub::Publisher pub;
  pubsub::Subscriber sub(1);
  const auto f1 = pub.publish(order("GOOGL"));
  const auto f2 = pub.publish(order("AAPL"));   // dropped by the "switch"
  const auto f3 = pub.publish(order("GOOGL"));

  EXPECT_TRUE(sub.deliver(f1));
  EXPECT_TRUE(sub.deliver(f3));  // skipping f2 creates a gap
  EXPECT_EQ(sub.received(), 2u);
  EXPECT_EQ(sub.per_symbol().at("GOOGL"), 2u);
  EXPECT_EQ(sub.sequence_gaps(), 1u);

  std::vector<std::uint8_t> junk{1, 2, 3};
  EXPECT_FALSE(sub.deliver(junk));
  EXPECT_EQ(sub.malformed(), 1u);
}

}  // namespace

namespace unsubscribe_tests {

using namespace camus;

TEST(Controller, UnsubscribeRemovesPortRules) {
  fixture::SingleSwitch plant;
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == AAPL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(2, "stock == MSFT").ok());
  ASSERT_TRUE(plant.ctl.subscribe(3, "stock == NVDA : fwd(3); fwd(4)").ok());
  EXPECT_EQ(plant.ctl.unsubscribe(1).value(), 2u);
  EXPECT_EQ(plant.ctl.subscription_count(), 2u);
  // Port 3's rule also forwards to 4: kept.
  EXPECT_EQ(plant.ctl.unsubscribe(3).value(), 0u);
  EXPECT_EQ(plant.ctl.unsubscribe(99).value(), 0u);

  ASSERT_TRUE(plant.commit_and_install().ok());
  pubsub::Publisher pub;
  proto::ItchAddOrder m;
  m.stock = "GOOGL";
  EXPECT_TRUE(plant.sw.process(pub.publish(m), 0).empty());
  m.stock = "MSFT";
  EXPECT_EQ(plant.sw.process(pub.publish(m), 0).size(), 1u);
  m.stock = "NVDA";
  EXPECT_EQ(plant.sw.process(pub.publish(m), 0).size(), 2u);
}

}  // namespace unsubscribe_tests
