// Full-system integration: the Figure 6 story. Subscribers register
// content filters with the controller; the compiler programs the switch;
// a market feed flows through; every subscriber receives exactly the
// messages its filters select (validated against the naive matcher).
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "baseline/matcher.hpp"
#include "lang/parser.hpp"
#include "pubsub/endpoints.hpp"
#include "single_switch.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "workload/feed.hpp"

namespace {

using namespace camus;

struct IntegrationParams {
  std::uint64_t seed;
  bool compression;
};

// Names each ctest case `.../seed3_compressed`: CMake's test discovery
// names a case after its printed parameter (by default the struct's bytes,
// padding included, which change from build to build).
void PrintTo(const IntegrationParams& p, std::ostream* os) {
  *os << "seed" << p.seed << (p.compression ? "_compressed" : "_uncompressed");
}

class EndToEnd : public ::testing::TestWithParam<IntegrationParams> {};

TEST_P(EndToEnd, SubscribersReceiveExactlyTheirContent) {
  const auto param = GetParam();
  auto schema = spec::make_itch_schema();

  compiler::CompileOptions opts;
  opts.domain_compression = param.compression;
  fixture::SingleSwitch plant(opts);

  // A mix of overlapping, numeric, negated, and disjunctive filters.
  const std::vector<std::pair<std::uint16_t, std::string>> subscriptions = {
      {1, "stock == GOOGL"},
      {2, "stock == GOOGL and price > 15000000"},
      {3, "stock == AAPL or stock == MSFT"},
      {4, "shares > 900"},
      {5, "!(stock == GOOGL) and price < 3000000"},
      {6, "stock == NVDA and shares >= 100 and shares <= 200"},
  };
  for (const auto& [port, text] : subscriptions)
    ASSERT_TRUE(plant.ctl.subscribe(port, text).ok()) << text;

  auto installed = plant.commit_and_install();
  ASSERT_TRUE(installed.ok()) << installed.error().to_string();
  switchsim::Switch& sw = plant.sw;
  ASSERT_TRUE(sw.fits());

  // Reference matcher over the same rules.
  std::vector<lang::BoundRule> bound;
  for (const auto& [port, text] : subscriptions) {
    auto parsed = lang::parse_rule(text + " : fwd(" + std::to_string(port) +
                                   ")");
    ASSERT_TRUE(parsed.ok());
    auto b = lang::bind_rule(parsed.value(), schema);
    ASSERT_TRUE(b.ok());
    bound.push_back(std::move(b).take());
  }
  auto flat = lang::flatten_rules(bound, schema);
  ASSERT_TRUE(flat.ok());
  baseline::NaiveMatcher reference(flat.value());
  switchsim::ItchFieldExtractor extractor(schema);

  // Market feed through the switch.
  workload::FeedParams fp;
  fp.seed = param.seed;
  fp.n_messages = 20000;
  fp.watched_fraction = 0.03;
  fp.price_min = 1000000;
  fp.price_max = 30000000;
  auto feed = workload::generate_feed(fp);

  pubsub::Publisher pub;
  std::map<std::uint16_t, pubsub::Subscriber> subs;
  for (const auto& [port, text] : subscriptions)
    subs.emplace(port, pubsub::Subscriber(port));

  std::map<std::uint16_t, std::uint64_t> expected_counts;
  for (const auto& fm : feed.messages) {
    const auto frame = pub.publish(fm.msg);
    const auto copies = sw.process(frame, fm.t_us);

    // Expected port set from the reference matcher.
    lang::Env env;
    env.fields = extractor.extract(fm.msg);
    env.states = {0, 0};
    const auto expected = reference.match(env);

    std::vector<std::uint16_t> got;
    for (const auto& c : copies) got.push_back(c.port);
    ASSERT_EQ(got, expected.ports) << fm.msg.stock << " " << fm.msg.price;

    for (auto port : got) {
      ASSERT_TRUE(subs.at(port).deliver(frame));
      ++expected_counts[port];
    }
  }

  // Per-subscriber delivery counts line up, and the GOOGL subscriber saw
  // only GOOGL.
  for (auto& [port, sub] : subs) {
    EXPECT_EQ(sub.received(), expected_counts[port]) << port;
    EXPECT_EQ(sub.malformed(), 0u);
  }
  const auto& googl_counts = subs.at(1).per_symbol();
  EXPECT_EQ(googl_counts.size(), 1u);
  EXPECT_EQ(googl_counts.count("GOOGL"), 1u);
  EXPECT_EQ(subs.at(1).received(), feed.watched_count);

  // Subscriber 2's filter is a refinement of subscriber 1's.
  EXPECT_LE(subs.at(2).received(), subs.at(1).received());

  // Everything the publisher sent was classified.
  EXPECT_EQ(sw.counters().rx_frames, feed.messages.size());
  EXPECT_EQ(sw.counters().parse_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EndToEnd,
    ::testing::Values(IntegrationParams{1, false}, IntegrationParams{2, false},
                      IntegrationParams{3, true}, IntegrationParams{4, true}));

TEST(EndToEndStateful, CounterGatesTraffic) {
  // Forward AAPL only after 3 AAPL messages were seen in the same 100us
  // window: a stateful rate-gate expressed as a packet subscription.
  fixture::SingleSwitch plant;
  ASSERT_TRUE(
      plant.ctl.subscribe(1, "stock == AAPL and my_counter > 2 : fwd(1)")
          .ok());
  ASSERT_TRUE(
      plant.ctl.subscribe(1, "stock == AAPL : update(my_counter)").ok());
  auto installed = plant.commit_and_install();
  ASSERT_TRUE(installed.ok()) << installed.error().to_string();
  switchsim::Switch& sw = plant.sw;

  pubsub::Publisher pub;
  proto::ItchAddOrder m;
  m.stock = "AAPL";
  m.shares = 1;
  m.price = 1;

  // Messages 1-3 in window [0,100) only bump the counter.
  EXPECT_TRUE(sw.process(pub.publish(m), 10).empty());
  EXPECT_TRUE(sw.process(pub.publish(m), 20).empty());
  EXPECT_TRUE(sw.process(pub.publish(m), 30).empty());
  // Message 4: counter is 3 > 2 -> forwarded.
  EXPECT_EQ(sw.process(pub.publish(m), 40).size(), 1u);
  // New window: counter reset, gate closes again.
  EXPECT_TRUE(sw.process(pub.publish(m), 150).empty());
}

}  // namespace
