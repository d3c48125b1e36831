// Discrete-event simulator primitives and the Figure 7 market experiment.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "netsim/market_experiment.hpp"
#include "netsim/sim.hpp"
#include "spec/itch_spec.hpp"

namespace {

using namespace camus;
using netsim::FifoServer;
using netsim::Link;
using netsim::Simulator;

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.now_us(), 30.0);
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.at(7, [&, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CallbacksCanSchedule) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] {
    sim.after(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now_us(), 6.0);
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  Simulator sim;
  sim.at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.at(5, [] {}), std::invalid_argument);
}

TEST(LinkTest, SerializationAndQueueing) {
  Link link(/*gbps=*/10.0, /*prop=*/2.0);
  // 1250 bytes at 10 Gb/s = 1 us serialization.
  const double t1 = link.transmit(0, 1250);
  EXPECT_NEAR(t1, 1.0 + 2.0, 1e-9);
  // Second frame queued behind the first.
  const double t2 = link.transmit(0, 1250);
  EXPECT_NEAR(t2, 2.0 + 2.0, 1e-9);
  // After idle, no queueing.
  const double t3 = link.transmit(100, 1250);
  EXPECT_NEAR(t3, 101.0 + 2.0, 1e-9);
}

TEST(FifoServerTest, BacklogGrowsAndDrains) {
  FifoServer cpu(2.0);
  EXPECT_NEAR(cpu.serve(0), 2.0, 1e-9);
  EXPECT_NEAR(cpu.serve(0), 4.0, 1e-9);
  EXPECT_NEAR(cpu.backlog_us(1.0), 3.0, 1e-9);
  EXPECT_NEAR(cpu.serve(100), 102.0, 1e-9);
  EXPECT_EQ(cpu.backlog_us(200), 0.0);
}

// ---- market experiment -----------------------------------------------------

workload::Feed small_feed(double watched_fraction, std::size_t n = 20000) {
  workload::FeedParams p;
  p.seed = 33;
  p.n_messages = n;
  p.mode = workload::FeedMode::kSynthetic;
  p.watched_fraction = watched_fraction;
  p.rate_msgs_per_sec = 200000;
  return workload::generate_feed(p);
}

// The Camus switch of the Figure 7 experiments: port 1 wants GOOGL.
switchsim::Switch googl_switch() {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
  EXPECT_TRUE(compiled.ok());
  return switchsim::Switch(schema, std::move(compiled).take().pipeline);
}

TEST(MarketExperiment, CamusDeliversExactlyWatched) {
  auto sw = googl_switch();
  const auto feed = small_feed(0.05);
  netsim::MarketExperimentParams mp;
  mp.mode = netsim::FilterMode::kSwitchFilter;
  auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");

  EXPECT_EQ(res.published, feed.messages.size());
  EXPECT_EQ(res.delivered_to_host, feed.watched_count);
  EXPECT_EQ(res.watched_received, feed.watched_count);
  EXPECT_EQ(res.latency_us.count(), feed.watched_count);
}

TEST(MarketExperiment, BaselineDeliversEverything) {
  auto schema = spec::make_itch_schema();
  auto sw = switchsim::Switch::make_broadcast(schema, {1});
  const auto feed = small_feed(0.05);
  netsim::MarketExperimentParams mp;
  mp.mode = netsim::FilterMode::kHostFilter;
  auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
  EXPECT_EQ(res.delivered_to_host, feed.messages.size());
  EXPECT_EQ(res.watched_received, feed.watched_count);
}

TEST(MarketExperiment, SwitchFilteringReducesTailLatency) {
  auto schema = spec::make_itch_schema();
  const auto feed = small_feed(0.05);

  auto camus_sw = googl_switch();
  netsim::MarketExperimentParams mp;
  mp.mode = netsim::FilterMode::kSwitchFilter;
  auto camus = netsim::run_market_experiment(mp, camus_sw, feed, "GOOGL");

  auto base_sw = switchsim::Switch::make_broadcast(schema, {1});
  mp.mode = netsim::FilterMode::kHostFilter;
  auto base = netsim::run_market_experiment(mp, base_sw, feed, "GOOGL");

  // Same messages observed, strictly better tail for switch filtering.
  EXPECT_EQ(camus.watched_received, base.watched_received);
  EXPECT_LT(camus.latency_us.p99(), base.latency_us.p99());
  EXPECT_LE(camus.latency_us.quantile(0.5), base.latency_us.quantile(0.5));
}

TEST(MarketExperiment, LatencyHasPhysicalFloor) {
  auto sw = googl_switch();
  const auto feed = small_feed(0.02, 5000);
  netsim::MarketExperimentParams mp;
  auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
  // Floor: two propagation delays + switch pipeline + CPU deliver cost.
  const double floor = 2 * mp.link_propagation_us + mp.switch_pipeline_us +
                       mp.deliver_cost_us;
  EXPECT_GE(res.latency_us.quantile(0.0), floor);
}

}  // namespace

namespace bounded_queue_tests {

using namespace camus;

TEST(FifoServerTest, BoundedQueueDrops) {
  netsim::FifoServer cpu(10.0, /*queue_limit=*/2);
  EXPECT_GE(cpu.serve(0), 0.0);   // in service
  EXPECT_GE(cpu.serve(0), 0.0);   // queued (1)
  EXPECT_GE(cpu.serve(0), 0.0);   // queued (2)
  EXPECT_LT(cpu.serve(0), 0.0);   // queue full: dropped
  EXPECT_EQ(cpu.dropped(), 1u);
  // After the backlog drains, service resumes.
  EXPECT_GE(cpu.serve(100), 0.0);
  cpu.reset();
  EXPECT_EQ(cpu.dropped(), 0u);
}

TEST(MarketExperiment, BoundedHostQueueDropsUnderBroadcast) {
  auto schema = spec::make_itch_schema();
  workload::FeedParams fp;
  fp.seed = 21;
  fp.n_messages = 30000;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.watched_fraction = 0.05;
  fp.rate_msgs_per_sec = 200000;
  fp.burst_factor = 4.0;
  auto feed = workload::generate_feed(fp);

  netsim::MarketExperimentParams mp;
  mp.mode = netsim::FilterMode::kHostFilter;
  mp.host_filter_cost_us = 2.0;
  mp.deliver_cost_us = 0.8;
  mp.host_queue_limit = 64;
  auto sw = switchsim::Switch::make_broadcast(schema, {1});
  auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
  // Overloaded bursts against a 64-message queue must drop...
  EXPECT_GT(res.host_drops, 0u);
  // ...and the surviving latencies are bounded by the queue depth.
  const double bound = (64 + 2) * (2.0 + 0.8) + 50;
  EXPECT_LT(res.latency_us.max(), bound);

  // Switch filtering with the same limit drops nothing.
  auto csw = googl_switch();
  mp.mode = netsim::FilterMode::kSwitchFilter;
  auto cres = netsim::run_market_experiment(mp, csw, feed, "GOOGL");
  EXPECT_EQ(cres.host_drops, 0u);
  EXPECT_EQ(cres.watched_received, cres.watched_expected);
}

}  // namespace bounded_queue_tests
