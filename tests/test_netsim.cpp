// Discrete-event simulator primitives and the Figure 7 experiment.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "netsim/experiment.hpp"
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
    sim.at(sim.now_us() + 5, [&] { ++fired; });
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
  EXPECT_NEAR(cpu.serve(100), 102.0, 1e-9);
}

// ---- Figure 7 experiment ---------------------------------------------------

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

// Figure 7's set-up: one host on port 1 watching GOOGL, one message per
// frame, fault-free links without recovery.
netsim::ExperimentParams fig7_params(netsim::FilterMode mode) {
  netsim::ExperimentParams mp;
  mp.n_ports = 1;
  mp.msgs_per_frame = 1;
  mp.mode = mode;
  mp.recovery_enabled = false;
  mp.interest = {{"GOOGL", 1}};
  return mp;
}

TEST(MarketExperiment, CamusDeliversExactlyWatched) {
  auto sw = googl_switch();
  const auto feed = small_feed(0.05);
  auto res = netsim::run_experiment(
      fig7_params(netsim::FilterMode::kSwitchFilter), sw, feed);

  EXPECT_EQ(res.feed_messages, feed.messages.size());
  EXPECT_EQ(res.frames_to_hosts, feed.watched_count);
  EXPECT_EQ(res.interested_expected, feed.watched_count);
  EXPECT_EQ(res.interested_received, feed.watched_count);
  EXPECT_EQ(res.latency_us.count(), feed.watched_count);
}

TEST(MarketExperiment, BaselineDeliversEverything) {
  auto schema = spec::make_itch_schema();
  auto sw = switchsim::Switch::make_broadcast(schema, {1});
  const auto feed = small_feed(0.05);
  auto res = netsim::run_experiment(
      fig7_params(netsim::FilterMode::kHostFilter), sw, feed);
  EXPECT_EQ(res.frames_to_hosts, feed.messages.size());
  EXPECT_EQ(res.interested_received, feed.watched_count);
}

TEST(MarketExperiment, SwitchFilteringReducesTailLatency) {
  auto schema = spec::make_itch_schema();
  const auto feed = small_feed(0.05);

  auto camus_sw = googl_switch();
  auto camus = netsim::run_experiment(
      fig7_params(netsim::FilterMode::kSwitchFilter), camus_sw, feed);

  auto base_sw = switchsim::Switch::make_broadcast(schema, {1});
  auto base = netsim::run_experiment(
      fig7_params(netsim::FilterMode::kHostFilter), base_sw, feed);

  // Same messages observed, strictly better tail for switch filtering.
  EXPECT_EQ(camus.interested_received, base.interested_received);
  EXPECT_LT(camus.latency_us.p99(), base.latency_us.p99());
  EXPECT_LE(camus.latency_us.quantile(0.5), base.latency_us.quantile(0.5));
}

TEST(MarketExperiment, LatencyHasPhysicalFloor) {
  auto sw = googl_switch();
  const auto feed = small_feed(0.02, 5000);
  auto res = netsim::run_experiment(
      fig7_params(netsim::FilterMode::kSwitchFilter), sw, feed);
  // Floor: two propagation delays + switch pipeline + CPU deliver cost.
  const double floor = 2 * netsim::kPropagationUs +
                       netsim::kSwitchPipelineUs + netsim::kDeliverCostUs;
  EXPECT_GE(res.latency_us.quantile(0.0), floor);
}

// Figure 7 under loss: with recovery on, both filter modes deliver what
// their fault-free runs deliver, every watched message reaches the host,
// and switch filtering keeps the lower tail.
TEST(MarketExperiment, BothFilterModesRecoverUnderLoss) {
  auto schema = spec::make_itch_schema();
  const auto feed = small_feed(0.05);
  const auto run = [&](netsim::FilterMode mode, bool faulty) {
    auto sw = mode == netsim::FilterMode::kSwitchFilter
                  ? googl_switch()
                  : switchsim::Switch::make_broadcast(schema, {1});
    auto mp = fig7_params(mode);
    if (faulty) {
      mp.recovery_enabled = true;
      mp.link_faults.drop = 0.02;
      mp.link_faults.duplicate = 0.01;
      mp.link_faults.reorder = 0.01;
    }
    return netsim::run_experiment(mp, sw, feed);
  };
  const auto camus_clean = run(netsim::FilterMode::kSwitchFilter, false);
  const auto camus = run(netsim::FilterMode::kSwitchFilter, true);
  const auto base_clean = run(netsim::FilterMode::kHostFilter, false);
  const auto base = run(netsim::FilterMode::kHostFilter, true);

  for (const auto* res : {&camus, &base}) {
    EXPECT_GT(res->channel.dropped, 0u);
    EXPECT_GT(res->uplink_recovery.messages_recovered +
                  res->subscriber_recovery.messages_recovered,
              0u);
    EXPECT_EQ(res->interested_expected, feed.watched_count);
    EXPECT_EQ(res->interested_received, res->interested_expected);
  }
  EXPECT_EQ(camus.delivered, camus_clean.delivered);
  EXPECT_EQ(camus.digest, camus_clean.digest);
  EXPECT_EQ(base.delivered, base_clean.delivered);
  EXPECT_EQ(base.digest, base_clean.digest);
  EXPECT_LT(camus.latency_us.p99(), base.latency_us.p99());
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

  auto mp = fig7_params(netsim::FilterMode::kHostFilter);
  mp.host_queue_limit = 64;
  auto sw = switchsim::Switch::make_broadcast(schema, {1});
  auto res = netsim::run_experiment(mp, sw, feed);
  // Overloaded bursts against a 64-message queue must drop...
  EXPECT_GT(res.host_drops, 0u);
  // ...and the surviving latencies are bounded by the queue depth.
  const double bound =
      (64 + 2) * (netsim::kHostFilterCostUs + netsim::kDeliverCostUs) + 50;
  EXPECT_LT(res.latency_us.max(), bound);

  // Switch filtering with the same limit drops nothing.
  auto csw = googl_switch();
  mp.mode = netsim::FilterMode::kSwitchFilter;
  auto cres = netsim::run_experiment(mp, csw, feed);
  EXPECT_EQ(cres.host_drops, 0u);
  EXPECT_EQ(cres.interested_received, cres.interested_expected);
}

}  // namespace bounded_queue_tests
