// Figure 7: end-to-end latency CDFs for in-network pub/sub vs host-side
// filtering, on two ITCH workloads.
//
//  (a) Nasdaq-replay trace (bursty, watched symbol GOOGL = 0.5% of
//      messages). Paper: with Camus all messages arrive within ~50us;
//      the baseline's tail stretches to ~300us.
//  (b) Synthetic feed (uniform arrivals, GOOGL = 5%). Paper: 99.5% of
//      messages within 20us with Camus vs 96.5% with the baseline.
//
// The testbed is simulated (see DESIGN.md §1): 25 Gb/s links, a constant
// ASIC pipeline latency, and a subscriber CPU whose per-message software
// filtering cost is the mechanism that builds the baseline's queueing
// tail. Absolute microseconds depend on that calibration; the reproduced
// claims are the CDF shapes and the Camus/baseline separation.
#include <cstdio>

#include "compiler/compile.hpp"
#include "netsim/market_experiment.hpp"
#include "spec/itch_spec.hpp"
#include "util/stats.hpp"

using namespace camus;

namespace {

netsim::MarketExperimentParams testbed(netsim::FilterMode mode) {
  netsim::MarketExperimentParams mp;
  mp.mode = mode;
  mp.publisher_link_gbps = 25.0;
  mp.subscriber_link_gbps = 25.0;
  mp.link_propagation_us = 0.5;
  mp.switch_pipeline_us = 0.8;
  mp.host_filter_cost_us = 2.0;  // software filter over the full feed
  mp.deliver_cost_us = 0.8;      // DPDK rx + application hand-off
  return mp;
}

// The Camus switch: the one subscriber, on port 1, wants GOOGL.
switchsim::Switch camus_switch(const spec::Schema& schema) {
  auto compiled = compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
  if (!compiled.ok()) std::exit(1);
  return switchsim::Switch(schema, std::move(compiled).take().pipeline);
}

void run_workload(const char* label, const workload::Feed& feed) {
  std::printf("---- %s: %zu messages, %zu watched (%.2f%%) ----\n", label,
              feed.messages.size(), feed.watched_count,
              100.0 * static_cast<double>(feed.watched_count) /
                  static_cast<double>(feed.messages.size()));

  util::TextTable table({"config", "p50", "p90", "p99", "p99.5", "max",
                         "<20us", "<50us", "<300us"});
  auto schema = spec::make_itch_schema();
  for (int cfg = 0; cfg < 2; ++cfg) {
    switchsim::Switch sw =
        cfg == 0 ? camus_switch(schema)
                 : switchsim::Switch::make_broadcast(schema, {1});
    auto mp = testbed(cfg == 0 ? netsim::FilterMode::kSwitchFilter
                               : netsim::FilterMode::kHostFilter);
    const auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
    const auto& lat = res.latency_us;
    table.add_row(
        {cfg == 0 ? "Camus (switch filtering)" : "Baseline (host filtering)",
         util::TextTable::fmt(lat.quantile(0.50), 1),
         util::TextTable::fmt(lat.quantile(0.90), 1),
         util::TextTable::fmt(lat.quantile(0.99), 1),
         util::TextTable::fmt(lat.quantile(0.995), 1),
         util::TextTable::fmt(lat.max(), 1),
         util::TextTable::fmt(100 * lat.fraction_below(20), 1) + "%",
         util::TextTable::fmt(100 * lat.fraction_below(50), 1) + "%",
         util::TextTable::fmt(100 * lat.fraction_below(300), 1) + "%"});
  }
  // Third row: the baseline with a realistic bounded NIC/CPU queue — the
  // paper's "increases delay and the chances of packet drops", quantified.
  {
    auto sw = switchsim::Switch::make_broadcast(spec::make_itch_schema(),
                                                {1});
    auto mp = testbed(netsim::FilterMode::kHostFilter);
    mp.host_queue_limit = 128;
    const auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
    const auto& lat = res.latency_us;
    table.add_row(
        {"Baseline (128-msg queue)",
         util::TextTable::fmt(lat.quantile(0.50), 1),
         util::TextTable::fmt(lat.quantile(0.90), 1),
         util::TextTable::fmt(lat.quantile(0.99), 1),
         util::TextTable::fmt(lat.quantile(0.995), 1),
         util::TextTable::fmt(lat.max(), 1),
         util::TextTable::fmt(100 * lat.fraction_below(20), 1) + "%",
         util::TextTable::fmt(100 * lat.fraction_below(50), 1) + "%",
         std::to_string(res.host_drops) + " drops"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // CDF series (quantile, latency) for plotting — both configs.
  std::printf("latency CDF points (us at cumulative probability):\n");
  for (int cfg = 0; cfg < 2; ++cfg) {
    switchsim::Switch sw =
        cfg == 0 ? camus_switch(schema)
                 : switchsim::Switch::make_broadcast(schema, {1});
    const auto mp = testbed(cfg == 0 ? netsim::FilterMode::kSwitchFilter
                                     : netsim::FilterMode::kHostFilter);
    const auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
    std::printf("  %-8s", cfg == 0 ? "camus:" : "baseline:");
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 1.0})
      std::printf(" %g@%.3f", res.latency_us.quantile(q), q);
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string_view(argv[1]) == "--quick";
  const std::size_t n = quick ? 60000 : 300000;

  std::printf("Figure 7: ITCH end-to-end latency, Camus vs baseline\n\n");

  {
    // (a) Nasdaq replay: bursty open-auction arrivals, GOOGL at 0.5%.
    workload::FeedParams fp;
    fp.seed = 20170830;  // the paper's trace date
    fp.mode = workload::FeedMode::kNasdaqReplay;
    fp.n_messages = n;
    fp.watched_fraction = 0.005;
    fp.rate_msgs_per_sec = 150000;
    fp.burst_factor = 3.0;
    fp.burst_on_ms = 1.0;
    fp.burst_off_ms = 8.0;
    run_workload("(a) Nasdaq trace (replayed)", workload::generate_feed(fp));
  }
  {
    // (b) Synthetic feed: uniform arrivals near the baseline host's
    // capacity, GOOGL at 5%.
    workload::FeedParams fp;
    fp.seed = 7;
    fp.mode = workload::FeedMode::kSynthetic;
    fp.n_messages = n;
    fp.watched_fraction = 0.05;
    fp.rate_msgs_per_sec = 270000;
    run_workload("(b) Synthetic feed", workload::generate_feed(fp));
  }
  return 0;
}
