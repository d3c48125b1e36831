// Miniature Figure 7: end-to-end latency of watched-symbol messages with
// switch filtering (Camus) vs host filtering (baseline), on a bursty
// Nasdaq-style trace.
//
//   $ ./latency_experiment [n_messages]   # default 200000
#include <cstdlib>
#include <iostream>

#include "compiler/compile.hpp"
#include "netsim/market_experiment.hpp"
#include "spec/itch_spec.hpp"
#include "util/stats.hpp"

using namespace camus;

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 200000;

  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = n;
  fp.watched_fraction = 0.005;
  fp.rate_msgs_per_sec = 150000;
  fp.burst_factor = 3.0;
  fp.burst_on_ms = 1.2;
  fp.burst_off_ms = 8.0;
  const auto feed = workload::generate_feed(fp);
  std::cout << "Feed: " << feed.messages.size() << " messages, "
            << feed.watched_count << " for GOOGL ("
            << util::TextTable::fmt(
                   100.0 * feed.watched_count / feed.messages.size(), 2)
            << "%)\n\n";

  util::TextTable table(
      {"config", "p50 (us)", "p99 (us)", "p99.5 (us)", "max (us)"});

  for (int cfg = 0; cfg < 2; ++cfg) {
    netsim::MarketExperimentParams mp;
    mp.mode = cfg == 0 ? netsim::FilterMode::kSwitchFilter
                       : netsim::FilterMode::kHostFilter;
    // Calibrated to the paper's testbed regime: the host's per-message
    // software filtering cost makes the broadcast feed overrun the CPU
    // during bursts (450K msg/s x 2.8us = 1.26 utilization).
    mp.host_filter_cost_us = 2.0;
    mp.deliver_cost_us = 0.8;
    auto schema = spec::make_itch_schema();
    switchsim::Switch sw = [&] {
      if (cfg == 0) {
        auto compiled =
            compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
        if (!compiled.ok()) std::exit(1);
        return switchsim::Switch(schema, std::move(compiled).take().pipeline);
      }
      return switchsim::Switch::make_broadcast(schema, {1});
    }();

    const auto res = netsim::run_market_experiment(mp, sw, feed, "GOOGL");
    table.add_row({cfg == 0 ? "Camus (switch filter)" : "Baseline (host)",
                   util::TextTable::fmt(res.latency_us.quantile(0.5), 1),
                   util::TextTable::fmt(res.latency_us.quantile(0.99), 1),
                   util::TextTable::fmt(res.latency_us.quantile(0.995), 1),
                   util::TextTable::fmt(res.latency_us.max(), 1)});
  }
  std::cout << table.to_string();
  std::cout << "\nSwitch filtering removes the host-side queueing that "
               "builds up when the\nfull feed is broadcast during bursts "
               "(paper Figure 7a).\n";
  return 0;
}
