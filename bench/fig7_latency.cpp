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
// claims are the CDF shapes and the Camus/baseline separation. All three
// configurations run through netsim::run_experiment, one message per
// frame. Exits 1 unless, on both workloads, the two unbounded
// configurations receive every watched message and switch filtering's p99
// is below host filtering's; stdout is the same either way.
#include <cstdio>
#include <string>

#include "compiler/compile.hpp"
#include "netsim/experiment.hpp"
#include "spec/itch_spec.hpp"
#include "util/stats.hpp"

using namespace camus;

namespace {

// One subscriber host on port 1 watching GOOGL; every message is its own
// frame, over fault-free links without recovery.
netsim::ExperimentParams testbed(netsim::FilterMode mode,
                                 std::size_t host_queue_limit = 0) {
  netsim::ExperimentParams mp;
  mp.n_ports = 1;
  mp.msgs_per_frame = 1;
  mp.mode = mode;
  mp.host_queue_limit = host_queue_limit;
  mp.recovery_enabled = false;
  mp.interest = {{"GOOGL", 1}};
  return mp;
}

// The Camus switch: the one subscriber, on port 1, wants GOOGL.
switchsim::Switch camus_switch(const spec::Schema& schema) {
  auto compiled = compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
  if (!compiled.ok()) std::exit(1);
  return switchsim::Switch(schema, std::move(compiled).take().pipeline);
}

std::vector<std::string> table_row(const char* config,
                                   const util::CdfSampler& lat,
                                   std::string last_cell) {
  return {config,
          util::TextTable::fmt(lat.quantile(0.50), 1),
          util::TextTable::fmt(lat.quantile(0.90), 1),
          util::TextTable::fmt(lat.quantile(0.99), 1),
          util::TextTable::fmt(lat.quantile(0.995), 1),
          util::TextTable::fmt(lat.max(), 1),
          util::TextTable::fmt(100 * lat.fraction_below(20), 1) + "%",
          util::TextTable::fmt(100 * lat.fraction_below(50), 1) + "%",
          std::move(last_cell)};
}

// Runs the three configurations on `feed` and prints their table and CDF
// points. Returns whether both unbounded configurations received every
// watched message and switch filtering kept the lower p99.
bool run_workload(const char* label, const workload::Feed& feed) {
  std::printf("---- %s: %zu messages, %zu watched (%.2f%%) ----\n", label,
              feed.messages.size(), feed.watched_count,
              100.0 * static_cast<double>(feed.watched_count) /
                  static_cast<double>(feed.messages.size()));

  auto schema = spec::make_itch_schema();
  auto camus_sw = camus_switch(schema);
  const auto camus = netsim::run_experiment(
      testbed(netsim::FilterMode::kSwitchFilter), camus_sw, feed);
  auto bcast = switchsim::Switch::make_broadcast(schema, {1});
  const auto base = netsim::run_experiment(
      testbed(netsim::FilterMode::kHostFilter), bcast, feed);
  // Third row: the baseline with a realistic bounded NIC/CPU queue — the
  // paper's "increases delay and the chances of packet drops", quantified.
  auto bcast_bounded = switchsim::Switch::make_broadcast(schema, {1});
  const auto bounded = netsim::run_experiment(
      testbed(netsim::FilterMode::kHostFilter, 128), bcast_bounded, feed);

  util::TextTable table({"config", "p50", "p90", "p99", "p99.5", "max",
                         "<20us", "<50us", "<300us"});
  const auto below_300 = [](const util::CdfSampler& lat) {
    return util::TextTable::fmt(100 * lat.fraction_below(300), 1) + "%";
  };
  table.add_row(table_row("Camus (switch filtering)", camus.latency_us,
                          below_300(camus.latency_us)));
  table.add_row(table_row("Baseline (host filtering)", base.latency_us,
                          below_300(base.latency_us)));
  table.add_row(table_row("Baseline (128-msg queue)", bounded.latency_us,
                          std::to_string(bounded.host_drops) + " drops"));
  std::printf("%s\n", table.to_string().c_str());

  // CDF series (quantile, latency) for plotting — both unbounded configs.
  std::printf("latency CDF points (us at cumulative probability):\n");
  for (const auto* res : {&camus, &base}) {
    std::printf("  %-8s", res == &camus ? "camus:" : "baseline:");
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 1.0})
      std::printf(" %g@%.3f", res->latency_us.quantile(q), q);
    std::printf("\n");
  }
  std::printf("\n");

  const bool complete =
      camus.interested_received == camus.interested_expected &&
      base.interested_received == base.interested_expected;
  const bool separated = camus.latency_us.p99() < base.latency_us.p99();
  if (!complete)
    std::fprintf(stderr, "%s: an unbounded configuration lost watched "
                 "messages\n", label);
  if (!separated)
    std::fprintf(stderr, "%s: switch filtering p99 is not below host "
                 "filtering p99\n", label);
  return complete && separated;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string_view(argv[1]) == "--quick";
  const std::size_t n = quick ? 60000 : 300000;

  std::printf("Figure 7: ITCH end-to-end latency, Camus vs baseline\n\n");

  bool ok = true;
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
    ok = run_workload("(a) Nasdaq trace (replayed)",
                      workload::generate_feed(fp)) && ok;
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
    ok = run_workload("(b) Synthetic feed", workload::generate_feed(fp)) &&
         ok;
  }
  return ok ? 0 : 1;
}
