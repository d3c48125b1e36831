// Loss-rate sweep over the fault-injected pub/sub path
// (netsim::run_experiment): for each loss rate in 0..10% the same seeded
// feed is driven through the same programmed switch twice — once with
// MoldUDP64 gap recovery enabled at both recovery points, once raw — and
// compared against a fault-free baseline run.
//
// Recovery latency is reported two ways: per gap episode (how long a
// reassembler's head of line stayed blocked) and per message (publish ->
// consumed at the subscriber host, what Figure 7 measures).
//
// The hard assertion (exit status): with recovery enabled, every per-port
// delivery digest is bit-identical to the fault-free baseline at every
// loss rate — exactly-once, in-order delivery of 100% of the switch's
// output despite drop + duplicate + reorder on every link. The raw runs
// quantify what the faults would otherwise cost.
//
// Corruption is probed separately and NOT digest-asserted: the UDP
// checksum turns corruption into loss (recovered like any drop), but a
// 16-bit one's-complement sum provably misses the rare multi-bit flip
// whose column sums cancel, so undetected corruption is a property of the
// modeled wire protocol, not of the recovery machinery. The probe reports
// the detection rate instead.
//
// CI runs this with --quick --json in the netsim-smoke job; the committed
// BENCH_fault.json is the full sweep. All seeds are explicit and recorded
// in the JSON so any row can be replayed bit-for-bit.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hpp"
#include "netsim/experiment.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

namespace {

constexpr std::uint64_t kSubsSeed = 1;
constexpr std::uint64_t kFeedSeed = 20170830;
constexpr std::uint64_t kFaultSeed = 4242;
constexpr std::uint16_t kPorts = 8;
constexpr std::size_t kRules = 200;

struct SweepRow {
  double loss_rate = 0;
  netsim::ExperimentResult with_recovery;
  netsim::ExperimentResult raw;
  bool digests_match = false;  // with_recovery vs fault-free baseline
};

std::uint64_t total_delivered(const netsim::ExperimentResult& r) {
  std::uint64_t n = 0;
  for (const auto& [port, count] : r.delivered) n += count;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_fault.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") quick = true;
    else if (a == "--json") json = true;
    else if (a == "--out" && i + 1 < argc) json_path = argv[++i];
  }
  const std::size_t n = quick ? 20000 : 120000;

  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = kSubsSeed;
  sp.n_subscriptions = kRules;
  sp.n_symbols = 100;
  sp.n_hosts = kPorts;  // forwarding ports 1..kPorts, all observed
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  auto pipeline =
      compiler::compile_rules(schema, subs.rules).take().pipeline;

  workload::FeedParams fp;
  fp.seed = kFeedSeed;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = n;
  fp.symbols = subs.symbols;
  fp.watched_fraction = 0.05;
  fp.rate_msgs_per_sec = 150000;
  fp.price_min = 1;
  fp.price_max = 1500;
  auto feed = workload::generate_feed(fp);

  netsim::ExperimentParams base;
  base.seed = kFaultSeed;
  base.n_ports = kPorts;
  base.msgs_per_frame = 4;
  base.recovery.gap_timeout_us = 100;
  base.recovery.retry_backoff_us = 500;
  base.recovery.backoff_factor = 2.0;
  // With 10% loss on the request AND reply channels a recovery round
  // fails with P ~ 0.19; ten retries push per-gap give-up below 1e-7.
  base.recovery.max_retries = 10;

  // Fault-free baseline: the ground-truth per-port digests.
  netsim::ExperimentParams clean = base;
  clean.link_faults = fault::FaultSpec{};  // all rates zero
  switchsim::Switch sw0(schema, pipeline);
  const auto baseline = netsim::run_experiment(clean, sw0, feed);

  const std::vector<double> rates =
      quick ? std::vector<double>{0.01, 0.05, 0.10}
            : std::vector<double>{0.005, 0.01, 0.02, 0.05, 0.10};

  std::vector<SweepRow> rows;
  bool all_match = true;
  for (const double rate : rates) {
    SweepRow row;
    row.loss_rate = rate;

    netsim::ExperimentParams p = base;
    p.link_faults.drop = rate;
    p.link_faults.duplicate = rate / 2;
    p.link_faults.reorder = rate / 2;

    switchsim::Switch sw_rec(schema, pipeline);
    row.with_recovery = netsim::run_experiment(p, sw_rec, feed);

    netsim::ExperimentParams praw = p;
    praw.recovery_enabled = false;
    switchsim::Switch sw_raw(schema, pipeline);
    row.raw = netsim::run_experiment(praw, sw_raw, feed);

    row.digests_match = row.with_recovery.digest == baseline.digest &&
                        row.with_recovery.delivered == baseline.delivered;
    all_match = all_match && row.digests_match;
    rows.push_back(std::move(row));
  }

  // Corruption probe: bit-flips on top of 5% drop. The checksum converts
  // detected corruption into recoverable loss; report how much it caught.
  netsim::ExperimentParams pc = base;
  pc.link_faults.drop = 0.05;
  pc.link_faults.corrupt = 0.025;
  switchsim::Switch sw_cor(schema, pipeline);
  const auto corr = netsim::run_experiment(pc, sw_cor, feed);
  // Informational only: an undetected-corrupt message at switch ingress can
  // legitimately change filtering decisions, so this is not asserted.
  const bool corr_counts_full =
      total_delivered(corr) == total_delivered(baseline);

  const std::uint64_t base_total = total_delivered(baseline);
  std::printf("fault_sweep: %zu msgs, %zu rules, %u ports, baseline "
              "delivered=%llu (seeds: subs=%llu feed=%llu fault=%llu)\n",
              n, kRules, kPorts,
              static_cast<unsigned long long>(base_total),
              static_cast<unsigned long long>(kSubsSeed),
              static_cast<unsigned long long>(kFeedSeed),
              static_cast<unsigned long long>(kFaultSeed));
  std::printf("  fault-free per-message latency (us): p50 %.1f, p99 %.1f, "
              "max %.1f\n",
              baseline.latency_us.median(), baseline.latency_us.p99(),
              baseline.latency_us.max());
  std::printf("  latency in us; lat_*: gap episodes, msg_*: every consumed "
              "message\n");
  std::printf("  %-6s %-10s %-10s %-9s %-9s %-9s %-9s %-9s %-9s %-8s %s\n",
              "loss", "recov", "raw", "lat_p50", "lat_p99", "lat_max",
              "msg_p50", "msg_p99", "msg_max", "retx", "digest");
  for (const auto& row : rows) {
    const auto& wr = row.with_recovery;
    const double recov_frac =
        base_total ? static_cast<double>(total_delivered(wr)) /
                         static_cast<double>(base_total)
                   : 0;
    const double raw_frac =
        base_total ? static_cast<double>(total_delivered(row.raw)) /
                         static_cast<double>(base_total)
                   : 0;
    const double overhead =
        wr.data_bytes
            ? static_cast<double>(wr.request_bytes + wr.retransmit_bytes) /
                  static_cast<double>(wr.data_bytes)
            : 0;
    std::printf("  %-6.3f %-10.4f %-10.4f %-9.1f %-9.1f %-9.1f %-9.1f %-9.1f "
                "%-9.1f %-8.4f %s\n",
                row.loss_rate, recov_frac, raw_frac,
                wr.recovery_latency_us.median(),
                wr.recovery_latency_us.p99(), wr.recovery_latency_us.max(),
                wr.latency_us.median(), wr.latency_us.p99(),
                wr.latency_us.max(), overhead,
                row.digests_match ? "MATCH" : "MISMATCH");
  }
  const double det_rate =
      corr.channel.corrupted
          ? static_cast<double>(corr.checksum_rejects) /
                static_cast<double>(corr.channel.corrupted)
          : 1.0;
  std::printf("  corruption probe (5%% drop + 2.5%% corrupt): %llu corrupted, "
              "%llu rejected (%.1f%%), delivery count %s\n",
              static_cast<unsigned long long>(corr.channel.corrupted),
              static_cast<unsigned long long>(corr.checksum_rejects),
              100 * det_rate, corr_counts_full ? "complete" : "incomplete");
  std::printf("  exactly-once recovery at every loss rate: %s\n",
              all_match ? "PASS" : "FAIL");

  if (json) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workload\": \"nasdaq-replay\",\n"
        << "  \"messages\": " << n << ",\n"
        << "  \"rules\": " << kRules << ",\n"
        << "  \"ports\": " << kPorts << ",\n"
        << "  \"seeds\": {\"subscriptions\": " << kSubsSeed
        << ", \"feed\": " << kFeedSeed << ", \"fault\": " << kFaultSeed
        << "},\n"
        << "  \"recovery_params\": {\"gap_timeout_us\": "
        << base.recovery.gap_timeout_us
        << ", \"retry_backoff_us\": " << base.recovery.retry_backoff_us
        << ", \"backoff_factor\": " << base.recovery.backoff_factor
        << ", \"max_retries\": " << base.recovery.max_retries << "},\n"
        << "  \"baseline_delivered\": " << base_total << ",\n"
        << "  \"all_digests_match\": " << (all_match ? "true" : "false")
        << ",\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const auto& wr = row.with_recovery;
      char buf[1536];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"loss_rate\": %.4f,\n"
          "     \"recovery\": {\"delivered\": %llu, \"delivered_fraction\": "
          "%.6f, \"digests_match\": %s,\n"
          "       \"latency_us\": {\"p50\": %.2f, \"p90\": %.2f, \"p99\": "
          "%.2f, \"max\": %.2f, \"gaps\": %llu},\n"
          "       \"message_latency_us\": {\"p50\": %.2f, \"p99\": %.2f, "
          "\"max\": %.2f},\n"
          "       \"requests\": %llu, \"retries\": %llu, "
          "\"messages_recovered\": %llu, \"messages_lost\": %llu,\n"
          "       \"data_bytes\": %llu, \"request_bytes\": %llu, "
          "\"retransmit_bytes\": %llu, \"overhead_fraction\": %.6f,\n"
          "       \"checksum_rejects\": %llu, \"duplicates_dropped\": "
          "%llu},\n"
          "     \"raw\": {\"delivered\": %llu, \"delivered_fraction\": "
          "%.6f},\n"
          "     \"channel\": {\"offered\": %llu, \"dropped\": %llu, "
          "\"duplicated\": %llu, \"reordered\": %llu, \"corrupted\": "
          "%llu}}%s\n",
          row.loss_rate,
          static_cast<unsigned long long>(total_delivered(wr)),
          base_total ? static_cast<double>(total_delivered(wr)) /
                           static_cast<double>(base_total)
                     : 0.0,
          row.digests_match ? "true" : "false",
          wr.recovery_latency_us.median(),
          wr.recovery_latency_us.quantile(0.90),
          wr.recovery_latency_us.p99(), wr.recovery_latency_us.max(),
          static_cast<unsigned long long>(
              wr.uplink_recovery.gaps_detected +
              wr.subscriber_recovery.gaps_detected),
          wr.latency_us.median(), wr.latency_us.p99(), wr.latency_us.max(),
          static_cast<unsigned long long>(wr.uplink_recovery.requests_sent +
                                          wr.subscriber_recovery.requests_sent),
          static_cast<unsigned long long>(wr.uplink_recovery.retries +
                                          wr.subscriber_recovery.retries),
          static_cast<unsigned long long>(
              wr.uplink_recovery.messages_recovered +
              wr.subscriber_recovery.messages_recovered),
          static_cast<unsigned long long>(wr.uplink_recovery.messages_lost +
                                          wr.subscriber_recovery.messages_lost),
          static_cast<unsigned long long>(wr.data_bytes),
          static_cast<unsigned long long>(wr.request_bytes),
          static_cast<unsigned long long>(wr.retransmit_bytes),
          wr.data_bytes ? static_cast<double>(wr.request_bytes +
                                              wr.retransmit_bytes) /
                              static_cast<double>(wr.data_bytes)
                        : 0.0,
          static_cast<unsigned long long>(wr.checksum_rejects),
          static_cast<unsigned long long>(
              wr.uplink_recovery.duplicates_dropped +
              wr.subscriber_recovery.duplicates_dropped),
          static_cast<unsigned long long>(total_delivered(row.raw)),
          base_total ? static_cast<double>(total_delivered(row.raw)) /
                           static_cast<double>(base_total)
                     : 0.0,
          static_cast<unsigned long long>(wr.channel.offered),
          static_cast<unsigned long long>(wr.channel.dropped),
          static_cast<unsigned long long>(wr.channel.duplicated),
          static_cast<unsigned long long>(wr.channel.reordered),
          static_cast<unsigned long long>(wr.channel.corrupted),
          i + 1 == rows.size() ? "" : ",");
      out << buf;
    }
    out << "  ],\n";
    char cbuf[512];
    std::snprintf(
        cbuf, sizeof(cbuf),
        "  \"corruption_probe\": {\"drop\": 0.05, \"corrupt\": 0.025,\n"
        "    \"frames_corrupted\": %llu, \"checksum_rejects\": %llu, "
        "\"detection_rate\": %.4f,\n"
        "    \"delivered\": %llu, \"delivery_count_complete\": %s}\n",
        static_cast<unsigned long long>(corr.channel.corrupted),
        static_cast<unsigned long long>(corr.checksum_rejects), det_rate,
        static_cast<unsigned long long>(total_delivered(corr)),
        corr_counts_full ? "true" : "false");
    out << cbuf << "}\n";
  }
  return all_match ? 0 : 1;
}
