// Throughput-regression harness for the data plane: replays a
// nasdaq-style feed through Switch::process_batch in 64-frame batches and
// reports machine-readable throughput numbers, an order-sensitive digest
// of every egress packet (port and bytes), and the egress copies sent and
// packets built per message. CI runs this with --quick --json through
// bench/throughput_gate.py, which pins the digest and the packets built to
// the committed BENCH_throughput.json (quick_output_digest and
// quick_packets_built; the full run's are output_digest and
// packets_built) and fails the build when throughput regresses versus a
// build of the base commit run alternately on the same machine.
//
// Latency percentiles are message-weighted (netsim::per_message_latency):
// each timed call contributes its per-message cost with weight equal to
// the messages it carried, so the trailing partial batch does not skew
// p99.
//
// Allocation audit baked into this harness's hot loops (before -> after):
//  - workload::generate_feed reserved the "others" symbol index;
//  - extractor gained extract_into/extract_wire (no per-message vector);
//  - the batch path caches register snapshots (no per-message snapshot
//    vector), reuses its scan and gather scratch across batches, and
//    re-frames every batch into one switch-owned egress buffer (no
//    per-packet vector), building each distinct packet of a frame once.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "compiler/compile.hpp"
#include "netsim/replay.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

namespace {

constexpr std::size_t kMsgsPerFrame = 4;
constexpr std::size_t kBatchFrames = 64;
constexpr std::size_t kRules = 1000;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") quick = true;
    else if (a == "--json") json = true;
    else if (a == "--out" && i + 1 < argc) json_path = argv[++i];
  }
  const std::size_t n = quick ? 40000 : 400000;

  // Workload and pipeline: the Figure-7 nasdaq-replay shape (bursty
  // arrivals, Zipf symbol skew) against a 1000-subscription program.
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 1;
  sp.n_subscriptions = kRules;
  sp.n_symbols = 1000;
  sp.n_hosts = 200;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  // Exact-first ordering puts the symbol table ahead of the price ranges —
  // the layout the hot-key memo prefixes over.
  compiler::CompileOptions co;
  co.order = bdd::OrderHeuristic::kExactFirst;
  auto pipeline =
      compiler::compile_rules(schema, subs.rules, co).take().pipeline;

  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = n;
  fp.symbols = subs.symbols;
  fp.watched_fraction = 0.005;
  fp.rate_msgs_per_sec = 150000;
  fp.zipf_s = 0.5;
  // Prices sit below most subscription thresholds, so the switch filters
  // most of the feed — the paper's selective-delivery regime. Matched
  // messages still fan out to every host whose threshold clears.
  fp.price_min = 1;
  fp.price_max = 300;
  auto feed = workload::generate_feed(fp);
  auto frames = pack_feed_frames(feed, kMsgsPerFrame);

  switchsim::Switch sw(schema, pipeline);
  const auto st = netsim::replay_batched(sw, frames, kBatchFrames);

  const double msgs_per_sec =
      st.wall_ns > 0 ? static_cast<double>(st.messages) * 1e9 /
                           static_cast<double>(st.wall_ns)
                     : 0;
  const auto lat = netsim::per_message_latency(st);
  const auto& bs = sw.batch_stats();
  const double hit_rate =
      bs.memo_probes > 0
          ? static_cast<double>(bs.memo_hits) /
                static_cast<double>(bs.memo_probes)
          : 0;
  const unsigned hw_cores = std::thread::hardware_concurrency();
  const auto per_msg = [&](std::uint64_t count) {
    return st.messages > 0 ? static_cast<double>(count) /
                                 static_cast<double>(st.messages)
                           : 0;
  };
  const double copies_per_msg = per_msg(sw.counters().tx_copies);
  const double built_per_msg = per_msg(bs.packets_built);

  std::printf("throughput_pipeline: %zu msgs, %zu frames, %zu rules, "
              "batch=%zu frames, hw_cores=%u\n",
              n, frames.size(), kRules, kBatchFrames, hw_cores);
  std::printf("  batched: %12.0f msgs/s   ns/msg p50=%.0f p99=%.0f\n",
              msgs_per_sec, lat.p50_ns, lat.p99_ns);
  std::printf("  memo hit rate: %.1f%%   arena: %zu B   output digest: "
              "%016llx\n",
              100 * hit_rate, sw.compiled().arena_bytes(),
              static_cast<unsigned long long>(st.output_digest));
  std::printf("  egress: %.3f copies/msg   %.3f packets built/msg "
              "(%llu built)\n",
              copies_per_msg, built_per_msg,
              static_cast<unsigned long long>(bs.packets_built));

  if (json) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"workload\": \"nasdaq-replay\",\n"
        "  \"seeds\": {\"subscriptions\": 1, \"feed\": 20170830},\n"
        "  \"messages\": %zu,\n"
        "  \"frames\": %zu,\n"
        "  \"rules\": %zu,\n"
        "  \"msgs_per_frame\": %zu,\n"
        "  \"batch_frames\": %zu,\n"
        "  \"hw_cores\": %u,\n"
        "  \"output_digest\": \"%016llx\",\n"
        "  \"batched\": {\"msgs_per_sec\": %.0f, \"ns_per_msg_p50\": %.1f, "
        "\"ns_per_msg_p99\": %.1f},\n"
        "  \"memo_hit_rate\": %.4f,\n"
        "  \"tx_copies_per_msg\": %.4f,\n"
        "  \"packets_built_per_msg\": %.4f,\n"
        "  \"packets_built\": %llu,\n"
        "  \"arena_bytes\": %zu\n"
        "}\n",
        n, frames.size(), kRules, kMsgsPerFrame, kBatchFrames, hw_cores,
        static_cast<unsigned long long>(st.output_digest), msgs_per_sec,
        lat.p50_ns, lat.p99_ns, hit_rate, copies_per_msg, built_per_msg,
        static_cast<unsigned long long>(bs.packets_built),
        sw.compiled().arena_bytes());
    std::ofstream(json_path) << buf;
    std::printf("%s", buf);
  }
  return 0;
}
