// Trace-replay harness for the data plane: drives packed market-data
// frames through Switch::process_batch, timing only the switch work. The
// outputs fold into an order-sensitive digest so bench harnesses can pin
// output equivalence without keeping every egress frame alive.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "switchsim/switch.hpp"
#include "workload/feed.hpp"

namespace camus::netsim {

struct ReplayStats {
  std::size_t frames = 0;      // ingress frames offered
  std::size_t messages = 0;    // ingress messages offered (sum of n_msgs)
  std::size_t tx_packets = 0;  // egress packets produced
  std::uint64_t tx_bytes = 0;
  std::uint64_t wall_ns = 0;  // sum of the timed process calls
  // Elapsed ns of each process_batch call, for tail percentiles.
  // call_msgs[i] is the number of ingress messages call i carried —
  // weight percentiles by it, because the per-call series mixes full and
  // partial batches (the trace tail) whose raw timings are not
  // comparable per message.
  std::vector<std::uint64_t> call_ns;
  std::vector<std::uint32_t> call_msgs;
  // FNV-1a over every egress (port, frame bytes) in emission order.
  std::uint64_t output_digest = 0;
};

// Message-normalized latency distribution of a replay: each timed call
// contributes its per-message cost (call_ns / call_msgs) with weight
// call_msgs, so a 3-frame trailing batch no longer reads as "3x faster"
// than the full batches and p99 reflects what a message actually
// experienced. Percentiles are weighted order statistics over the
// normalized series; max_ns is the worst normalized call.
struct LatencySummary {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
};
LatencySummary per_message_latency(const ReplayStats& st);

// process_batch over batch_size-frame slices.
ReplayStats replay_batched(switchsim::Switch& sw,
                           std::span<const workload::PackedFrame> frames,
                           std::size_t batch_size);

}  // namespace camus::netsim
