// The end-to-end network experiment: a publisher feeds one switch, and each
// egress port 1..n_ports leads to a subscriber host.
//
//   publisher --uplink*--> FeedHandler -> switch -> FeedSequencer
//       --downlink_p*--> RecoveringSubscriber -> host CPU   (one per port)
//
// Every link charges serialization at kLinkGbps plus kPropagationUs, and
// the switch adds kSwitchPipelineUs. Links marked * apply a seeded
// fault::Plan (drop / duplicate / reorder / corrupt). With recovery on,
// MoldUDP64 gap recovery runs at both recovery points: retransmission
// requests travel reverse channels with the same fault spec, and replies
// take the forward channels again, so recovery traffic is itself
// unreliable. With recovery off, whatever arrives goes straight on.
//
// Each host is a FIFO CPU that charges every message it receives
// kDeliverCostUs, plus kHostFilterCostUs in host-filter mode, and samples
// publish -> consumed latency for the messages it keeps. A message is
// interested at the port `interest` assigns to its stock, in either mode.
// Figure 7 compares the two filter modes on one-message frames:
//
//  - kSwitchFilter ("Camus"): the switch runs the compiled subscriptions
//    and a host keeps everything it receives.
//  - kHostFilter (the paper's "Baseline"): the switch broadcasts the feed
//    and each host keeps only its interested messages. The queueing this
//    builds at the host CPU under bursts is what separates the two.
//
// The publisher and the hosts are "collocated for accurate timestamping"
// as in the paper: one clock.
//
// Determinism: every random decision derives from (seed, link id, packet
// index) — no ambient RNG — and the switch is clocked with LOGICAL time
// (the frame's first MoldUDP sequence number) rather than simulated
// wall-clock, so stateful window aggregates see the same boundaries
// whether or not recovery delayed a frame. A clean run and a faulted
// run with recovery therefore produce bit-identical per-port delivery
// digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "fault/plan.hpp"
#include "pubsub/recovery.hpp"
#include "switchsim/switch.hpp"
#include "util/stats.hpp"
#include "workload/feed.hpp"

namespace camus::netsim {

// The simulated testbed (DESIGN.md §1).
inline constexpr double kLinkGbps = 25.0;
inline constexpr double kPropagationUs = 0.5;     // cable + transceivers
inline constexpr double kSwitchPipelineUs = 0.8;  // ASIC ingress -> egress
// Per-message host CPU cost: the software filter over the full feed, and
// DPDK rx + application hand-off.
inline constexpr double kHostFilterCostUs = 2.0;
inline constexpr double kDeliverCostUs = 0.8;

enum class FilterMode : std::uint8_t { kSwitchFilter, kHostFilter };

struct ExperimentParams {
  std::uint16_t n_ports = 4;       // subscriber hosts on ports 1..n_ports
  std::size_t msgs_per_frame = 4;  // publisher batching
  FilterMode mode = FilterMode::kSwitchFilter;
  // Messages a host CPU may hold waiting; 0 = unbounded. A message that
  // finds the queue full is dropped (counted in host_drops).
  std::size_t host_queue_limit = 0;

  // Applied to the uplink, every downlink, and the reverse (request)
  // channels; each channel gets its own stream derived from `seed`.
  fault::FaultSpec link_faults;
  std::uint64_t seed = 1;

  bool recovery_enabled = true;
  pubsub::RecoveryParams recovery;

  // Symbol -> the port whose host wants it: counts interested_expected
  // and interested_received, and in kHostFilter mode selects the messages
  // each host keeps.
  std::map<std::string, std::uint16_t> interest;
};

struct ExperimentResult {
  std::uint64_t feed_messages = 0;

  // Per-port exactly-once delivery: message count and an FNV-1a digest
  // over the delivered 36-byte message blocks in delivery order.
  std::map<std::uint16_t, std::uint64_t> delivered;
  std::map<std::uint16_t, std::uint64_t> digest;

  // Subscriber hosts.
  util::CdfSampler latency_us;  // publish -> consumed, per kept message
  std::uint64_t interested_expected = 0;  // feed messages `interest` maps
  std::uint64_t interested_received = 0;  // consumed at `interest`'s port
  std::uint64_t host_drops = 0;           // at a full CPU queue
  std::uint64_t frames_to_hosts = 0;      // switch egress data frames
  std::uint64_t bytes_to_hosts = 0;

  // Recovery behaviour at the two recovery points.
  pubsub::RecoveryStats uplink_recovery;     // FeedHandler (switch ingress)
  pubsub::RecoveryStats subscriber_recovery; // merged over all subscribers
  util::CdfSampler recovery_latency_us;      // merged gap-block samples
  std::uint64_t checksum_rejects = 0;        // both points combined

  // Channel-level tallies summed over every faulted link.
  fault::LinkFaults::Stats channel;

  // Overhead accounting: first transmissions on the uplink and the
  // downlinks vs recovery traffic.
  std::uint64_t data_bytes = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t retransmit_bytes = 0;
};

// Drives `feed` through `sw`: a compiled subscription pipeline for
// kSwitchFilter, a broadcast switch for kHostFilter. With
// params.recovery_enabled the result's per-port digests are independent
// of the fault spec — that is the recovery guarantee, asserted
// differentially in tests/test_fault.cpp and bench/fault_sweep.
ExperimentResult run_experiment(const ExperimentParams& params,
                                switchsim::Switch& sw,
                                const workload::Feed& feed);

}  // namespace camus::netsim
