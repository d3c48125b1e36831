// Multi-switch spine–leaf topology: every node is a full
// switchsim::Switch, spine→leaf downlinks run through the seeded
// fault::LinkFaults channel with per-hop latency, and each node carries
// its own TwoPhaseInstaller so the pubsub::FabricController can program
// the whole fabric transactionally (targets()).
//
// Data path of one ingress frame:
//   ingress ──ECMP (flow hash % spines)──▶ spine ──per-(spine,leaf) faulty
//   link──▶ leaf ──▶ subscriber ports
// Every hop runs Switch::process_batch. The spine classifies each message
// and re-frames per downlink its steering rules select (TxPacket.port ==
// leaf index by the FabricSpec downlink convention), so each leaf receives
// exactly the messages steered to it; each leaf classifies them again and
// re-frames per local subscriber port. Every spine runs the same steering
// program, so ECMP spraying cannot change delivery semantics — only
// timing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "compiler/fabric.hpp"
#include "fault/plan.hpp"
#include "pubsub/fabric.hpp"
#include "pubsub/install.hpp"
#include "spec/schema.hpp"
#include "switchsim/switch.hpp"

namespace camus::netsim {

struct FabricTopologyOptions {
  compiler::FabricSpec spec;
  // Fault model of every spine→leaf downlink; each link derives a private
  // deterministic plan from (fault_seed, spine, leaf).
  fault::FaultSpec downlink_faults;
  std::uint64_t fault_seed = 1;
  double spine_latency_us = 1.0;     // ingress → spine
  double downlink_latency_us = 2.0;  // spine → leaf
};

// One frame that reached a subscriber port: the leaf's re-framed egress
// packet, carrying exactly the port's matching messages.
struct FabricDelivery {
  std::size_t leaf = 0;
  std::uint16_t port = 0;
  double t_us = 0;
  std::vector<std::uint8_t> frame;

  friend auto operator<=>(const FabricDelivery&,
                          const FabricDelivery&) = default;
};

class Fabric {
 public:
  Fabric(spec::Schema schema, FabricTopologyOptions opts);

  std::size_t spines() const noexcept { return spine_.size(); }
  std::size_t leaves() const noexcept { return leaf_.size(); }
  const compiler::FabricSpec& spec() const noexcept { return opts_.spec; }

  switchsim::Switch& spine(std::size_t i) { return *spine_[i].sw; }
  switchsim::Switch& leaf(std::size_t i) { return *leaf_[i].sw; }
  pubsub::TwoPhaseInstaller& spine_installer(std::size_t i) {
    return *spine_[i].installer;
  }
  pubsub::TwoPhaseInstaller& leaf_installer(std::size_t i) {
    return *leaf_[i].installer;
  }

  // Installer handles in topology order for the FabricController.
  pubsub::FabricTargets targets();

  // Directly reprograms every switch (no control channel) — benches and
  // tests that do not exercise the install path.
  void program(const compiler::FabricProgram& program);

  // Injects one wire frame at t_us: ECMP spine choice, spine
  // classification and per-downlink re-framing, per-downlink
  // faults+latency, leaf classification and per-port re-framing. Returns
  // the deliveries sorted by (leaf, port, arrival time).
  std::vector<FabricDelivery> inject(std::span<const std::uint8_t> frame,
                                     double t_us);

  // Fault-free classification of pre-extracted field values through
  // spine 0 and the selected leaves — the delivery SET the fabric
  // computes, independent of link faults and timing. The differential
  // suites compare this against the monolithic oracle's port set.
  std::vector<std::pair<std::size_t, std::uint16_t>> deliver_env(
      const std::vector<std::uint64_t>& fields, std::uint64_t now_us = 0);

  // Replaces a node with a factory-blank switch (empty program, fence 0)
  // and a fresh installer — a power-cycle that lost the program. The
  // controller's reconcile() must re-image it.
  void reboot_leaf(std::size_t i);
  void reboot_spine(std::size_t i);

  const fault::LinkFaults::Stats& downlink_stats(std::size_t spine,
                                                 std::size_t leaf) const {
    return links_[spine * leaf_.size() + leaf].stats();
  }

 private:
  struct Node {
    std::unique_ptr<switchsim::Switch> sw;
    std::unique_ptr<pubsub::TwoPhaseInstaller> installer;
  };

  Node make_node() const;
  fault::LinkFaults& link(std::size_t spine, std::size_t leaf) {
    return links_[spine * leaf_.size() + leaf];
  }

  spec::Schema schema_;
  FabricTopologyOptions opts_;
  std::vector<Node> spine_;
  std::vector<Node> leaf_;
  std::vector<fault::LinkFaults> links_;  // [spine * leaves + leaf]
};

}  // namespace camus::netsim
