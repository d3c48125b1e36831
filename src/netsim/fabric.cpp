#include "netsim/fabric.hpp"

#include <algorithm>

namespace camus::netsim {

namespace {

// Flow hash for ECMP spine selection: FNV-1a over the frame bytes. Pure
// function of the frame, so a flow (identical header bytes) always takes
// the same spine — and with every spine running the same steering program,
// the choice affects only the link a copy crosses.
std::uint64_t flow_hash(std::span<const std::uint8_t> frame) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : frame) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

}  // namespace

Fabric::Node Fabric::make_node() const {
  Node n;
  n.sw = std::make_unique<switchsim::Switch>(schema_, table::Pipeline{});
  n.installer = std::make_unique<pubsub::TwoPhaseInstaller>(*n.sw);
  return n;
}

Fabric::Fabric(spec::Schema schema, FabricTopologyOptions opts)
    : schema_(std::move(schema)), opts_(opts) {
  spine_.reserve(opts_.spec.spines);
  leaf_.reserve(opts_.spec.leaves);
  for (std::size_t s = 0; s < opts_.spec.spines; ++s)
    spine_.push_back(make_node());
  for (std::size_t l = 0; l < opts_.spec.leaves; ++l)
    leaf_.push_back(make_node());
  links_.reserve(opts_.spec.spines * opts_.spec.leaves);
  for (std::size_t s = 0; s < opts_.spec.spines; ++s)
    for (std::size_t l = 0; l < opts_.spec.leaves; ++l) {
      // Private deterministic stream per link: seed mixes (spine, leaf) so
      // rerouting around one lossy link never perturbs another's decisions.
      const std::uint64_t seed =
          opts_.fault_seed ^ (s * 0x9e3779b97f4a7c15ULL) ^
          (l * 0xc2b2ae3d27d4eb4fULL);
      links_.emplace_back(fault::Plan(opts_.downlink_faults, seed));
    }
}

pubsub::FabricTargets Fabric::targets() {
  pubsub::FabricTargets t;
  t.spines.reserve(spine_.size());
  t.leaves.reserve(leaf_.size());
  for (Node& n : spine_) t.spines.push_back(n.installer.get());
  for (Node& n : leaf_) t.leaves.push_back(n.installer.get());
  return t;
}

void Fabric::program(const compiler::FabricProgram& program) {
  for (Node& n : spine_) {
    n.sw->reprogram(table::Pipeline(program.spine));
    n.installer->resync_from_switch();
  }
  for (std::size_t l = 0; l < leaf_.size(); ++l) {
    leaf_[l].sw->reprogram(table::Pipeline(program.leaves[l]));
    leaf_[l].installer->resync_from_switch();
  }
}

std::vector<FabricDelivery> Fabric::inject(std::span<const std::uint8_t> frame,
                                           double t_us) {
  std::vector<FabricDelivery> out;
  const std::size_t s = flow_hash(frame) % spine_.size();
  const double t_spine = t_us + opts_.spine_latency_us;
  const switchsim::Switch::Frame in{frame,
                                    static_cast<std::uint64_t>(t_spine)};
  // The spine re-frames per downlink exactly as a leaf re-frames per
  // egress port: each leaf receives only the messages steered to it.
  for (const auto& down : spine_[s].sw->process_batch({&in, 1})) {
    const std::size_t l = down.port;  // downlink convention: port == leaf
    if (l >= leaf_.size()) continue;  // not a downlink (foreign program)
    for (auto& arrival : link(s, l).offer(t_spine + opts_.downlink_latency_us,
                                          down.frame)) {
      const switchsim::Switch::Frame hop{
          arrival.bytes, static_cast<std::uint64_t>(arrival.t_us)};
      for (auto& tx : leaf_[l].sw->process_batch({&hop, 1}))
        out.push_back(
            FabricDelivery{l, tx.port, arrival.t_us, std::move(tx.frame)});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::size_t, std::uint16_t>> Fabric::deliver_env(
    const std::vector<std::uint64_t>& fields, std::uint64_t now_us) {
  std::vector<std::pair<std::size_t, std::uint16_t>> out;
  const lang::ActionSet& steer = spine_[0].sw->classify(fields, now_us);
  for (const std::uint16_t downlink : steer.ports) {
    if (downlink >= leaf_.size()) continue;
    const lang::ActionSet& acts =
        leaf_[downlink].sw->classify(fields, now_us);
    for (const std::uint16_t port : acts.ports) out.emplace_back(downlink, port);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Fabric::reboot_leaf(std::size_t i) { leaf_[i] = make_node(); }
void Fabric::reboot_spine(std::size_t i) { spine_[i] = make_node(); }

}  // namespace camus::netsim
