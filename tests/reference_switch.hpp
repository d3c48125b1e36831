// Test oracle for the switch data plane: a per-message interpreter built
// only from the reference codecs and the IR evaluator —
// decode_market_data_packet -> ItchFieldExtractor::extract ->
// Pipeline::evaluate over its own StateRegisters -> one
// encode_market_data_packet per egress port. It shares no code with the
// engine under test (frame scan, extract_wire, CompiledPipeline, the
// hot-key memo, raw re-framing), so a differential against it checks
// Switch::process_batch end to end: egress packets, SwitchCounters and
// register state.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "proto/packet.hpp"
#include "spec/schema.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/switch.hpp"
#include "table/pipeline.hpp"

namespace camus::oracle {

class ReferenceSwitch {
 public:
  ReferenceSwitch(spec::Schema schema, table::Pipeline pipeline)
      : schema_(std::move(schema)), extractor_(schema_), registers_(schema_) {
    reprogram(std::move(pipeline));
  }
  // The extractor and the register file point into schema_.
  ReferenceSwitch(const ReferenceSwitch&) = delete;
  ReferenceSwitch& operator=(const ReferenceSwitch&) = delete;

  // Swaps the program; registers and counters carry over.
  void reprogram(table::Pipeline pipeline) {
    pipeline_ = std::move(pipeline);
    pipeline_.finalize();
  }

  // One ingress frame: every add-order classified in order, then one
  // re-encoded packet per egress port (ports ascending) holding exactly
  // that port's messages, with counters per the SwitchCounters contract.
  std::vector<switchsim::Switch::TxPacket> process(
      std::span<const std::uint8_t> frame, std::uint64_t now_us) {
    ++counters_.rx_frames;
    const auto pkt = proto::decode_market_data_packet(frame);
    if (!pkt || pkt->itch.add_orders.empty()) {
      ++counters_.parse_errors;
      return {};
    }
    std::map<std::uint16_t, std::vector<proto::ItchAddOrder>> per_port;
    for (const auto& msg : pkt->itch.add_orders) {
      lang::Env env;
      env.fields = extractor_.extract(msg);
      env.states = registers_.snapshot(now_us);
      const table::LeafEntry* leaf = pipeline_.evaluate(env);
      if (!leaf) continue;
      for (const std::uint32_t var : leaf->actions.state_updates) {
        registers_.apply_update(var, env.fields, now_us);
        ++counters_.state_updates;
      }
      for (const std::uint16_t p : leaf->actions.ports)
        per_port[p].push_back(msg);
    }
    if (per_port.empty()) {
      ++counters_.dropped;
      return {};
    }
    ++counters_.matched;
    if (per_port.size() > 1) ++counters_.multicast_frames;
    std::vector<switchsim::Switch::TxPacket> out;
    for (const auto& [port, msgs] : per_port) {
      out.push_back({port, proto::encode_market_data_packet(
                               pkt->eth, pkt->ip.src, pkt->ip.dst,
                               pkt->itch.mold, msgs, pkt->udp.dst_port)});
      ++counters_.tx_copies;
    }
    return out;
  }

  const switchsim::SwitchCounters& counters() const { return counters_; }
  switchsim::StateRegisters& registers() { return registers_; }

 private:
  spec::Schema schema_;
  table::Pipeline pipeline_;
  switchsim::ItchFieldExtractor extractor_;
  switchsim::StateRegisters registers_;
  switchsim::SwitchCounters counters_;
};

}  // namespace camus::oracle
