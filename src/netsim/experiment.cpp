#include "netsim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "netsim/sim.hpp"
#include "proto/packet.hpp"
#include "pubsub/endpoints.hpp"

namespace camus::netsim {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// MoldUDP-style heartbeats (count-0 frames advertising the next sequence)
// sent after the feed ends, on the uplink and every downlink, when
// recovery is on. They make tail loss detectable; once a gap is armed the
// reassembler's own retry timers sustain recovery, so the span only needs
// to cover detection.
constexpr std::size_t kHeartbeats = 2000;
constexpr double kHeartbeatUs = 250.0;

std::uint64_t fnv_fold(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// Re-arms a clock-free recovery entity (FeedHandler / subscriber) on the
// simulator: after every interaction, arm() schedules one event at the
// entity's next deadline. Redundant events are harmless — on_timer no-ops
// when fired early — so a moved deadline just costs one extra callback.
struct TimerPump {
  Simulator* sim = nullptr;
  std::function<double()> deadline;
  std::function<void(double)> fire;
  double armed = std::numeric_limits<double>::infinity();

  void arm() {
    const double d = deadline();
    if (!std::isfinite(d) || d >= armed) return;
    armed = d;
    sim->at(std::max(d, sim->now_us()), [this] {
      armed = std::numeric_limits<double>::infinity();
      fire(sim->now_us());
      arm();
    });
  }
};

proto::EthernetHeader reverse_eth() {
  proto::EthernetHeader eth;
  eth.dst = 0x0200c0ffee01ULL;  // back toward the feed source
  eth.src = 0x0200ab1e0001ULL;
  return eth;
}

void accumulate(fault::LinkFaults::Stats& into,
                const fault::LinkFaults::Stats& s) {
  into.offered += s.offered;
  into.delivered += s.delivered;
  into.dropped += s.dropped;
  into.duplicated += s.duplicated;
  into.reordered += s.reordered;
  into.corrupted += s.corrupted;
}

void accumulate(pubsub::RecoveryStats& into, const pubsub::RecoveryStats& s) {
  into.frames_accepted += s.frames_accepted;
  into.messages_delivered += s.messages_delivered;
  into.duplicates_dropped += s.duplicates_dropped;
  into.overflow_dropped += s.overflow_dropped;
  into.seq_jump_rejects += s.seq_jump_rejects;
  into.gaps_detected += s.gaps_detected;
  into.requests_sent += s.requests_sent;
  into.retries += s.retries;
  into.messages_recovered += s.messages_recovered;
  into.messages_lost += s.messages_lost;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentParams& params,
                                switchsim::Switch& sw,
                                const workload::Feed& feed) {
  ExperimentResult result;
  result.feed_messages = feed.messages.size();
  for (const auto& fm : feed.messages)
    result.interested_expected += params.interest.count(fm.msg.stock);

  Simulator sim;

  // Each channel derives its own decision stream from (seed, channel id):
  // 0 = uplink, 1 = uplink reverse (requests to the publisher),
  // 2p = downlink of port p, 2p+1 = its reverse (requests to the switch).
  const auto channel_faults = [&](std::uint64_t id) {
    return fault::LinkFaults(fault::Plan(
        params.link_faults,
        params.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))));
  };
  fault::LinkFaults up_faults = channel_faults(0);
  fault::LinkFaults up_req_faults = channel_faults(1);
  std::deque<fault::LinkFaults> down_faults, down_req_faults;

  Link up(kLinkGbps, kPropagationUs);
  Link up_rev(kLinkGbps, kPropagationUs);
  std::deque<Link> down, down_rev;
  const double cpu_us =
      kDeliverCostUs +
      (params.mode == FilterMode::kHostFilter ? kHostFilterCostUs : 0.0);
  std::vector<FifoServer> cpus;
  for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
    down.emplace_back(kLinkGbps, kPropagationUs);
    down_rev.emplace_back(kLinkGbps, kPropagationUs);
    down_faults.push_back(channel_faults(2ULL * p));
    down_req_faults.push_back(channel_faults(2ULL * p + 1));
    cpus.emplace_back(cpu_us, params.host_queue_limit);
    result.delivered[p] = 0;
    result.digest[p] = kFnvBasis;
  }

  // The publisher appends the whole feed to its store up front, so
  // retention covers the run.
  const std::size_t retain = feed.messages.size() + 1;
  pubsub::Publisher pub("CAMUS00001", retain);
  pubsub::FeedSequencer sequencer(retain);

  // --- Subscriber host: every add-order block that reaches port p is
  // folded into the port's digest and charged to its CPU. A message is
  // interested at the port `interest` names for its stock. In host-filter
  // mode the host keeps only those; in switch-filter mode it keeps
  // everything the switch delivered. It samples the latency of every
  // message it keeps.
  const auto receive = [&](std::uint16_t port,
                           std::span<const std::uint8_t> block) {
    result.digest[port] = fnv_fold(result.digest[port], block);
    ++result.delivered[port];
    const double t_done = cpus[port - 1u].serve(sim.now_us());
    if (t_done < 0) return;  // CPU queue full: dropped
    const proto::ItchAddOrder msg = proto::decode_add_order_at(block, 0);
    const auto it = params.interest.find(msg.stock);
    const bool interested = it != params.interest.end() && it->second == port;
    if (params.mode == FilterMode::kHostFilter && !interested) return;
    if (interested) ++result.interested_received;
    result.latency_us.add(t_done -
                          static_cast<double>(msg.timestamp_ns) / 1e3);
  };

  // --- Downlink: switch egress -> subscriber, with per-port faults.
  std::vector<std::unique_ptr<pubsub::RecoveringSubscriber>> subs;
  std::deque<TimerPump> sub_pumps;

  const auto send_down = [&](std::uint16_t port,
                             std::span<const std::uint8_t> frame) {
    const std::size_t i = port - 1u;
    const double t_nic =
        down[i].transmit(sim.now_us() + kSwitchPipelineUs, frame.size());
    for (auto& a : down_faults[i].offer(t_nic, frame)) {
      sim.at(a.t_us, [&, port, bytes = std::move(a.bytes)] {
        const std::size_t k = port - 1u;
        if (params.recovery_enabled) {
          subs[k]->deliver(sim.now_us(), bytes);
          sub_pumps[k].arm();
          return;
        }
        // Raw mode: whatever parses is received, in arrival order.
        proto::MarketDataView view;
        std::vector<std::uint32_t> offsets;
        if (!proto::scan_market_data_packet(bytes, view, offsets)) return;
        const std::span<const std::uint8_t> frame_bytes(bytes);
        for (const std::uint32_t off : offsets)
          receive(port, frame_bytes.subspan(off, proto::ItchAddOrder::kSize));
      });
    }
  };

  // --- Switch: logical clock = the frame's first MoldUDP sequence, so
  // stateful windows are a function of the message stream, not of how long
  // recovery delayed a frame.
  const auto switch_process = [&](std::uint64_t first_seq,
                                  std::span<const std::uint8_t> frame) {
    const switchsim::Switch::Frame in{frame, first_seq};
    for (const auto& tx : sw.process_batch({&in, 1})) {
      if (tx.port == 0 || tx.port > params.n_ports) continue;
      ++result.frames_to_hosts;
      result.bytes_to_hosts += tx.frame.size();
      result.data_bytes += tx.frame.size();
      if (!params.recovery_enabled) {
        send_down(tx.port, tx.frame);
        continue;
      }
      // seal() rewrites the frame, so copy it out of the egress buffer.
      std::vector<std::uint8_t> out(tx.frame.begin(), tx.frame.end());
      sequencer.seal(tx.port, out);
      send_down(tx.port, out);
    }
  };

  // Subscriber retransmission requests travel the reverse downlink to the
  // sequencer; replies re-enter the (faulted) forward downlink.
  for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
    subs.push_back(std::make_unique<pubsub::RecoveringSubscriber>(
        p, params.recovery,
        // The subscriber hands over decoded messages; encoding one
        // restores its wire block.
        [&, p](std::uint64_t, const proto::ItchAddOrder& msg) {
          receive(p, proto::encode_itch_message(msg));
        },
        [&, p](const proto::MoldUdp64Request& req) {
          auto rf = proto::encode_retransmit_request(
              reverse_eth(), 0x0a0000ffu + p, 0x0a000002u, req);
          result.request_bytes += rf.size();
          const std::size_t i = p - 1u;
          const double t = down_rev[i].transmit(sim.now_us(), rf.size());
          for (auto& a : down_req_faults[i].offer(t, rf)) {
            sim.at(a.t_us, [&, p, bytes = std::move(a.bytes)] {
              if (!proto::verify_udp_checksum(bytes)) return;
              const auto r = proto::decode_retransmit_request(bytes);
              if (!r) return;
              for (const auto& f :
                   sequencer.retransmit(p, r->sequence, r->count)) {
                result.retransmit_bytes += f.size();
                send_down(p, f);
              }
            });
          }
        }));
    sub_pumps.push_back(TimerPump{
        &sim, [&, p] { return subs[p - 1u]->next_deadline(); },
        [&, p](double now) {
          subs[p - 1u]->on_timer(now);
        }});
  }

  // --- Uplink: publisher -> FeedHandler (switch ingress), with recovery
  // requests traveling the reverse uplink to the publisher's store.
  std::function<void(std::vector<std::uint8_t>)> uplink_deliver;
  const auto send_up = [&](std::span<const std::uint8_t> frame) {
    const double t = up.transmit(sim.now_us(), frame.size());
    for (auto& a : up_faults.offer(t, frame)) {
      sim.at(a.t_us, [&, bytes = std::move(a.bytes)]() mutable {
        uplink_deliver(std::move(bytes));
      });
    }
  };

  const std::size_t per_frame =
      std::max<std::size_t>(params.msgs_per_frame, 1);
  pubsub::FeedHandler fh(
      params.recovery,
      [&](std::uint64_t first_seq, std::vector<std::uint8_t> frame) {
        switch_process(first_seq, frame);
      },
      [&](const proto::MoldUdp64Request& req) {
        auto rf = proto::encode_retransmit_request(reverse_eth(), 0x0a000002u,
                                                   0x0a000001u, req);
        result.request_bytes += rf.size();
        const double t = up_rev.transmit(sim.now_us(), rf.size());
        for (auto& a : up_req_faults.offer(t, rf)) {
          sim.at(a.t_us, [&, bytes = std::move(a.bytes)] {
            if (!proto::verify_udp_checksum(bytes)) return;
            const auto r = proto::decode_retransmit_request(bytes);
            if (!r) return;
            for (const auto& f : pub.retransmit(*r)) {
              result.retransmit_bytes += f.size();
              send_up(f);
            }
          });
        }
      },
      per_frame);
  TimerPump fh_pump{&sim, [&] { return fh.next_deadline(); },
                    [&](double now) { fh.on_timer(now); }};

  uplink_deliver = [&](std::vector<std::uint8_t> bytes) {
    if (params.recovery_enabled) {
      fh.deliver(sim.now_us(), bytes);
      fh_pump.arm();
      return;
    }
    // Raw mode: whatever parses goes straight to the switch, in arrival
    // order, corrupted or not.
    proto::MarketDataView view;
    std::vector<std::uint32_t> offsets;
    if (!proto::scan_market_data_packet(bytes, view, offsets)) return;
    switch_process(view.mold.sequence, bytes);
  };

  // --- Publish the feed: batch messages into frames; each frame takes
  // the uplink when it leaves, at the feed timestamp of its last message,
  // so a retransmission queues only behind the frames already sent.
  std::vector<proto::ItchAddOrder> batch;
  batch.reserve(per_frame);
  double t_last = 0;
  for (std::size_t i = 0; i < feed.messages.size(); ++i) {
    batch.push_back(feed.messages[i].msg);
    if (batch.size() < per_frame && i + 1 != feed.messages.size()) continue;
    std::vector<std::uint8_t> frame = pub.publish_batch(batch);
    batch.clear();
    result.data_bytes += frame.size();
    t_last = static_cast<double>(feed.messages[i].t_us);
    sim.at(t_last, [&, frame = std::move(frame)] { send_up(frame); });
  }

  // --- Heartbeats after the feed ends: the uplink one advertises the
  // publisher horizon, the per-port ones the sequencer horizon, so the
  // reassemblers can detect loss of the stream's tail. Heartbeats travel
  // the same faulted channels; a lost one is covered by the next.
  const auto schedule_port_heartbeats = [&](double t0) {
    for (std::size_t j = 1; j <= kHeartbeats; ++j) {
      const double t_hb = t0 + static_cast<double>(j) * kHeartbeatUs;
      for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
        sim.at(t_hb, [&, p] {
          const auto f = sequencer.heartbeat(p);
          if (!f.empty()) send_down(p, f);
        });
      }
    }
  };
  if (params.recovery_enabled) {
    for (std::size_t j = 1; j <= kHeartbeats; ++j) {
      const double t_hb = t_last + static_cast<double>(j) * kHeartbeatUs;
      sim.at(t_hb, [&] { send_up(pub.heartbeat()); });
    }
    schedule_port_heartbeats(t_last);
  }

  sim.run();

  // A trailing partial publisher group (feed size not divisible by the
  // batch size) is held by the FeedHandler until end of session; release
  // it now and cover its egress with one more heartbeat window.
  if (params.recovery_enabled && fh.flush_residual()) {
    schedule_port_heartbeats(sim.now_us());
    sim.run();
  }

  // --- Collect.
  for (const auto& cpu : cpus) result.host_drops += cpu.dropped();
  result.uplink_recovery = fh.stats();
  result.checksum_rejects += fh.checksum_rejects();
  for (const double s : fh.stats().gap_block_us.samples())
    result.recovery_latency_us.add(s);
  for (const auto& sub : subs) {
    accumulate(result.subscriber_recovery, sub->stats());
    result.checksum_rejects += sub->checksum_rejects();
    for (const double s : sub->stats().gap_block_us.samples())
      result.recovery_latency_us.add(s);
  }
  accumulate(result.channel, up_faults.stats());
  accumulate(result.channel, up_req_faults.stats());
  for (const auto& lf : down_faults) accumulate(result.channel, lf.stats());
  for (const auto& lf : down_req_faults)
    accumulate(result.channel, lf.stats());
  return result;
}

}  // namespace camus::netsim
