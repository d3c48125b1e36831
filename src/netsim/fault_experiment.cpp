#include "netsim/fault_experiment.hpp"

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

enum class FrameKind { kData, kRetransmit, kHeartbeat };

}  // namespace

FaultExperimentResult run_fault_experiment(const FaultExperimentParams& params,
                                           switchsim::Switch& sw,
                                           const workload::Feed& feed) {
  FaultExperimentResult result;
  result.feed_messages = feed.messages.size();

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

  Link up(params.link_gbps, params.propagation_us);
  Link up_rev(params.link_gbps, params.propagation_us);
  std::deque<Link> down, down_rev;
  for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
    down.emplace_back(params.link_gbps, params.propagation_us);
    down_rev.emplace_back(params.link_gbps, params.propagation_us);
    down_faults.push_back(channel_faults(2ULL * p));
    down_req_faults.push_back(channel_faults(2ULL * p + 1));
    result.delivered[p] = 0;
    result.digest[p] = kFnvBasis;
  }

  pubsub::Publisher pub("CAMUS00001", params.retransmit_capacity);
  pubsub::FeedSequencer sequencer(params.retransmit_capacity);

  const auto fold_message = [&](std::uint16_t port,
                                const proto::ItchAddOrder& msg) {
    result.digest[port] = fnv_fold(result.digest[port],
                                   proto::encode_itch_message(msg));
    ++result.delivered[port];
  };

  // --- Downlink: switch egress -> subscriber, with per-port faults.
  std::vector<std::unique_ptr<pubsub::RecoveringSubscriber>> subs;
  std::deque<TimerPump> sub_pumps;

  std::function<void(std::uint16_t, std::vector<std::uint8_t>, FrameKind)>
      send_down = [&](std::uint16_t port, std::vector<std::uint8_t> frame,
                      FrameKind kind) {
        if (port == 0 || port > params.n_ports) return;
        if (kind == FrameKind::kRetransmit) {
          ++result.retransmit_frames;
          result.retransmit_bytes += frame.size();
        } else if (kind == FrameKind::kHeartbeat) {
          ++result.heartbeat_frames;
          result.heartbeat_bytes += frame.size();
        } else {
          ++result.data_frames;
          result.data_bytes += frame.size();
        }
        const std::size_t i = port - 1u;
        const double t_nic =
            down[i].transmit(sim.now_us() + params.switch_pipeline_us,
                             frame.size());
        for (auto& a : down_faults[i].offer(t_nic, frame)) {
          sim.at(a.t_us, [&, port, bytes = std::move(a.bytes)] {
            const std::size_t k = port - 1u;
            if (params.recovery_enabled) {
              subs[k]->deliver(sim.now_us(), bytes);
              sub_pumps[k].arm();
              return;
            }
            // Raw mode: count whatever arrives, in arrival order.
            const auto pkt = proto::decode_market_data_packet(bytes);
            if (!pkt) {
              ++result.malformed;
              return;
            }
            for (const auto& m : pkt->itch.add_orders) fold_message(port, m);
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
      // seal() rewrites the frame, so copy it out of the egress buffer.
      std::vector<std::uint8_t> frame(tx.frame.begin(), tx.frame.end());
      if (params.recovery_enabled) sequencer.seal(tx.port, frame);
      send_down(tx.port, std::move(frame), FrameKind::kData);
    }
  };

  // Subscriber retransmission requests travel the reverse downlink to the
  // sequencer; replies re-enter the (faulted) forward downlink.
  for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
    subs.push_back(std::make_unique<pubsub::RecoveringSubscriber>(
        p, params.recovery,
        [&, p](std::uint64_t, const proto::ItchAddOrder& msg) {
          fold_message(p, msg);
        },
        [&, p](const proto::MoldUdp64Request& req) {
          auto rf = proto::encode_retransmit_request(
              reverse_eth(), 0x0a0000ffu + p, 0x0a000002u, req);
          ++result.request_frames;
          result.request_bytes += rf.size();
          const std::size_t i = p - 1u;
          const double t = down_rev[i].transmit(sim.now_us(), rf.size());
          for (auto& a : down_req_faults[i].offer(t, rf)) {
            sim.at(a.t_us, [&, p, bytes = std::move(a.bytes)] {
              if (!proto::verify_udp_checksum(bytes)) return;
              const auto r = proto::decode_retransmit_request(bytes);
              if (!r) return;
              for (auto& f :
                   sequencer.retransmit(p, r->sequence, r->count))
                send_down(p, std::move(f), FrameKind::kRetransmit);
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

  pubsub::FeedHandler fh(
      params.recovery,
      [&](std::uint64_t first_seq, std::vector<std::uint8_t> frame) {
        switch_process(first_seq, frame);
      },
      [&](const proto::MoldUdp64Request& req) {
        auto rf = proto::encode_retransmit_request(reverse_eth(), 0x0a000002u,
                                                   0x0a000001u, req);
        ++result.request_frames;
        result.request_bytes += rf.size();
        const double t = up_rev.transmit(sim.now_us(), rf.size());
        for (auto& a : up_req_faults.offer(t, rf)) {
          sim.at(a.t_us, [&, bytes = std::move(a.bytes)] {
            if (!proto::verify_udp_checksum(bytes)) return;
            const auto r = proto::decode_retransmit_request(bytes);
            if (!r) return;
            for (auto& f : pub.retransmit(*r)) {
              ++result.retransmit_frames;
              result.retransmit_bytes += f.size();
              const double t2 = up.transmit(sim.now_us(), f.size());
              for (auto& a2 : up_faults.offer(t2, f)) {
                sim.at(a2.t_us, [&, bytes2 = std::move(a2.bytes)]() mutable {
                  uplink_deliver(std::move(bytes2));
                });
              }
            }
          });
        }
      },
      std::max<std::size_t>(params.msgs_per_frame, 1));
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
    if (!proto::scan_market_data_packet(bytes, view, offsets)) {
      ++result.malformed;
      return;
    }
    switch_process(view.mold.sequence, bytes);
  };

  // --- Publish the feed: batch messages into frames, stamp each frame's
  // departure with the feed timestamp of its last message.
  std::vector<proto::ItchAddOrder> batch;
  const std::size_t per_frame = std::max<std::size_t>(params.msgs_per_frame, 1);
  batch.reserve(per_frame);
  double t_last = 0;
  for (std::size_t i = 0; i < feed.messages.size(); ++i) {
    batch.push_back(feed.messages[i].msg);
    if (batch.size() < per_frame && i + 1 != feed.messages.size()) continue;
    std::vector<std::uint8_t> frame = pub.publish_batch(batch);
    batch.clear();
    ++result.frames_published;
    ++result.data_frames;
    result.data_bytes += frame.size();
    const double t_pub = static_cast<double>(feed.messages[i].t_us);
    const double t = up.transmit(t_pub, frame.size());
    t_last = std::max(t_last, t);
    for (auto& a : up_faults.offer(t, frame)) {
      sim.at(a.t_us, [&, bytes = std::move(a.bytes)]() mutable {
        uplink_deliver(std::move(bytes));
      });
    }
  }

  // --- Heartbeats after the feed ends: the uplink one advertises the
  // publisher horizon, the per-port ones the sequencer horizon, so the
  // reassemblers can detect loss of the stream's tail. Heartbeats travel
  // the same faulted channels; a lost one is covered by the next.
  const auto schedule_port_heartbeats = [&](double t0) {
    for (std::size_t j = 1; j <= params.heartbeats; ++j) {
      const double t_hb = t0 + static_cast<double>(j) * params.heartbeat_us;
      for (std::uint16_t p = 1; p <= params.n_ports; ++p) {
        sim.at(t_hb, [&, p] {
          auto f = sequencer.heartbeat(p);
          if (!f.empty()) send_down(p, std::move(f), FrameKind::kHeartbeat);
        });
      }
    }
  };
  if (params.recovery_enabled) {
    for (std::size_t j = 1; j <= params.heartbeats; ++j) {
      const double t_hb =
          t_last + static_cast<double>(j) * params.heartbeat_us;
      sim.at(t_hb, [&] {
        auto f = pub.heartbeat();
        ++result.heartbeat_frames;
        result.heartbeat_bytes += f.size();
        const double t = up.transmit(sim.now_us(), f.size());
        for (auto& a : up_faults.offer(t, f)) {
          sim.at(a.t_us, [&, bytes = std::move(a.bytes)]() mutable {
            uplink_deliver(std::move(bytes));
          });
        }
      });
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
  result.uplink_recovery = fh.stats();
  result.checksum_rejects += fh.checksum_rejects();
  result.malformed += fh.malformed();
  for (const double s : fh.stats().gap_block_us.samples())
    result.recovery_latency_us.add(s);
  for (const auto& sub : subs) {
    accumulate(result.subscriber_recovery, sub->stats());
    result.checksum_rejects += sub->checksum_rejects();
    result.malformed += sub->malformed();
    for (const double s : sub->stats().gap_block_us.samples())
      result.recovery_latency_us.add(s);
  }
  accumulate(result.channel, up_faults.stats());
  accumulate(result.channel, up_req_faults.stats());
  for (const auto& lf : down_faults) accumulate(result.channel, lf.stats());
  for (const auto& lf : down_req_faults)
    accumulate(result.channel, lf.stats());
  result.duration_us = sim.now_us();
  return result;
}

}  // namespace camus::netsim
