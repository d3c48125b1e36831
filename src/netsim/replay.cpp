#include "netsim/replay.hpp"

#include <algorithm>
#include <chrono>

namespace camus::netsim {

namespace {

using Clock = std::chrono::steady_clock;

inline std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p,
                           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void fold_output(ReplayStats& st,
                 const std::vector<switchsim::Switch::TxPacket>& out) {
  for (const auto& tx : out) {
    ++st.tx_packets;
    st.tx_bytes += tx.frame.size();
    const std::uint8_t port_bytes[2] = {
        static_cast<std::uint8_t>(tx.port >> 8),
        static_cast<std::uint8_t>(tx.port & 0xff)};
    st.output_digest = fnv1a(st.output_digest, port_bytes, 2);
    st.output_digest = fnv1a(st.output_digest, tx.frame.data(),
                             tx.frame.size());
  }
}

}  // namespace

LatencySummary per_message_latency(const ReplayStats& st) {
  LatencySummary s;
  if (st.call_ns.empty() || st.messages == 0) return s;
  // Normalize each call to per-message cost, then take weighted order
  // statistics: a call carrying w messages contributes w observations of
  // its normalized latency.
  struct Obs {
    double ns;
    std::uint64_t w;
  };
  std::vector<Obs> obs;
  obs.reserve(st.call_ns.size());
  for (std::size_t i = 0; i < st.call_ns.size(); ++i) {
    const std::uint32_t w = i < st.call_msgs.size() ? st.call_msgs[i] : 1;
    if (w == 0) continue;  // unparseable-only call: no messages to charge
    obs.push_back({static_cast<double>(st.call_ns[i]) / w, w});
  }
  if (obs.empty()) return s;
  std::sort(obs.begin(), obs.end(),
            [](const Obs& a, const Obs& b) { return a.ns < b.ns; });
  std::uint64_t total = 0;
  for (const Obs& o : obs) total += o.w;
  auto weighted_q = [&](double q) {
    const auto target = static_cast<std::uint64_t>(q * (total - 1));
    std::uint64_t cum = 0;
    for (const Obs& o : obs) {
      cum += o.w;
      if (cum > target) return o.ns;
    }
    return obs.back().ns;
  };
  s.p50_ns = weighted_q(0.50);
  s.p90_ns = weighted_q(0.90);
  s.p99_ns = weighted_q(0.99);
  s.max_ns = obs.back().ns;
  return s;
}

ReplayStats replay_batched(switchsim::Switch& sw,
                           std::span<const workload::PackedFrame> frames,
                           std::size_t batch_size) {
  ReplayStats st;
  st.output_digest = 0xcbf29ce484222325ULL;
  st.frames = frames.size();
  const std::size_t bs = std::max<std::size_t>(batch_size, 1);
  st.call_ns.reserve(frames.size() / bs + 1);
  st.call_msgs.reserve(frames.size() / bs + 1);
  std::vector<switchsim::Switch::Frame> batch;
  batch.reserve(bs);
  for (std::size_t i = 0; i < frames.size(); i += bs) {
    const std::size_t end = std::min(i + bs, frames.size());
    batch.clear();
    std::uint32_t msgs = 0;
    for (std::size_t j = i; j < end; ++j) {
      batch.push_back({frames[j].bytes, frames[j].t_us});
      msgs += frames[j].n_msgs;
    }
    const auto t0 = Clock::now();
    auto out = sw.process_batch(batch);
    const auto t1 = Clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    st.wall_ns += ns;
    st.call_ns.push_back(ns);
    st.call_msgs.push_back(msgs);
    st.messages += msgs;
    fold_output(st, out);
  }
  return st;
}

}  // namespace camus::netsim
