#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "bench.hpp"
#include "lang/eval.hpp"
#include "proto/packet.hpp"

namespace perfbench {

namespace {

// Seed derivation: one --seed fans out to independent generator streams.
constexpr std::uint64_t kSubsSeed = 20260806;
constexpr std::uint64_t kChurnSalt = 0xc4u;
constexpr std::uint64_t kFeedSalt = 0xfeedULL;

WorkloadSpec selective() {
  WorkloadSpec w;
  w.name = "selective";
  w.n_subs = 1000;
  w.n_symbols = 1000;
  w.zipf_s = 0.5;
  // Prices sit below most subscription thresholds (0..1000), so the
  // switch filters most of the feed.
  w.price_min = 1;
  w.price_max = 300;
  w.feed_msgs = 1u << 15;
  w.updates_per_s = 7.5;
  w.batches_per_update = 4;
  return w;
}

WorkloadSpec churn() {
  // The BENCH_churn distribution: 2,000 base subscriptions over 100
  // symbols and 200 hosts, p_subscribe 0.5.
  WorkloadSpec w;
  w.name = "churn";
  w.n_subs = 2000;
  w.n_symbols = 100;
  w.zipf_s = 0.5;
  // The filtering regime, so classification and the memo matter.
  w.price_min = 1;
  w.price_max = 300;
  w.feed_msgs = 1u << 15;
  w.quiet = false;
  w.updates_per_s = 11;
  // Enough batches per update that the data-plane figures sample seconds
  // of host time, while the post-swap batch stays above 1% of calls (p99).
  w.batches_per_update = 48;
  return w;
}

}  // namespace

bool find_workload(std::string_view name, bool tiny, WorkloadSpec& out) {
  if (name == "selective") out = selective();
  else if (name == "churn") out = churn();
  else return false;
  if (tiny) {
    out.n_subs = std::min<std::size_t>(out.n_subs, 300);
    out.n_symbols = std::min<std::size_t>(out.n_symbols, 60);
    out.feed_msgs = 1u << 12;
    out.batches_per_update = 2;
  }
  return true;
}

namespace {

workload::ChurnParams churn_params(const WorkloadSpec& w, std::uint64_t seed) {
  workload::ChurnParams cp;
  cp.seed = seed ^ kChurnSalt;
  cp.p_subscribe = 0.5;
  // The subscription population (and so every host's price threshold) is
  // part of the workload's definition; --seed draws the feed and the op
  // stream. A seeded population would make delivery fan-out, and with it
  // every data-plane figure, swing by the binomial spread of the hosts'
  // thresholds.
  cp.subs.seed = kSubsSeed;
  cp.subs.n_subscriptions = w.n_subs;
  cp.subs.n_symbols = w.n_symbols;
  cp.subs.n_hosts = w.n_hosts;
  return cp;
}

workload::FeedParams feed_params(const WorkloadSpec& w,
                                 const std::vector<std::string>& symbols,
                                 std::uint64_t seed) {
  workload::FeedParams fp;
  fp.seed = seed;
  fp.mode = workload::FeedMode::kNasdaqReplay;
  fp.n_messages = w.feed_msgs;
  fp.symbols = symbols;
  fp.watched_fraction = 0.005;
  fp.rate_msgs_per_sec = 150000;
  fp.zipf_s = w.zipf_s;
  fp.price_min = w.price_min;
  fp.price_max = w.price_max;
  return fp;
}

bool same_message(const proto::ItchAddOrder& a, const proto::ItchAddOrder& b) {
  return a.stock_locate == b.stock_locate && a.tracking == b.tracking &&
         a.timestamp_ns == b.timestamp_ns && a.order_ref == b.order_ref &&
         a.side == b.side && a.shares == b.shares && a.stock == b.stock &&
         a.price == b.price;
}

// The generator's round-robin population subscribes all hosts to the first
// n_subs / n_hosts symbols only, and each symbol's price walk stays near its
// random start, so one feed's fan-out hangs on where those few symbols
// happen to start. The feed is therefore 256 independently seeded segments,
// renumbered into one message sequence (order_ref = 1-based feed index).
workload::Feed make_feed(const WorkloadSpec& w,
                         const std::vector<std::string>& symbols,
                         std::uint64_t seed) {
  constexpr std::size_t kSegments = 256;
  workload::Feed feed;
  feed.messages.reserve(w.feed_msgs);
  std::uint64_t t_offset = 0;
  for (std::size_t k = 0; k < kSegments; ++k) {
    workload::FeedParams fp =
        feed_params(w, symbols, (seed ^ kFeedSalt) + k * 0x9e3779b97f4a7c15ULL);
    fp.n_messages = w.feed_msgs / kSegments;
    workload::Feed part = workload::generate_feed(fp);
    for (auto& m : part.messages) {
      m.t_us += t_offset;
      m.msg.timestamp_ns = m.t_us * 1000;
      m.msg.order_ref = feed.messages.size() + 1;
      feed.messages.push_back(std::move(m));
    }
    feed.watched_count += part.watched_count;
    if (!feed.messages.empty()) t_offset = feed.messages.back().t_us + 1;
  }
  return feed;
}

}  // namespace

Inputs::Inputs(const spec::Schema& schema, const WorkloadSpec& w,
               std::uint64_t seed)
    : churn(schema, churn_params(w, seed)),
      feed(make_feed(w, churn.symbols(), seed)),
      frames(workload::pack_feed_frames(feed, kMsgsPerFrame)) {
  std::size_t first = 0;
  for (std::size_t f = 0; f < frames.size(); f += kBatchFrames) {
    const std::size_t end = std::min(frames.size(), f + kBatchFrames);
    auto& batch = batches.emplace_back();
    std::uint32_t msgs = 0;
    for (std::size_t i = f; i < end; ++i) {
      batch.push_back({frames[i].bytes, frames[i].t_us});
      msgs += frames[i].n_msgs;
    }
    batch_first.push_back(first);
    batch_msgs.push_back(msgs);
    first += msgs;
  }
}

Checker::Checker(const spec::Schema& schema, const workload::Feed& feed,
                 bool perturb)
    : extractor_(schema), feed_(feed), perturb_(perturb) {}

std::size_t Checker::check(
    const Inputs& in, std::size_t b,
    const std::vector<switchsim::Switch::TxPacket>& egress,
    const std::vector<lang::BoundRule>& live) {
  const std::size_t first = in.batch_first[b];
  const std::size_t n = in.batch_msgs[b];
  std::size_t bad = 0;

  // Decode every egress packet into (message, port) pairs. Feed order_refs
  // are the 1-based feed index, so each names its ingress message.
  std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> delivered;
  for (const auto& tx : egress) {
    const auto pkt = proto::decode_market_data_packet(tx.frame);
    if (!pkt || pkt->itch.add_orders.empty()) {
      ++bad;
      continue;
    }
    for (const auto& m : pkt->itch.add_orders) {
      if (m.order_ref <= first || m.order_ref > first + n ||
          !same_message(m, feed_.messages[m.order_ref - 1].msg)) {
        ++bad;  // not one of this batch's ingress messages, or altered
        continue;
      }
      delivered[m.order_ref].push_back(tx.port);
    }
  }

  lang::Env env;
  for (std::size_t m = first; m < first + n; ++m) {
    env.fields = extractor_.extract(feed_.messages[m].msg);
    std::vector<std::uint16_t> want = lang::brute_eval_rules(live, env).ports;
    if (perturb_ && checked_ == 0) {
      if (want.empty()) want.push_back(1);
      else want.clear();
    }
    std::vector<std::uint16_t> got;
    if (auto it = delivered.find(m + 1); it != delivered.end()) got = it->second;
    std::sort(got.begin(), got.end());
    if (got != want) ++bad;
    ++checked_;
  }
  return bad;
}

std::uint64_t egress_digest(
    const std::vector<switchsim::Switch::TxPacket>& egress,
    std::uint64_t h) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  for (const auto& tx : egress) {
    h = (h ^ tx.port) * kMul;
    const std::uint8_t* p = tx.frame.data();
    std::size_t len = tx.frame.size();
    h = (h ^ len) * kMul;
    for (; len >= 8; p += 8, len -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * kMul;
      h ^= h >> 29;
    }
    for (; len > 0; ++p, --len) h = (h ^ *p) * kMul;
  }
  return h;
}

}  // namespace perfbench
