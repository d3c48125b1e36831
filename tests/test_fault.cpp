// Fault-injection framework and MoldUDP64 gap recovery (ISSUE 4):
//  - fault::Plan / LinkFaults determinism and rate accounting
//  - fault::Injector switch-state experiments replay identically
//  - UDP checksum seal/verify catches bit-level corruption
//  - RetransmitStore / Reassembler unit behaviour (gaps, duplicates,
//    heartbeats, bounded retries with give-up)
//  - the end-to-end differential: a seeded fault plan with loss + reorder
//    + duplication delivers every subscribed message exactly once and in
//    order with recovery enabled, and demonstrably loses messages with
//    recovery disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "compiler/compile.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "netsim/experiment.hpp"
#include "proto/packet.hpp"
#include "pubsub/endpoints.hpp"
#include "pubsub/recovery.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/switch.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;

proto::ItchAddOrder order(std::string stock, std::uint64_t ref = 1,
                          std::uint32_t price = 100) {
  proto::ItchAddOrder m;
  m.order_ref = ref;
  m.stock = std::move(stock);
  m.price = price;
  m.shares = 10;
  return m;
}

// ---------------------------------------------------------------- Plan

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedAndIndex) {
  fault::FaultSpec spec;
  spec.drop = 0.1;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  spec.corrupt = 0.02;
  const fault::Plan a(spec, 42), b(spec, 42);

  // Query b out of order and twice — must agree with a's in-order walk.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto da = a.decision(i);
    const auto db = b.decision(1999 - (1999 - i));  // same index
    EXPECT_EQ(da.drop, db.drop) << i;
    EXPECT_EQ(da.duplicate, db.duplicate) << i;
    EXPECT_EQ(da.corrupt_bits, db.corrupt_bits) << i;
    EXPECT_DOUBLE_EQ(da.delay_us, db.delay_us) << i;
  }
  const auto first = a.decision(7);
  const auto again = a.decision(7);
  EXPECT_EQ(first.drop, again.drop);
  EXPECT_EQ(first.corrupt_bits, again.corrupt_bits);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  fault::FaultSpec spec;
  spec.drop = 0.5;
  const fault::Plan a(spec, 1), b(spec, 2);
  int differences = 0;
  for (std::uint64_t i = 0; i < 256; ++i)
    differences += a.decision(i).drop != b.decision(i).drop;
  EXPECT_GT(differences, 0);
}

TEST(FaultPlan, RatesApproximatelyHonored) {
  fault::FaultSpec spec;
  spec.drop = 0.1;
  spec.duplicate = 0.05;
  const fault::Plan plan(spec, 99);
  int drops = 0, dups = 0;
  constexpr int kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto d = plan.decision(i);
    drops += d.drop;
    dups += d.duplicate;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(dups) / kN, 0.05, 0.01);
}

TEST(FaultPlan, CorruptIsDeterministicAndBounded) {
  fault::FaultSpec spec;
  spec.corrupt = 1.0;
  spec.corrupt_max_bits = 3;
  const fault::Plan plan(spec, 5);

  std::vector<std::uint8_t> base(64, 0xAA);
  auto f1 = base, f2 = base;
  // Find a corrupting index (corrupt=1.0 means every non-dropped frame).
  const auto d = plan.decision(0);
  ASSERT_GE(d.corrupt_bits, 1u);
  ASSERT_LE(d.corrupt_bits, 3u);
  plan.corrupt(0, f1);
  plan.corrupt(0, f2);
  EXPECT_EQ(f1, f2);       // same flips both times
  EXPECT_NE(f1, base);     // and they really flipped something

  std::vector<std::uint8_t> empty;
  plan.corrupt(0, empty);  // must not crash on empty frames
}

// ---------------------------------------------------------- LinkFaults

TEST(LinkFaults, StatsAccountForEveryOutcome) {
  fault::FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.reorder = 0.1;
  spec.reorder_delay_us = 100;
  fault::LinkFaults link(fault::Plan(spec, 7));

  const std::vector<std::uint8_t> frame{1, 2, 3, 4};
  std::uint64_t arrivals = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    const auto out = link.offer(i * 10.0, frame);
    arrivals += out.size();
    for (const auto& a : out) {
      EXPECT_GE(a.t_us, i * 10.0);
      EXPECT_EQ(a.bytes.size(), frame.size());
    }
  }
  const auto& st = link.stats();
  EXPECT_EQ(st.offered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(st.delivered, arrivals);
  EXPECT_EQ(st.delivered, st.offered - st.dropped + st.duplicated);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_GT(st.duplicated, 0u);
  EXPECT_GT(st.reordered, 0u);
  EXPECT_EQ(link.frames_seen(), static_cast<std::uint64_t>(kN));
}

TEST(LinkFaults, CleanSpecIsTransparent) {
  fault::LinkFaults link{fault::Plan(fault::FaultSpec{}, 3)};
  const std::vector<std::uint8_t> frame{9, 8, 7};
  for (int i = 0; i < 100; ++i) {
    const auto out = link.offer(i * 1.0, frame);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].t_us, i * 1.0);
    EXPECT_EQ(out[0].bytes, frame);
  }
  EXPECT_EQ(link.stats().dropped, 0u);
  EXPECT_EQ(link.stats().corrupted, 0u);
}

TEST(LinkFaults, SameSeedSameArrivalSchedule) {
  fault::FaultSpec spec;
  spec.drop = 0.3;
  spec.duplicate = 0.2;
  spec.reorder = 0.2;
  fault::LinkFaults l1{fault::Plan(spec, 11)}, l2{fault::Plan(spec, 11)};
  const std::vector<std::uint8_t> frame(32, 0x5C);
  for (int i = 0; i < 1000; ++i) {
    const auto a = l1.offer(i * 2.0, frame);
    const auto b = l2.offer(i * 2.0, frame);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_DOUBLE_EQ(a[k].t_us, b[k].t_us);
      EXPECT_EQ(a[k].bytes, b[k].bytes);
    }
  }
}

// ------------------------------------------------------------ Injector

switchsim::Switch make_switch() {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 3;
  sp.n_subscriptions = 40;
  sp.n_symbols = 32;
  sp.n_hosts = 4;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  auto pipeline = compiler::compile_rules(schema, subs.rules).take().pipeline;
  return switchsim::Switch(schema, std::move(pipeline));
}

TEST(Injector, CampaignsReplayIdentically) {
  auto sw1 = make_switch();
  auto sw2 = make_switch();
  fault::Injector inj1(1234), inj2(1234);
  for (int i = 0; i < 20; ++i) {
    const auto a = inj1.flip_entry_bit(sw1);
    const auto b = inj2.flip_entry_bit(sw2);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->table, b->table);
      EXPECT_EQ(a->entry, b->entry);
      EXPECT_EQ(a->bit, b->bit);
    }
  }
  EXPECT_EQ(inj1.injections(), inj2.injections());
  // The two switches saw identical mutations: their pipelines must still
  // classify identically.
  const auto schema = spec::make_itch_schema();
  switchsim::ItchFieldExtractor ex(schema);
  workload::FeedParams fp;
  fp.seed = 7;
  fp.n_messages = 500;
  auto feed = workload::generate_feed(fp);
  for (const auto& fm : feed.messages) {
    const auto fields = ex.extract(fm.msg);
    EXPECT_EQ(sw1.classify(fields, fm.t_us).to_string(),
              sw2.classify(fields, fm.t_us).to_string());
  }
}

TEST(Injector, RegisterBitFlipMutatesState) {
  auto sw = make_switch();
  auto& regs = sw.registers();
  ASSERT_GT(regs.size(), 0u);
  // Populate every cell: a flipped accumulator bit is only visible once a
  // window has at least one update (empty windows read 0 by design).
  const auto schema = spec::make_itch_schema();
  const std::vector<std::uint64_t> fields(schema.fields().size(), 500);
  for (std::uint32_t v = 0; v < regs.size(); ++v)
    regs.apply_update(v, fields, 0);

  const auto before = regs.snapshot(0);
  const std::uint64_t version_before = regs.version();
  fault::Injector inj(77);
  bool changed = false;
  // The itch schema's my_counter reads `count`, which the SRAM-soft-error
  // model does not touch; flip until a flip lands on a visible cell.
  for (int i = 0; i < 16 && !changed; ++i) {
    const auto inj_result = inj.flip_register_bit(sw);
    ASSERT_TRUE(inj_result.has_value());
    changed = regs.snapshot(0) != before;
  }
  EXPECT_TRUE(changed);
  EXPECT_GT(regs.version(), version_before);  // caches invalidated
}

TEST(Injector, EvictEntryShrinksPipeline) {
  auto sw = make_switch();
  auto entries_of = [](const table::Pipeline& p) {
    std::size_t n = 0;
    for (const auto& t : p.tables) n += t.entries().size();
    return n;
  };
  const std::size_t before = entries_of(sw.pipeline());
  ASSERT_GT(before, 0u);
  fault::Injector inj(9);
  ASSERT_TRUE(inj.evict_entry(sw).has_value());
  EXPECT_EQ(entries_of(sw.pipeline()), before - 1);
}

// ------------------------------------------------------- UDP checksum

TEST(UdpChecksum, SealVerifyAndCorruptionDetection) {
  pubsub::Publisher pub;
  auto frame = pub.publish_batch({order("GOOGL", 1), order("MSFT", 2)});
  EXPECT_TRUE(proto::verify_udp_checksum(frame));

  // Any single-bit flip in the UDP segment must be caught.
  for (const std::size_t byte :
       std::vector<std::size_t>{44, 50, 60, frame.size() - 1}) {
    auto bad = frame;
    bad[byte] ^= 0x01;
    EXPECT_FALSE(proto::verify_udp_checksum(bad)) << "byte " << byte;
  }

  // Resealing a modified frame makes it verify again.
  auto resealed = frame;
  resealed[frame.size() - 1] ^= 0xFF;
  ASSERT_TRUE(proto::seal_udp_checksum(resealed));
  EXPECT_TRUE(proto::verify_udp_checksum(resealed));

  // Zero checksum = "not computed": verifies true per RFC 768.
  auto unsealed = frame;
  // UDP checksum lives at ip(14)+ihl(20)+6.
  unsealed[14 + 20 + 6] = 0;
  unsealed[14 + 20 + 7] = 0;
  EXPECT_TRUE(proto::verify_udp_checksum(unsealed));

  // Malformed frames verify false (treated as loss).
  std::vector<std::uint8_t> junk(10, 0xFF);
  EXPECT_FALSE(proto::verify_udp_checksum(junk));
}

TEST(UdpChecksum, RewriteMoldSequenceThenResealRoundTrips) {
  pubsub::Publisher pub;
  auto frame = pub.publish_batch({order("AAPL", 1)});
  ASSERT_TRUE(proto::rewrite_mold_sequence(frame, 777));
  // Not resealed yet: stale checksum must fail.
  EXPECT_FALSE(proto::verify_udp_checksum(frame));
  ASSERT_TRUE(proto::seal_udp_checksum(frame));
  EXPECT_TRUE(proto::verify_udp_checksum(frame));
  const auto pkt = proto::decode_market_data_packet(frame);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->itch.mold.sequence, 777u);
}

// ------------------------------------------------------ RetransmitStore

TEST(RetransmitStore, FetchClampsToRetention) {
  pubsub::RetransmitStore store(4);  // tiny capacity to force eviction
  for (std::uint8_t i = 1; i <= 6; ++i)
    store.append(std::vector<std::uint8_t>{i, i, i});
  // Sequences 1..6 appended; capacity 4 keeps 3..6.
  EXPECT_EQ(store.first(), 3u);
  EXPECT_EQ(store.end(), 7u);

  std::uint64_t first = 0;
  auto got = store.fetch(1, 3, &first);  // [1,4) clamps to [3,4)
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{3, 3, 3}));

  got = store.fetch(5, 10, &first);  // [5,15) clamps to [5,7)
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(first, 5u);

  got = store.fetch(1, 2, &first);  // fully evicted
  EXPECT_TRUE(got.empty());
}

// --------------------------------------------------------- Reassembler

struct ReasmHarness {
  pubsub::RecoveryParams params;
  std::vector<std::uint64_t> delivered;
  std::vector<std::pair<std::uint64_t, std::uint16_t>> requests;
  std::unique_ptr<pubsub::Reassembler> reasm;

  explicit ReasmHarness(pubsub::RecoveryParams p) : params(p) {
    reasm = std::make_unique<pubsub::Reassembler>(
        params,
        [this](std::uint64_t seq, const proto::ItchAddOrder&) {
          delivered.push_back(seq);
        },
        [this](std::uint64_t seq, std::uint16_t count) {
          requests.emplace_back(seq, count);
        });
  }

  void offer(double now, std::uint64_t first_seq, std::size_t n) {
    std::vector<proto::ItchAddOrder> msgs;
    for (std::size_t i = 0; i < n; ++i)
      msgs.push_back(order("GOOGL", first_seq + i));
    reasm->offer(now, first_seq, msgs);
  }
};

TEST(Reassembler, InOrderFramesDeliverImmediately) {
  ReasmHarness h({});
  h.offer(0, 1, 4);
  h.offer(1, 5, 4);
  EXPECT_EQ(h.delivered, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(h.requests.empty());
  EXPECT_EQ(h.reasm->expected(), 9u);
  EXPECT_EQ(h.reasm->stats().gaps_detected, 0u);
}

TEST(Reassembler, GapBuffersThenDrainsInOrder) {
  ReasmHarness h({});
  h.offer(0, 1, 2);   // 1,2 delivered
  h.offer(1, 5, 2);   // 5,6 buffered, gap 3..4
  EXPECT_EQ(h.delivered.size(), 2u);
  h.offer(2, 3, 2);   // hole filled -> 3,4,5,6 drain
  EXPECT_EQ(h.delivered, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(h.reasm->stats().gaps_detected, 1u);
}

TEST(Reassembler, DuplicatesAndStaleFramesDropped) {
  ReasmHarness h({});
  h.offer(0, 1, 4);
  h.offer(1, 1, 4);   // full duplicate
  h.offer(2, 3, 2);   // stale tail overlap
  EXPECT_EQ(h.delivered.size(), 4u);
  EXPECT_EQ(h.reasm->stats().duplicates_dropped, 6u);
}

TEST(Reassembler, TimerRequestsMissingRangeWithBackoffAndGiveUp) {
  pubsub::RecoveryParams p;
  p.gap_timeout_us = 10;
  p.retry_backoff_us = 100;
  p.backoff_factor = 2.0;
  p.max_retries = 2;
  ReasmHarness h(p);

  h.offer(0, 1, 2);  // 1,2
  h.offer(1, 5, 2);  // gap 3..4
  ASSERT_LT(h.reasm->next_deadline(), 12.0);

  // First fire: request the hole.
  h.reasm->on_timer(h.reasm->next_deadline());
  ASSERT_EQ(h.requests.size(), 1u);
  EXPECT_EQ(h.requests[0], (std::pair<std::uint64_t, std::uint16_t>{3, 2}));

  // Two retries with growing deadlines, then give-up skips the hole.
  const double d1 = h.reasm->next_deadline();
  h.reasm->on_timer(d1);
  EXPECT_EQ(h.requests.size(), 2u);
  const double d2 = h.reasm->next_deadline();
  EXPECT_GT(d2 - d1, 0.0);
  h.reasm->on_timer(d2);
  h.reasm->on_timer(h.reasm->next_deadline());

  // After give-up, delivery resumed past the hole.
  EXPECT_EQ(h.delivered, (std::vector<std::uint64_t>{1, 2, 5, 6}));
  EXPECT_EQ(h.reasm->stats().messages_lost, 2u);
  EXPECT_EQ(h.reasm->expected(), 7u);
  EXPECT_GT(h.reasm->stats().retries, 0u);
}

TEST(Reassembler, HeartbeatMakesTailLossDetectable) {
  pubsub::RecoveryParams p;
  p.gap_timeout_us = 10;
  ReasmHarness h(p);

  h.offer(0, 1, 4);
  EXPECT_EQ(h.reasm->next_deadline(),
            std::numeric_limits<double>::infinity());

  // Tail frames 5..8 lost; a count-0 heartbeat advertising seq 9 arms the
  // gap even though nothing is pending.
  h.reasm->offer(100, 9, {});
  ASSERT_LT(h.reasm->next_deadline(),
            std::numeric_limits<double>::infinity());
  h.reasm->on_timer(h.reasm->next_deadline());
  ASSERT_EQ(h.requests.size(), 1u);
  EXPECT_EQ(h.requests[0].first, 5u);
  EXPECT_EQ(h.requests[0].second, 4u);

  // Retransmission arrives: delivery completes, no further deadline.
  h.offer(200, 5, 4);
  EXPECT_EQ(h.delivered.size(), 8u);
  EXPECT_EQ(h.reasm->stats().messages_recovered, 4u);
}

// Regression: a corrupted sequence field that slips past the UDP checksum
// must not open an astronomical gap — the per-timer request walk over
// [expected, horizon) would otherwise never terminate (observed as an
// unbounded requested-set blowup in the 120K-message corruption sweep).
TEST(Reassembler, CorruptSequenceBeyondWindowIsRejected) {
  pubsub::RecoveryParams p;
  p.gap_timeout_us = 10;
  p.max_seq_jump = 100;
  ReasmHarness h(p);
  h.offer(0, 1, 2);  // delivered: 1, 2

  // A data frame claiming a sequence ~2^60 (one flipped high bit).
  h.offer(1, (1ULL << 60) + 3, 1);
  EXPECT_EQ(h.reasm->stats().seq_jump_rejects, 1u);
  // No gap armed: the insane sequence advanced nothing.
  EXPECT_EQ(h.reasm->next_deadline(),
            std::numeric_limits<double>::infinity());

  // A heartbeat with a corrupt (huge) advertised horizon is equally inert.
  h.reasm->offer(2, (1ULL << 59), {});
  EXPECT_EQ(h.reasm->stats().seq_jump_rejects, 2u);
  EXPECT_EQ(h.reasm->next_deadline(),
            std::numeric_limits<double>::infinity());

  // The stream continues unharmed, and a jump INSIDE the window still
  // behaves as a normal recoverable gap.
  h.offer(3, 3, 1);
  EXPECT_EQ(h.delivered, (std::vector<std::uint64_t>{1, 2, 3}));
  h.offer(4, 6, 1);  // gap {4, 5}, within max_seq_jump
  h.reasm->on_timer(h.reasm->next_deadline());
  ASSERT_EQ(h.requests.size(), 1u);
  EXPECT_EQ(h.requests[0], (std::pair<std::uint64_t, std::uint16_t>(4, 2)));

  // The window's edge: expected + max_seq_jump is inside, one more is out.
  const double never = std::numeric_limits<double>::infinity();
  ReasmHarness data(p);  // expected = 1
  data.offer(0, 1 + p.max_seq_jump + 1, 1);
  EXPECT_EQ(data.reasm->stats().seq_jump_rejects, 1u);
  EXPECT_EQ(data.reasm->next_deadline(), never);
  data.offer(1, 1 + p.max_seq_jump, 1);  // admitted: buffered behind a gap
  EXPECT_EQ(data.reasm->stats().seq_jump_rejects, 1u);
  EXPECT_NE(data.reasm->next_deadline(), never);

  ReasmHarness beat(p);  // expected = 1
  beat.reasm->offer(0, 1 + p.max_seq_jump + 1, {});
  EXPECT_EQ(beat.reasm->stats().seq_jump_rejects, 1u);
  EXPECT_EQ(beat.reasm->next_deadline(), never);
  beat.reasm->offer(1, 1 + p.max_seq_jump, {});  // moves the horizon
  EXPECT_EQ(beat.reasm->stats().seq_jump_rejects, 1u);
  EXPECT_NE(beat.reasm->next_deadline(), never);
}

TEST(Reassembler, RecoveryLatencyIsSampled) {
  pubsub::RecoveryParams p;
  p.gap_timeout_us = 10;
  ReasmHarness h(p);
  h.offer(0, 1, 2);
  h.offer(1, 4, 1);    // gap at 3, blocked since t=1
  h.offer(51, 3, 1);   // resolved at t=51
  ASSERT_EQ(h.reasm->stats().gap_block_us.count(), 1u);
  EXPECT_NEAR(h.reasm->stats().gap_block_us.max(), 50.0, 1e-9);
}

// ------------------------------------------- End-to-end differential

// The population and feed of the end-to-end differentials: 60 rules over
// 50 symbols on 4 ports, and 6,000 messages over a 61.3 ms span.
struct EndToEnd {
  spec::Schema schema = spec::make_itch_schema();
  table::Pipeline pipeline;
  workload::Feed feed;
  netsim::ExperimentParams params;
};

EndToEnd end_to_end() {
  EndToEnd e;
  workload::ItchSubsParams sp;
  sp.seed = 1;
  sp.n_subscriptions = 60;
  sp.n_symbols = 50;
  sp.n_hosts = 4;
  auto subs = workload::generate_itch_subscriptions(e.schema, sp);
  e.pipeline = compiler::compile_rules(e.schema, subs.rules).take().pipeline;

  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.n_messages = 6000;
  fp.symbols = subs.symbols;
  e.feed = workload::generate_feed(fp);

  e.params.seed = 4242;
  e.params.n_ports = 4;
  e.params.recovery.gap_timeout_us = 100;
  e.params.recovery.max_retries = 10;
  return e;
}

TEST(FaultExperiment, ExactlyOnceDeliveryUnderLossReorderDuplication) {
  const EndToEnd e = end_to_end();
  const auto& [schema, pipeline, feed, base] = e;

  // Ground truth: fault-free run.
  netsim::ExperimentParams clean = base;
  switchsim::Switch sw0(schema, pipeline);
  const auto truth = netsim::run_experiment(clean, sw0, feed);
  ASSERT_EQ(truth.feed_messages, feed.messages.size());
  std::uint64_t truth_total = 0;
  for (const auto& [port, n] : truth.delivered) truth_total += n;
  ASSERT_GT(truth_total, 0u);

  // ISSUE acceptance spec: <=10% loss + reorder + duplication.
  netsim::ExperimentParams faulty = base;
  faulty.link_faults.drop = 0.10;
  faulty.link_faults.duplicate = 0.05;
  faulty.link_faults.reorder = 0.05;

  switchsim::Switch sw1(schema, pipeline);
  const auto recovered = netsim::run_experiment(faulty, sw1, feed);
  EXPECT_GT(recovered.channel.dropped, 0u);
  EXPECT_GT(recovered.channel.duplicated, 0u);
  EXPECT_GT(recovered.channel.reordered, 0u);

  // Exactly-once, in-order: per-port counts AND digests bit-identical to
  // the fault-free run.
  EXPECT_EQ(recovered.delivered, truth.delivered);
  EXPECT_EQ(recovered.digest, truth.digest);
  EXPECT_GT(recovered.uplink_recovery.messages_recovered +
                recovered.subscriber_recovery.messages_recovered,
            0u);
  EXPECT_EQ(recovered.uplink_recovery.messages_lost, 0u);
  EXPECT_EQ(recovered.subscriber_recovery.messages_lost, 0u);

  // Sanity check that the faults are real: the same plan without recovery
  // demonstrably loses messages.
  netsim::ExperimentParams raw = faulty;
  raw.recovery_enabled = false;
  switchsim::Switch sw2(schema, pipeline);
  const auto lossy = netsim::run_experiment(raw, sw2, feed);
  std::uint64_t lossy_total = 0;
  for (const auto& [port, n] : lossy.delivered) lossy_total += n;
  EXPECT_LT(lossy_total, truth_total);
  EXPECT_NE(lossy.digest, truth.digest);
}

// Recovery must finish within the feed, not after it. An uplink booked
// ahead for the whole feed queues every retransmission behind the last
// feed frame, so each gap stays open until the feed has been sent: p99s of
// 58 ms (episodes) and 60 ms (messages) in this 61 ms feed.
TEST(FaultExperiment, RecoveryLatencyStaysWellInsideTheFeed) {
  const EndToEnd e = end_to_end();
  netsim::ExperimentParams p = e.params;
  p.link_faults.drop = 0.01;
  p.link_faults.duplicate = 0.005;
  p.link_faults.reorder = 0.005;
  switchsim::Switch sw(e.schema, e.pipeline);
  const auto res = netsim::run_experiment(p, sw, e.feed);

  const double span_us = static_cast<double>(e.feed.messages.back().t_us -
                                             e.feed.messages.front().t_us);
  ASSERT_GT(span_us, 60000.0);
  ASSERT_GT(res.recovery_latency_us.count(), 0u);
  EXPECT_LT(res.recovery_latency_us.p99(), span_us / 10);
  EXPECT_LT(res.latency_us.p99(), span_us / 10);
  EXPECT_EQ(res.uplink_recovery.messages_lost +
                res.subscriber_recovery.messages_lost,
            0u);
}

TEST(FaultExperiment, SameSeedIsByteReproducible) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 2;
  sp.n_subscriptions = 30;
  sp.n_symbols = 20;
  sp.n_hosts = 2;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  auto pipeline = compiler::compile_rules(schema, subs.rules).take().pipeline;

  workload::FeedParams fp;
  fp.seed = 5;
  fp.n_messages = 2000;
  fp.symbols = subs.symbols;
  auto feed = workload::generate_feed(fp);

  netsim::ExperimentParams p;
  p.seed = 77;
  p.n_ports = 2;
  p.link_faults.drop = 0.05;
  p.link_faults.duplicate = 0.02;
  p.link_faults.reorder = 0.02;
  p.link_faults.corrupt = 0.01;

  switchsim::Switch sw1(schema, pipeline);
  switchsim::Switch sw2(schema, pipeline);
  const auto a = netsim::run_experiment(p, sw1, feed);
  const auto b = netsim::run_experiment(p, sw2, feed);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.channel.dropped, b.channel.dropped);
  EXPECT_EQ(a.channel.corrupted, b.channel.corrupted);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.retransmit_bytes, b.retransmit_bytes);
}

}  // namespace
