// Churn correctness (ISSUE 5 satellite): the live update path —
// IncrementalCompiler commit -> TwoPhaseInstaller::apply_delta ->
// Switch::apply_delta — validated the way Wong et al. validate switch
// compilers: differential execution against a from-scratch oracle. After
// every commit in a seeded 500-op churn sequence, the incrementally
// patched switch and a freshly compiled switch must produce bit-identical
// per-port output on the same 10K-message feed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/switch.hpp"
#include "table/compiled.hpp"
#include "table/delta.hpp"
#include "table/serialize.hpp"
#include "workload/churn.hpp"
#include "workload/feed.hpp"

namespace {

using namespace camus;

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

// Digest of the full per-port egress stream: every TxPacket's port and
// exact frame bytes, in emission order. Bit-identical output <=> equal
// digests (collision-negligible for a differential test).
std::uint64_t egress_digest(switchsim::Switch& sw,
                            std::span<const switchsim::Switch::Frame> frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto out = sw.process_batch(frames);
  for (const auto& pkt : out) {
    h = fnv_step(h, pkt.port);
    h = fnv_step(h, pkt.frame.size());
    for (const std::uint8_t b : pkt.frame) h = fnv_step(h, b);
  }
  return h;
}

std::vector<switchsim::Switch::Frame> as_frames(
    const std::vector<workload::PackedFrame>& packed) {
  std::vector<switchsim::Switch::Frame> frames;
  frames.reserve(packed.size());
  for (const auto& pf : packed)
    frames.push_back({std::span<const std::uint8_t>(pf.bytes), pf.t_us});
  return frames;
}

// The acceptance-criteria test: 500 seeded churn ops, differential
// switchsim after every commit over a 10K-message feed.
TEST(ChurnDifferential, IncrementalMatchesFromScratchPerCommit) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = 7;
  cp.subs.seed = 11;
  cp.subs.n_subscriptions = 40;
  cp.subs.n_symbols = 20;
  cp.subs.n_hosts = 8;
  workload::ChurnGenerator churn(schema, cp);

  // Slot -> rule is the oracle's view of the live set; slot -> id maps the
  // same ops onto the incremental compiler. Both are driven by one op
  // stream (the generator's slot contract).
  std::map<std::size_t, lang::BoundRule> live;
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  compiler::IncrementalCompiler inc(schema, opts);
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot) {
    live[slot] = churn.base()[slot];
    ids[slot] = inc.add(churn.base()[slot]);
  }
  ASSERT_TRUE(inc.commit().ok());

  switchsim::Switch sw_inc(schema, *inc.pipeline().value());
  pubsub::TwoPhaseInstaller installer(sw_inc);

  workload::FeedParams fp;
  fp.seed = 13;
  fp.n_messages = 10000;
  fp.symbols = churn.symbols();
  fp.watched_symbol = churn.symbols().front();
  const auto packed = workload::pack_feed_frames(workload::generate_feed(fp));
  const auto frames = as_frames(packed);

  constexpr std::size_t kOps = 500;

  for (std::size_t i = 0; i < kOps; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      live[op.slot] = op.rule;
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      ASSERT_TRUE(inc.remove(ids.at(op.slot))) << "op " << i;
      live.erase(op.slot);
      ids.erase(op.slot);
    }

    auto delta = inc.commit();
    ASSERT_TRUE(delta.ok()) << "op " << i << ": "
                            << delta.error().to_string();
    auto report = installer.apply_delta(delta.value().ops);
    ASSERT_TRUE(report.committed) << "op " << i << ": " << report.error;

    // From-scratch oracle over the identical live set.
    std::vector<lang::BoundRule> rules;
    rules.reserve(live.size());
    for (const auto& [slot, rule] : live) rules.push_back(rule);
    auto oracle = compiler::compile_rules(schema, rules, opts);
    ASSERT_TRUE(oracle.ok()) << "op " << i;
    switchsim::Switch sw_ref(schema, std::move(oracle).take().pipeline);

    EXPECT_EQ(egress_digest(sw_inc, frames), egress_digest(sw_ref, frames))
        << "divergence after op " << i << " ("
        << (op.subscribe ? "subscribe" : "unsubscribe") << " slot "
        << op.slot << ", " << live.size() << " live)";
  }
  EXPECT_EQ(inc.subscription_count(), live.size());
}

// The lowered program stays dense under churn. The incremental compiler
// never reuses a state id, so the running pipeline's raw ids drift
// upward with every commit; the switch's CompiledPipeline must still be
// sized by the states the pipeline references, and traverse must agree
// with Pipeline::evaluate after every delta.
TEST(ChurnLowering, DenseStatesAndReferenceAgreementAfterEveryOp) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = 23;
  cp.subs.seed = 29;
  cp.subs.n_subscriptions = 200;
  cp.subs.n_symbols = 40;
  cp.subs.n_hosts = 24;
  workload::ChurnGenerator churn(schema, cp);

  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  compiler::IncrementalCompiler inc(schema, opts);
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());

  workload::FeedParams fp;
  fp.seed = 31;
  fp.n_messages = 500;
  fp.symbols = churn.symbols();
  fp.price_min = 1;
  fp.price_max = 1200;
  const auto feed = workload::generate_feed(fp);
  const switchsim::ItchFieldExtractor ex(schema);
  std::vector<lang::Env> envs(feed.messages.size());
  for (std::size_t m = 0; m < envs.size(); ++m) {
    envs[m].fields = ex.extract(feed.messages[m].msg);
    envs[m].states.assign(schema.state_vars().size(), m % 7);
  }

  std::size_t matched = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      ASSERT_TRUE(inc.remove(ids.at(op.slot))) << "op " << i;
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    ASSERT_TRUE(delta.ok()) << "op " << i << ": "
                            << delta.error().to_string();
    ASSERT_TRUE(sw.apply_delta(delta.value().ops).ok()) << "op " << i;

    const table::Pipeline& running = sw.pipeline();
    const table::CompiledPipeline& lowered = sw.compiled();
    std::set<table::StateId> referenced{running.initial_state};
    for (const table::Table& t : running.tables) {
      for (const table::Entry& e : t.entries()) {
        referenced.insert(e.state);
        referenced.insert(e.next_state);
      }
    }
    for (const table::LeafEntry& e : running.leaf.entries())
      referenced.insert(e.state);
    ASSERT_EQ(lowered.n_states(), referenced.size())
        << "op " << i << ", largest raw id " << *referenced.rbegin();

    for (std::size_t m = 0; m < envs.size(); ++m) {
      const table::LeafEntry* want = running.evaluate(envs[m]);
      const std::uint32_t want_idx =
          want ? static_cast<std::uint32_t>(want -
                                            running.leaf.entries().data())
               : table::CompiledPipeline::kMiss;
      ASSERT_EQ(lowered.traverse(envs[m].fields, envs[m].states), want_idx)
          << "op " << i << ", message " << m;
      matched += want != nullptr;
    }
  }
  EXPECT_GT(matched, 0u);
}

// Entry deltas must release the multicast groups of the multi-port
// leaves they remove or modify: a switch that only ever takes deltas must
// hold exactly the groups a fresh compile of its rules would, or its
// group count climbs toward max_multicast_groups and fits() starts
// rejecting a program that fits.
TEST(ChurnDelta, DeltasReleaseUnusedMulticastGroups) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = 101;
  cp.subs.seed = 5;
  cp.subs.n_subscriptions = 300;
  cp.subs.n_symbols = 30;
  cp.subs.n_hosts = 24;
  workload::ChurnGenerator churn(schema, cp);

  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  compiler::IncrementalCompiler inc(schema, opts);
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());
  pubsub::TwoPhaseInstaller installer(sw);

  for (std::size_t i = 0; i < 100; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      ASSERT_TRUE(inc.remove(ids.at(op.slot))) << "op " << i;
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    ASSERT_TRUE(delta.ok()) << "op " << i << ": "
                            << delta.error().to_string();
    ASSERT_FALSE(delta.value().requires_reprogram) << "op " << i;
    auto report = installer.apply_delta(delta.value().ops);
    ASSERT_TRUE(report.committed) << "op " << i << ": " << report.error;

    const table::Pipeline running = *sw.pipeline_snapshot();
    std::set<std::vector<std::uint16_t>> port_sets;
    for (const auto& e : running.leaf.entries())
      if (e.actions->ports.size() > 1) port_sets.insert(e.actions->ports);
    EXPECT_EQ(sw.resources().multicast_groups, port_sets.size())
        << "op " << i;
    EXPECT_EQ(sw.resources().multicast_groups,
              inc.pipeline().value()->mcast.size())
        << "op " << i;

    auto reloaded =
        table::deserialize_pipeline(table::serialize_pipeline(running));
    ASSERT_TRUE(reloaded.ok()) << "op " << i << ": "
                               << reloaded.error().to_string();
    EXPECT_EQ(table::pipeline_digest(reloaded.value()),
              table::pipeline_digest(running))
        << "op " << i;
  }
  EXPECT_GT(sw.resources().multicast_groups, 0u);
}

TEST(ChurnDelta, NoOpCommitIsEmpty) {
  auto schema = spec::make_itch_schema();
  compiler::IncrementalCompiler inc(schema);
  auto r1 = inc.add_source("stock == GOOGL : fwd(1)");
  auto r2 = inc.add_source("stock == MSFT and price > 100 : fwd(2)");
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(inc.commit().ok());

  auto noop = inc.commit();
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop.value().ops.empty());
  EXPECT_EQ(noop.value().adds(), 0u);
  EXPECT_EQ(noop.value().removes(), 0u);
  EXPECT_EQ(noop.value().modifies(), 0u);
  EXPECT_DOUBLE_EQ(noop.value().reuse_fraction(), 1.0);
}

TEST(ChurnDelta, RemoveUnknownIdReturnsFalse) {
  auto schema = spec::make_itch_schema();
  compiler::IncrementalCompiler inc(schema);
  auto id = inc.add_source("stock == GOOGL : fwd(1)");
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(inc.remove(id.value() + 1000));
  EXPECT_TRUE(inc.remove(id.value()));
  EXPECT_FALSE(inc.remove(id.value()));  // already gone
  // Removing the only pending rule before any commit yields an empty
  // pipeline, not an error.
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(inc.subscription_count(), 0u);
}

TEST(ChurnDelta, ReAddAfterRemoveRestoresBehaviour) {
  auto schema = spec::make_itch_schema();
  compiler::IncrementalCompiler inc(schema);
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  auto volatile_id = inc.add_source("stock == MSFT and price > 500 : fwd(2)");
  ASSERT_TRUE(volatile_id.ok());
  ASSERT_TRUE(inc.commit().ok());
  const table::Pipeline before = *inc.pipeline().value();

  ASSERT_TRUE(inc.remove(volatile_id.value()));
  auto removal = inc.commit();
  ASSERT_TRUE(removal.ok());
  EXPECT_GT(removal.value().removes(), 0u);

  ASSERT_TRUE(inc.add_source("stock == MSFT and price > 500 : fwd(2)").ok());
  auto readd = inc.commit();
  ASSERT_TRUE(readd.ok());
  EXPECT_GT(readd.value().adds(), 0u);

  // Behaviourally identical to the pre-remove pipeline (state numbering
  // may differ, so compare egress, not serialized bytes).
  workload::FeedParams fp;
  fp.seed = 3;
  fp.n_messages = 2000;
  const auto packed = workload::pack_feed_frames(workload::generate_feed(fp));
  const auto frames = as_frames(packed);
  switchsim::Switch sw_before(schema, before);
  switchsim::Switch sw_after(schema, *inc.pipeline().value());
  EXPECT_EQ(egress_digest(sw_before, frames), egress_digest(sw_after, frames));
}

// apply_ops is strict: every op must land exactly, with U0xx codes naming
// the desync. Each case patches a fresh scratch copy (apply_ops may leave
// a partial patch behind on error, by contract).
TEST(ChurnDelta, StrictApplyDiagnostics) {
  auto schema = spec::make_itch_schema();
  compiler::IncrementalCompiler inc(schema);
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  ASSERT_TRUE(inc.add_source("price > 700 : fwd(2)").ok());
  auto first = inc.commit();
  ASSERT_TRUE(first.ok());
  const auto& ops = first.value().ops;

  const table::EntryOp* field_op = nullptr;
  const table::EntryOp* leaf_op = nullptr;
  for (const auto& op : ops) {
    if (op.is_leaf() && !leaf_op) leaf_op = &op;
    if (!op.is_leaf() && !field_op) field_op = &op;
  }
  ASSERT_NE(field_op, nullptr);
  ASSERT_NE(leaf_op, nullptr);

  auto expect_code = [&](std::vector<table::EntryOp> bad,
                         const std::string& code) {
    table::Pipeline scratch = *inc.pipeline().value();
    auto res = table::apply_ops(scratch, bad);
    ASSERT_FALSE(res.ok()) << code;
    EXPECT_EQ(res.error().code, code) << res.error().to_string();
  };

  {  // U001: unknown table
    table::EntryOp op = *field_op;
    op.table = "tbl_nonexistent";
    expect_code({op}, "U001");
  }
  {  // U002: remove with no matching entry
    table::EntryOp op = *field_op;
    op.kind = table::EntryOp::Kind::kRemove;
    op.next_state = op.next_state + 4242;
    expect_code({op}, "U002");
  }
  {  // U003: duplicate add of an installed field entry
    expect_code({*field_op}, "U003");
  }
  {  // U004: modify is leaf-only
    table::EntryOp op = *field_op;
    op.kind = table::EntryOp::Kind::kModify;
    expect_code({op}, "U004");
  }
  {  // U005: leaf modify of an absent state
    table::EntryOp op = *leaf_op;
    op.kind = table::EntryOp::Kind::kModify;
    op.state = op.state + 4242;
    expect_code({op}, "U005");
  }
  {  // U006: leaf add over an existing state
    expect_code({*leaf_op}, "U006");
  }

  // And the ok path: applying the inverse of a fresh add round-trips.
  table::Pipeline scratch = *inc.pipeline().value();
  table::EntryOp del = *field_op;
  del.kind = table::EntryOp::Kind::kRemove;
  table::EntryOp add = *field_op;
  auto res = table::apply_ops(scratch, std::vector<table::EntryOp>{del, add});
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res.value().adds, 1u);
  EXPECT_EQ(res.value().removes, 1u);
}

TEST(ChurnDelta, SerializeOpsRoundTrip) {
  auto schema = spec::make_itch_schema();
  compiler::IncrementalCompiler inc(schema);
  ASSERT_TRUE(inc.add_source("stock == GOOGL : fwd(1)").ok());
  auto ga = inc.add_source("stock == GOOGL and price > 900 : fwd(3)");
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(inc.commit().ok());
  // A second commit with an action change produces a mixed delta: field
  // adds and removes, and a leaf add and remove (the changed leaf gets a
  // fresh state). DeltaCodec.* in test_delta round-trips a leaf modify.
  ASSERT_TRUE(inc.remove(ga.value()));
  ASSERT_TRUE(inc.add_source("stock == GOOGL and price > 900 : fwd(4)").ok());
  auto delta = inc.commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_FALSE(delta.value().ops.empty());

  const std::string wire = table::serialize_ops(delta.value().ops);
  auto parsed = table::deserialize_ops(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value(), delta.value().ops);

  // Tampered header and truncated body are rejected.
  EXPECT_FALSE(table::deserialize_ops("camus-delta v9\nend\n").ok());
  EXPECT_FALSE(
      table::deserialize_ops(wire.substr(0, wire.size() / 2)).ok());
  EXPECT_EQ(table::deserialize_ops("camus-delta v9\nend\n").error().code,
            "D001");
  EXPECT_EQ(
      table::deserialize_ops(wire.substr(0, wire.size() / 2)).error().code,
      "D002");
  // So are binary headers of the format's other versions: 1 (the text
  // format's number) and 3. The version is the u32 after the magic.
  for (const char version : {'\x01', '\x03'}) {
    std::string other = wire;
    other.replace(4, 4, std::string{version, 0, 0, 0});
    const auto r = table::deserialize_ops(other);
    ASSERT_FALSE(r.ok()) << int{version};
    EXPECT_EQ(r.error().code, "D001") << r.error().message;
  }
}

// A delta the decoder refuses never reaches the switch, and the installer
// reports the decoder's code: a leaf op whose port list is not sorted
// encodes, but fails canonical decoding (D005).
TEST(ChurnDelta, RejectedDeltaCarriesItsCode) {
  auto schema = spec::make_itch_schema();
  auto c = compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
  ASSERT_TRUE(c.ok());
  switchsim::Switch sw(schema, c.value().pipeline);
  pubsub::TwoPhaseInstaller installer(sw);
  const std::uint64_t before = sw.program_version();

  table::EntryOp op;
  op.kind = table::EntryOp::Kind::kModify;
  op.table = std::string(table::kLeafTableName);
  op.state = c.value().pipeline.leaf.entries().front().state;
  op.actions.ports = {4, 2};
  const auto report = installer.apply_delta(std::vector<table::EntryOp>{op});
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(report.error.rfind("staged delta rejected: D005: ", 0), 0u)
      << report.error;
  EXPECT_EQ(sw.program_version(), before);
}

// The controller-level path: subscribe/unsubscribe mark deltas, and
// commit() flows them out.
TEST(ControllerChurn, CommitFlowsDeltas) {
  util::MemStorage storage;
  pubsub::DurableController ctl(spec::make_itch_schema(), storage);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(1, "stock == GOOGL").ok());
  ASSERT_TRUE(ctl.subscribe(2, "stock == MSFT and price > 250").ok());

  auto first = ctl.commit();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_GT(first.value().leaves[0].adds(), 0u);
  EXPECT_EQ(first.value().leaves[0].removes(), 0u);
  EXPECT_TRUE(ctl.intended().ok());

  // A no-op commit ships nothing.
  auto noop = ctl.commit();
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop.value().leaves[0].ops.empty());
  EXPECT_TRUE(noop.value().touched(0).empty());

  // One more subscriber: the delta is a strict subset of the pipeline.
  ASSERT_TRUE(ctl.subscribe(3, "stock == AAPL and price > 100").ok());
  auto second = ctl.commit();
  ASSERT_TRUE(second.ok());
  const auto& added = second.value().leaves[0];
  EXPECT_GT(added.adds(), 0u);
  EXPECT_LT(added.ops.size(), added.total_entries);
  EXPECT_GT(added.reuse_fraction(), 0.0);

  // Disconnect: the delta carries the removals.
  EXPECT_EQ(ctl.unsubscribe(3).value(), 1u);
  auto third = ctl.commit();
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third.value().leaves[0].removes(), 0u);
  EXPECT_EQ(ctl.subscription_count(), 2u);
}

}  // namespace
