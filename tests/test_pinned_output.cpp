// Byte-pinned outputs of the control plane: the delta wire format, the
// serialized pipeline image, both P4 dialects and the deterministic part of
// the compile telemetry, on a cold compile and on a churn episode. The
// image digests were recorded before leaf action sets became shared,
// immutable objects; a representation change that alters a single byte
// fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "compiler/p4gen.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "table/serialize.hpp"
#include "workload/churn.hpp"

namespace {

using namespace camus;

std::string hex_digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes)
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// CompileStats::to_json without its wall times and memory readings, which
// vary run to run.
std::string deterministic_json(compiler::CompileStats s) {
  s.t_flatten = s.t_build = s.t_union = s.t_prune = s.t_tables = 0;
  s.t_total = s.t_stitch = 0;
  s.mem = {};
  for (auto& shard : s.shards) {
    shard.t_seconds = 0;
    shard.manager_bytes = 0;
  }
  return s.to_json();
}

// The churn_updates --quick population: 500 base subscriptions over 100
// symbols and 200 hosts, symbol stage first.
workload::ChurnParams churn_params() {
  workload::ChurnParams cp;
  cp.seed = 1;
  cp.subs.seed = 1 ^ 0x5eedULL;
  cp.subs.n_subscriptions = 500;
  cp.subs.n_symbols = 100;
  cp.subs.n_hosts = 200;
  return cp;
}

compiler::CompileOptions exact_first() {
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  return opts;
}

TEST(PinnedOutput, ColdCompileImages) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnGenerator churn(schema, churn_params());
  auto c = compiler::compile_rules(schema, churn.base(), exact_first());
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  const table::Pipeline& pipe = c.value().pipeline;
  EXPECT_GT(pipe.mcast.size(), 1u);
  EXPECT_EQ(hex_digest(table::serialize_pipeline(pipe)), "10e6c00883540649");
  EXPECT_EQ(hex_digest(compiler::generate_p4(schema, &pipe)),
            "e8329a532b9505c5");
  EXPECT_EQ(hex_digest(compiler::generate_p4_14(schema, &pipe)),
            "80f87bcfc10e20c3");
  EXPECT_EQ(hex_digest(deterministic_json(c.value().stats)),
            "088e0ee390e4cadc");
}

// 20 churn deltas, committed by the incremental compiler and installed as
// ops on a switch. The unsubscribes remove or modify multi-port leaves, so
// apply_ops renumbers the switch's groups (compact_groups) along the way.
TEST(PinnedOutput, ChurnEpisodeImages) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnGenerator churn(schema, churn_params());
  compiler::IncrementalCompiler inc(schema, exact_first());
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  auto first = inc.commit();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  std::string stats_json = deterministic_json(first.value().stats);
  switchsim::Switch sw(schema, *inc.pipeline().value());
  pubsub::TwoPhaseInstaller installer(sw);

  std::size_t released = 0;  // multi-port leaves removed or modified
  std::string first_unsubscribe_wire;
  for (int i = 0; i < 20; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      ASSERT_TRUE(inc.remove(ids.at(op.slot)));
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    ASSERT_FALSE(delta.value().requires_reprogram) << "delta " << i;
    stats_json += deterministic_json(delta.value().stats);
    for (const table::EntryOp& e : delta.value().ops)
      if (e.is_leaf() && e.kind != table::EntryOp::Kind::kAdd &&
          e.actions.ports.size() > 1)
        ++released;
    if (!op.subscribe && first_unsubscribe_wire.empty())
      first_unsubscribe_wire = table::serialize_ops(delta.value().ops);
    const auto report = installer.apply_delta(delta.value().ops);
    ASSERT_TRUE(report.committed) << "delta " << i << ": " << report.error;
  }
  EXPECT_GT(released, 0u);
  ASSERT_FALSE(first_unsubscribe_wire.empty());

  // The delta wire format, and its parse: the ops re-serialize to the
  // same bytes.
  EXPECT_EQ(first_unsubscribe_wire.size(), 35324u);
  EXPECT_EQ(hex_digest(first_unsubscribe_wire), "94026cfde522e6d3");
  auto parsed = table::deserialize_ops(first_unsubscribe_wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(table::serialize_ops(parsed.value()), first_unsubscribe_wire);

  // The switch's program was patched by ops, and so was the compiler's
  // diff base: the two images are equal, entry order and group ids
  // included.
  const auto running = sw.pipeline_snapshot();
  EXPECT_EQ(hex_digest(table::serialize_pipeline(*running)),
            "a2c9f80ca658428e");
  EXPECT_EQ(hex_digest(compiler::generate_p4(schema, running.get())),
            "e5be6405f9087ed3");
  EXPECT_EQ(hex_digest(compiler::generate_p4_14(schema, running.get())),
            "323006ea3e47dd4c");
  EXPECT_EQ(table::serialize_pipeline(*inc.pipeline().value()),
            table::serialize_pipeline(*running));
  EXPECT_EQ(hex_digest(stats_json), "c8d31f47df2b3c92");
}

}  // namespace
