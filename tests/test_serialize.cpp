// Pipeline serialization: byte-exact round trips, semantic equivalence,
// and rejection of malformed input.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "spec/itch_spec.hpp"
#include "table/serialize.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "workload/itch_subs.hpp"
#include "workload/siena.hpp"

namespace {

using namespace camus;

table::Pipeline compile_pipe(const spec::Schema& schema,
                             std::string_view rules,
                             compiler::CompileOptions opts = {}) {
  auto c = compiler::compile_source(schema, rules, opts);
  EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
  return std::move(c.value().pipeline);
}

TEST(Serialize, RoundTripIsByteStable) {
  auto schema = spec::make_itch_schema();
  auto pipe = compile_pipe(schema, R"(
    stock == GOOGL : fwd(1)
    stock == MSFT and price > 100 : fwd(1,2); update(my_counter)
    shares < 50 : fwd(3)
  )");
  const std::string text = table::serialize_pipeline(pipe);
  auto back = table::deserialize_pipeline(text);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(table::serialize_pipeline(back.value()), text);
}

TEST(Serialize, PreservesSemantics) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.domain_compression = true;
  opts.compression_min_entries = 1;
  auto pipe = compile_pipe(schema, R"(
    stock == GOOGL and price > 10 : fwd(1)
    price > 500 or shares < 9 : fwd(2)
    !(stock == AAPL) : fwd(4)
  )", opts);
  auto back = table::deserialize_pipeline(table::serialize_pipeline(pipe));
  ASSERT_TRUE(back.ok()) << back.error().to_string();

  util::Rng rng(3);
  const std::vector<std::string> syms = {"GOOGL", "AAPL", "MSFT"};
  for (int trial = 0; trial < 500; ++trial) {
    lang::Env env;
    env.fields = {rng.uniform(0, 20), util::encode_symbol(rng.pick(syms)),
                  rng.uniform(0, 1000)};
    env.states = {0, 0};
    ASSERT_EQ(back.value().evaluate_actions(env),
              pipe.evaluate_actions(env))
        << trial;
  }
  EXPECT_EQ(back.value().total_entries(), pipe.total_entries());
  EXPECT_EQ(back.value().mcast.size(), pipe.mcast.size());
  EXPECT_EQ(back.value().value_maps.size(), pipe.value_maps.size());
}

TEST(Serialize, LargeWorkloadRoundTrip) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams p;
  p.seed = 8;
  p.n_subscriptions = 2000;
  auto subs = workload::generate_itch_subscriptions(schema, p);
  auto c = compiler::compile_rules(schema, subs.rules);
  ASSERT_TRUE(c.ok());
  const std::string text = table::serialize_pipeline(c.value().pipeline);
  auto back = table::deserialize_pipeline(text);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().total_entries(), c.value().pipeline.total_entries());
  EXPECT_EQ(table::serialize_pipeline(back.value()), text);
}

TEST(Serialize, RejectsMalformedInput) {
  auto schema = spec::make_itch_schema();
  const std::string good =
      table::serialize_pipeline(compile_pipe(schema, "stock == A : fwd(1)"));

  EXPECT_FALSE(table::deserialize_pipeline("").ok());
  EXPECT_FALSE(table::deserialize_pipeline("camus-pipeline v2\nend\n").ok());
  EXPECT_FALSE(table::deserialize_pipeline("camus-pipeline v1\n").ok());

  // Truncated (no 'end').
  EXPECT_FALSE(
      table::deserialize_pipeline(good.substr(0, good.size() - 4)).ok());
  // Entry before any table.
  EXPECT_FALSE(table::deserialize_pipeline(
                   "camus-pipeline v1\ninitial_state 0\n"
                   "entry 0 exact 1 1 2\nend\n")
                   .ok());
  // Unknown directive.
  EXPECT_FALSE(table::deserialize_pipeline(
                   "camus-pipeline v1\ninitial_state 0\nbogus\nend\n")
                   .ok());
  // Inverted range.
  EXPECT_FALSE(table::deserialize_pipeline(
                   "camus-pipeline v1\ninitial_state 0\n"
                   "table t subject=f0 kind=range width=8 symbol=0\n"
                   "entry 0 range 9 3 1\nend\n")
                   .ok());
  // Leaf referencing a missing multicast group.
  EXPECT_FALSE(table::deserialize_pipeline(
                   "camus-pipeline v1\ninitial_state 0\nleaf\n"
                   "entry 0 ports=1,2 updates=- mcast=7\nend\n")
                   .ok());
  // Overlapping ranges are rejected by validation.
  EXPECT_FALSE(table::deserialize_pipeline(
                   "camus-pipeline v1\ninitial_state 0\n"
                   "table t subject=f0 kind=range width=8 symbol=0\n"
                   "entry 0 range 1 9 1\nentry 0 range 5 12 2\nend\n")
                   .ok());
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  auto r = table::deserialize_pipeline(
      "camus-pipeline v1\ninitial_state 0\n\nbogus here\nend\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().line, 4);
}

TEST(Serialize, EmptyPipelineRoundTrips) {
  table::Pipeline empty;
  auto back =
      table::deserialize_pipeline(table::serialize_pipeline(empty));
  ASSERT_TRUE(back.ok());
  lang::Env env;
  env.fields = {0, 0, 0};
  EXPECT_TRUE(back.value().evaluate_actions(env).is_drop());
}

}  // namespace
