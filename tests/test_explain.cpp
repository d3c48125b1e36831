// Pipeline::explain: the step-by-step trace must agree with evaluate().
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "netsim/experiment.hpp"
#include "spec/itch_spec.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;

TEST(Explain, TraceAgreesWithEvaluate) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.domain_compression = true;
  opts.compression_min_entries = 1;
  auto c = compiler::compile_source(schema, R"(
    stock == GOOGL and price > 100 : fwd(1)
    shares > 500 or price < 10 : fwd(2)
  )", opts);
  ASSERT_TRUE(c.ok());
  const auto& pipe = c.value().pipeline;

  util::Rng rng(55);
  const std::vector<std::string> syms = {"GOOGL", "MSFT"};
  for (int trial = 0; trial < 300; ++trial) {
    lang::Env env;
    env.fields = {rng.uniform(0, 1000), util::encode_symbol(rng.pick(syms)),
                  rng.uniform(0, 200)};
    env.states = {0, 0};
    const auto trace = pipe.explain(env);
    EXPECT_EQ(trace.actions, pipe.evaluate_actions(env)) << trial;
    EXPECT_EQ(trace.steps.size(),
              pipe.value_maps.size() + pipe.tables.size());
    // State chaining is consistent through the field tables.
    table::StateId state = pipe.initial_state;
    for (std::size_t i = pipe.value_maps.size(); i < trace.steps.size();
         ++i) {
      EXPECT_EQ(trace.steps[i].state_before, state);
      state = trace.steps[i].state_after;
    }
    EXPECT_EQ(trace.final_state, state);
  }
}

TEST(Explain, RendersHitsAndMisses) {
  auto schema = spec::make_itch_schema();
  auto c = compiler::compile_source(schema, "stock == GOOGL : fwd(1)");
  ASSERT_TRUE(c.ok());
  lang::Env env;
  env.fields = {0, util::encode_symbol("GOOGL"), 0};
  env.states = {0, 0};
  const std::string hit = c.value().pipeline.explain(env).to_string();
  EXPECT_NE(hit.find("matched GOOGL"), std::string::npos);
  EXPECT_NE(hit.find("fwd(1)"), std::string::npos);

  env.fields[1] = util::encode_symbol("IBM");
  const std::string miss = c.value().pipeline.explain(env).to_string();
  EXPECT_NE(miss.find("miss"), std::string::npos);
  EXPECT_NE(miss.find("drop()"), std::string::npos);
}

// While here: the fan-out experiment harness invariants.
TEST(FanoutExperiment, ConservationAndSeparation) {
  auto schema = spec::make_itch_schema();
  auto symbols = workload::itch_symbols(10);
  netsim::ExperimentParams mp;
  mp.n_ports = 4;
  mp.msgs_per_frame = 1;
  mp.recovery_enabled = false;
  for (std::size_t s = 0; s < symbols.size(); ++s)
    mp.interest[symbols[s]] = static_cast<std::uint16_t>(1 + s % 4);

  workload::FeedParams fp;
  fp.seed = 4;
  fp.n_messages = 20000;
  fp.symbols = symbols;
  fp.watched_fraction = 0.1;
  auto feed = workload::generate_feed(fp);

  mp.mode = netsim::FilterMode::kHostFilter;
  auto bcast = switchsim::Switch::make_broadcast(schema, {1, 2, 3, 4});
  auto base = netsim::run_experiment(mp, bcast, feed);
  // Broadcast delivers every frame to every host.
  EXPECT_EQ(base.frames_to_hosts, feed.messages.size() * 4);
  // Every message has exactly one interested host here.
  EXPECT_EQ(base.interested_expected, feed.messages.size());
  EXPECT_EQ(base.interested_received, base.interested_expected);

  std::string rules;
  for (const auto& [sym, port] : mp.interest)
    rules += "stock == " + sym + " : fwd(" + std::to_string(port) + ")\n";
  auto compiled = compiler::compile_source(schema, rules);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  switchsim::Switch sw(schema, std::move(compiled).take().pipeline);
  mp.mode = netsim::FilterMode::kSwitchFilter;
  auto camus = netsim::run_experiment(mp, sw, feed);
  // Switch filtering delivers each frame exactly once (disjoint slices).
  EXPECT_EQ(camus.frames_to_hosts, feed.messages.size());
  EXPECT_EQ(camus.interested_received, camus.interested_expected);
  EXPECT_LT(camus.bytes_to_hosts, base.bytes_to_hosts / 3);
  EXPECT_LE(camus.latency_us.p99(), base.latency_us.p99());
}

// interested_received counts a message only at the port `interest` names,
// in switch-filter mode too: a switch that sends every message to the
// wrong host delivers the whole feed and is still caught.
TEST(FanoutExperiment, WrongPortDeliveryIsNotInterested) {
  auto schema = spec::make_itch_schema();
  auto symbols = workload::itch_symbols(8);
  netsim::ExperimentParams mp;
  mp.n_ports = 4;
  mp.msgs_per_frame = 1;
  mp.recovery_enabled = false;
  std::string rules;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    mp.interest[symbols[s]] = static_cast<std::uint16_t>(1 + s % 4);
    rules += "stock == " + symbols[s] + " : fwd(" +
             std::to_string(1 + (s + 1) % 4) + ")\n";
  }

  workload::FeedParams fp;
  fp.seed = 4;
  fp.n_messages = 5000;
  fp.symbols = symbols;
  fp.watched_fraction = 0.1;
  auto feed = workload::generate_feed(fp);

  auto compiled = compiler::compile_source(schema, rules);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  switchsim::Switch sw(schema, std::move(compiled).take().pipeline);
  auto res = netsim::run_experiment(mp, sw, feed);
  EXPECT_EQ(res.frames_to_hosts, feed.messages.size());
  EXPECT_EQ(res.interested_expected, feed.messages.size());
  EXPECT_EQ(res.interested_received, 0u);
  // The hosts still consume, and time, everything they were sent.
  EXPECT_EQ(res.latency_us.count(), feed.messages.size());
}

}  // namespace
