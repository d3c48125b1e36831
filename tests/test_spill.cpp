// Graceful degradation: when the compiled pipeline exceeds the
// switch's resource budget, the compiler spills the lowest-priority
// subscriptions to end-host software filtering instead of rejecting the
// install. The split must be provably complete — for every message, the
// union of switch-matched and host-matched actions equals the unsplit BDD
// semantics — and the two-phase installer must never leave the switch on a
// half-programmed pipeline, even when the control channel drops and
// corrupts chunks mid-update.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baseline/matcher.hpp"
#include "compiler/compile.hpp"
#include "compiler/spill.hpp"
#include "fault/plan.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/rng.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;

// A prioritized subscription set: rules with a parallel priority each.
struct Subscriptions {
  std::vector<lang::BoundRule> rules;
  std::vector<int> priorities;
};

// The per-host-threshold workload deduplicates aggressively (that is the
// paper's point), so per-subscription random thresholds are used here to
// make the pipeline genuinely expensive and force a spill.
Subscriptions make_subscriptions(const spec::Schema& schema,
                                 std::size_t n_rules, std::uint64_t seed,
                                 std::vector<std::string>* symbols) {
  workload::ItchSubsParams sp;
  sp.seed = seed;
  sp.n_subscriptions = n_rules;
  sp.n_symbols = 60;
  sp.n_hosts = 12;
  sp.per_host_threshold = false;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  if (symbols) *symbols = subs.symbols;
  Subscriptions out;
  // Priorities cycle 0..4 so the spill boundary lands mid-set.
  int i = 0;
  for (const auto& r : subs.rules) {
    out.rules.push_back(r);
    out.priorities.push_back(i++ % 5);
  }
  return out;
}

TEST(Spill, GenerousBudgetDoesNotDegrade) {
  auto schema = spec::make_itch_schema();
  auto subs = make_subscriptions(schema, 100, 1, nullptr);
  auto split = compiler::compile_with_budget(
      schema, subs.rules, subs.priorities, table::ResourceBudget{});
  ASSERT_TRUE(split.ok()) << split.error().to_string();
  EXPECT_FALSE(split.value().degraded());
  EXPECT_EQ(split.value().hw_rules.size(), 100u);
  EXPECT_TRUE(split.value().spilled.empty());
  EXPECT_TRUE(split.value().spilled_flat.empty());
}

TEST(Spill, TightBudgetSpillsLowestPriorityFirst) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 2;
  sp.n_subscriptions = 300;
  sp.n_symbols = 60;
  sp.n_hosts = 12;
  sp.per_host_threshold = false;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  std::vector<int> priorities;
  for (std::size_t i = 0; i < subs.rules.size(); ++i)
    priorities.push_back(static_cast<int>(i % 5));

  // Size the budget off the full compile so the test tracks the compiler:
  // allow roughly half the full pipeline's TCAM/SRAM needs. fits() checks
  // totals against per_stage * max_stages, so divide by the stage count.
  auto compiled = compiler::compile_rules(schema, subs.rules);
  ASSERT_TRUE(compiled.ok());
  const auto full = compiled.value().pipeline.resources();
  table::ResourceBudget budget;
  budget.max_stages = full.stages;
  budget.sram_entries_per_stage = 1 + full.sram_entries / (2 * full.stages);
  budget.tcam_entries_per_stage = 1 + full.tcam_entries / (2 * full.stages);

  auto split_r =
      compiler::compile_with_budget(schema, subs.rules, priorities, budget);
  ASSERT_TRUE(split_r.ok()) << split_r.error().to_string();
  const auto& split = split_r.value();
  ASSERT_TRUE(split.degraded());
  EXPECT_EQ(split.hw_rules.size() + split.spilled.size(), 300u);
  EXPECT_TRUE(budget.fits(split.usage));
  // Binary search: O(log n) prefix compiles, not one per rule.
  EXPECT_LE(split.compile_probes, 12u);

  EXPECT_FALSE(split.hw_rules.empty());
  EXPECT_FALSE(split.spilled.empty());

  // hw_rules must be exactly the top-k prefix of the (priority desc,
  // insertion asc) ranking — no spilled rule may outrank a hardware rule.
  std::vector<std::size_t> ranked(subs.rules.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](std::size_t a, std::size_t b) {
                     return priorities[a] > priorities[b];
                   });
  // Rule identity: the split copies BoundRules, so the shared condition
  // pointer identifies the original subscription.
  for (std::size_t i = 0; i < split.hw_rules.size(); ++i)
    EXPECT_EQ(split.hw_rules[i].cond.get(),
              subs.rules[ranked[i]].cond.get())
        << "hardware slot " << i;
  for (std::size_t i = 0; i < split.spilled.size(); ++i)
    EXPECT_EQ(split.spilled[i].cond.get(),
              subs.rules[ranked[split.hw_rules.size() + i]].cond.get())
        << "spilled slot " << i;
}

// The completeness proof: hardware ∪ host == unsplit BDD, bit for bit,
// over 100K+ replayed messages and randomized register states.
TEST(Spill, SplitSemanticsAreComplete) {
  auto schema = spec::make_itch_schema();
  std::vector<std::string> symbols;
  auto subs = make_subscriptions(schema, 300, 3, &symbols);

  auto compiled = compiler::compile_rules(schema, subs.rules);
  ASSERT_TRUE(compiled.ok());
  const auto& unsplit = compiled.value().pipeline;  // full BDD semantics
  const auto full = unsplit.resources();

  table::ResourceBudget budget;
  budget.max_stages = full.stages;
  budget.sram_entries_per_stage = 1 + full.sram_entries / (2 * full.stages);
  budget.tcam_entries_per_stage = 1 + full.tcam_entries / (2 * full.stages);
  auto split_r = compiler::compile_with_budget(schema, subs.rules,
                                               subs.priorities, budget);
  ASSERT_TRUE(split_r.ok()) << split_r.error().to_string();
  const auto& split = split_r.value();
  ASSERT_TRUE(split.degraded());

  const table::Pipeline& hw = split.hardware.pipeline;
  baseline::NaiveMatcher host(split.spilled_flat);
  EXPECT_EQ(host.rule_count(), split.spilled.size());

  workload::FeedParams fp;
  fp.seed = 20170830;
  fp.n_messages = 110000;
  fp.symbols = symbols;
  fp.watched_fraction = 0.05;
  auto feed = workload::generate_feed(fp);
  ASSERT_GE(feed.messages.size(), 100000u);

  switchsim::ItchFieldExtractor ex(schema);
  util::Rng state_rng(99);
  const std::size_t n_states = schema.state_vars().size();

  lang::Env env;
  std::uint64_t mismatches = 0;
  std::uint64_t union_digest = 0xcbf29ce484222325ULL;
  std::uint64_t full_digest = 0xcbf29ce484222325ULL;
  auto fold = [](std::uint64_t h, const lang::ActionSet& a) {
    for (const auto p : a.ports) h = (h ^ p) * 0x100000001b3ULL;
    h = (h ^ 0xfe) * 0x100000001b3ULL;
    for (const auto u : a.state_updates) h = (h ^ u) * 0x100000001b3ULL;
    return h;
  };
  for (const auto& fm : feed.messages) {
    env.fields = ex.extract(fm.msg);
    // Randomized register state: completeness must hold on the whole
    // semantic domain, not just the zero-state slice.
    env.states.clear();
    for (std::size_t s = 0; s < n_states; ++s)
      env.states.push_back(state_rng.uniform(0, 2000));

    const lang::ActionSet& want = unsplit.evaluate_actions(env);
    lang::ActionSet got = hw.evaluate_actions(env);  // switch-delivered
    got.merge(host.match(env));                      // ∪ host-filtered
    mismatches += !(got == want);
    union_digest = fold(union_digest, got);
    full_digest = fold(full_digest, want);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(union_digest, full_digest);
}

// ------------------------------------------------- TwoPhaseInstaller

table::Pipeline compile_set(const spec::Schema& schema, std::uint64_t seed,
                            std::size_t n_rules) {
  workload::ItchSubsParams sp;
  sp.seed = seed;
  sp.n_subscriptions = n_rules;
  sp.n_symbols = 30;
  sp.n_hosts = 6;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  return compiler::compile_rules(schema, subs.rules).take().pipeline;
}

TEST(TwoPhaseInstall, CleanChannelCommits) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  auto p2 = compile_set(schema, 2, 60);

  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);
  const auto before = installer.active();
  ASSERT_TRUE(before);

  const auto report = installer.install(p2);
  EXPECT_TRUE(report.committed) << report.error;
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.chunk_retransmits, 0u);
  EXPECT_EQ(installer.commits(), 1u);
  // The switch and the reader snapshot both moved to p2.
  EXPECT_EQ(sw.pipeline().total_entries(), p2.total_entries());
  EXPECT_EQ(installer.active()->total_entries(), p2.total_entries());
}

TEST(TwoPhaseInstall, RollbackRestoresLastGood) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  auto p2 = compile_set(schema, 2, 60);
  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);

  ASSERT_TRUE(installer.install(p2).committed);
  ASSERT_TRUE(installer.rollback());
  EXPECT_EQ(sw.pipeline().total_entries(), p1.total_entries());
  EXPECT_EQ(installer.active()->total_entries(), p1.total_entries());
}

TEST(TwoPhaseInstall, LossyChannelRetriesAndCommits) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  auto p2 = compile_set(schema, 2, 60);
  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);

  fault::FaultSpec spec;
  spec.drop = 0.2;
  spec.corrupt = 0.1;
  spec.corrupt_max_bits = 4;
  const fault::Plan plan(spec, 31);

  const auto report = installer.install(p2, &plan);
  EXPECT_TRUE(report.committed) << report.error;
  EXPECT_GT(report.chunk_retransmits, 0u);  // the channel really did hurt
  EXPECT_EQ(sw.pipeline().total_entries(), p2.total_entries());
}

TEST(TwoPhaseInstall, DeadChannelAbortsWithSwitchUntouched) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  auto p2 = compile_set(schema, 2, 60);
  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);
  const auto before = installer.active();

  fault::FaultSpec spec;
  spec.drop = 1.0;  // mid-update link failure: nothing gets through
  const fault::Plan plan(spec, 7);

  const auto report = installer.install(p2, &plan, 512, 2, 3);
  EXPECT_FALSE(report.committed);
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(report.attempts, 2u);
  // Rollback semantics: the switch still runs p1 and readers still see
  // the last-good snapshot.
  EXPECT_EQ(sw.pipeline().total_entries(), p1.total_entries());
  EXPECT_EQ(installer.active().get(), before.get());
  EXPECT_EQ(installer.commits(), 0u);
}

// The installer holds no copy of the program: a write that bypasses it
// (fault::Injector, netsim::Fabric::program) is what active() then reads,
// and what a delta is staged on.
TEST(TwoPhaseInstall, InstallerSeesTheSwitchProgram) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);
  ASSERT_FALSE(p1.leaf.entries().empty());
  const table::LeafEntry& gone = p1.leaf.entries().front();

  sw.reprogram(table::Pipeline{});  // wiped behind the installer
  EXPECT_EQ(table::pipeline_digest(*installer.active()), sw.program_digest());

  // A delta written against p1 removes a leaf entry the switch no longer
  // holds: the switch refuses to stage it, and nothing is published.
  table::EntryOp remove;
  remove.kind = table::EntryOp::Kind::kRemove;
  remove.table = std::string(table::kLeafTableName);
  remove.state = gone.state;
  remove.actions = *gone.actions;
  const std::uint64_t version = sw.program_version();
  const auto staged =
      installer.stage(std::span<const table::EntryOp>(&remove, 1));
  EXPECT_FALSE(staged.staged);
  EXPECT_NE(staged.report.error.find("U005"), std::string::npos)
      << staged.report.error;
  EXPECT_EQ(sw.program_version(), version);
  EXPECT_EQ(installer.commits(), 0u);
}

// A faulted install campaign is exactly reproducible from the plan seed.
TEST(TwoPhaseInstall, FaultedInstallIsDeterministic) {
  auto schema = spec::make_itch_schema();
  auto p1 = compile_set(schema, 1, 40);
  auto p2 = compile_set(schema, 2, 60);
  fault::FaultSpec spec;
  spec.drop = 0.3;
  spec.corrupt = 0.15;
  const fault::Plan plan(spec, 12345);

  switchsim::Switch sw_a(schema, p1), sw_b(schema, p1);
  pubsub::TwoPhaseInstaller ia(sw_a), ib(sw_b);
  const auto ra = ia.install(p2, &plan);
  const auto rb = ib.install(p2, &plan);
  EXPECT_EQ(ra.committed, rb.committed);
  EXPECT_EQ(ra.attempts, rb.attempts);
  EXPECT_EQ(ra.chunk_sends, rb.chunk_sends);
  EXPECT_EQ(ra.chunk_retransmits, rb.chunk_retransmits);
}

}  // namespace
