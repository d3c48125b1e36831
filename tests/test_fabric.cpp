// Multi-switch fabric: placement derivation, the four-obligation
// equivalence proof (with a corrupted-steering negative producing a
// concrete counterexample), the DurableController's all-or-nothing
// cross-switch install and per-leaf churn deltas, the fuzzer-driven
// differential suite (fabric delivery ≡ single-switch oracle per (leaf,
// port) across topologies, the spineless single switch included, at the
// Env level and for wire frames), and the nemesis campaign's invariants +
// determinism on a 2x2 fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/fabric.hpp"
#include "fault/nemesis.hpp"
#include "fault/plan.hpp"
#include "lang/bound.hpp"
#include "lang/parser.hpp"
#include "netsim/fabric.hpp"
#include "proto/packet.hpp"
#include "pubsub/durable.hpp"
#include "spec/itch_spec.hpp"
#include "table/delta.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "verify/fabric.hpp"
#include "workload/fuzz.hpp"

namespace {

using camus::compiler::FabricSpec;
using camus::pubsub::DurableController;

camus::lang::BoundRule rule(const std::string& text) {
  auto schema = camus::spec::make_itch_schema();
  auto parsed = camus::lang::parse_rule(text);
  EXPECT_TRUE(parsed.ok()) << text;
  auto bound = camus::lang::bind_rule(parsed.value(), schema);
  EXPECT_TRUE(bound.ok()) << text;
  return std::move(bound).take();
}

std::uint64_t sym(const std::string& s) {
  return camus::util::encode_symbol(s);
}

// --- Placement ------------------------------------------------------------

TEST(FabricPlacement, SteersByDominantPinnedSubjectAndRestrictsLeaves) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)"),
      rule("stock == MSFT : fwd(1)"),
      rule("stock == GOOGL and price > 100 : fwd(2)"),
      rule("stock == AAPL : fwd(3)"),
  };
  FabricSpec spec;
  spec.leaves = 2;
  spec.spines = 1;
  auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
  ASSERT_TRUE(placed.ok()) << placed.error().to_string();
  const auto& p = placed.value();

  ASSERT_TRUE(p.steer_subject.has_value());
  EXPECT_EQ(*p.steer_subject, camus::lang::Subject::field(1));  // stock
  EXPECT_EQ(p.steer_subject_name, "add_order.stock");
  EXPECT_EQ(p.total_rules, 4u);
  EXPECT_EQ(p.pinned_rules, 4u);

  // Ports 0,2 -> leaf 0; ports 1,3 -> leaf 1 (round-robin).
  ASSERT_EQ(p.leaf_rules.size(), 2u);
  EXPECT_EQ(p.leaf_rules[0].size(), 2u);
  EXPECT_EQ(p.leaf_rules[1].size(), 2u);
  // Every leaf rule's forwarding set touches only that leaf's ports.
  for (std::size_t l = 0; l < 2; ++l)
    for (const auto& r : p.leaf_rules[l])
      for (const std::uint16_t port : r.actions.ports)
        EXPECT_EQ(spec.leaf_of(port), l);

  // Pinned values: leaf 0 covers GOOGL; leaf 1 covers MSFT and AAPL.
  EXPECT_FALSE(p.leaf_needs_all[0]);
  EXPECT_FALSE(p.leaf_needs_all[1]);
  EXPECT_TRUE(p.leaf_values[0].contains(sym("GOOGL")));
  EXPECT_FALSE(p.leaf_values[0].contains(sym("MSFT")));
  EXPECT_TRUE(p.leaf_values[1].contains(sym("MSFT")));
  EXPECT_TRUE(p.leaf_values[1].contains(sym("AAPL")));
  EXPECT_EQ(p.spine_rules.size(), 2u);
  EXPECT_EQ(p.populated_leaves(), 2u);
  EXPECT_EQ(p.max_leaf_rules(), 2u);
}

TEST(FabricPlacement, UnpinnedRuleForcesLeafOntoCatchAll) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)"),
      rule("shares > 500 : fwd(1)"),  // pins nothing
  };
  FabricSpec spec;
  spec.leaves = 2;
  auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
  ASSERT_TRUE(placed.ok());
  EXPECT_FALSE(placed.value().leaf_needs_all[0]);
  EXPECT_TRUE(placed.value().leaf_needs_all[1]);
  EXPECT_EQ(placed.value().pinned_rules, 1u);
}

TEST(FabricPlacement, StatefulRuleRejectedWithF150) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0); update(my_counter)"),
  };
  auto placed = camus::compiler::partition_for_fabric(schema, rules_,
                                                      FabricSpec{});
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error().code, "F150");
}

TEST(FabricPlacement, DegenerateSpecRejectedWithF151) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)")};
  FabricSpec no_leaves;
  no_leaves.leaves = 0;
  EXPECT_EQ(camus::compiler::partition_for_fabric(schema, rules_, no_leaves)
                .error()
                .code,
            "F151");
  FabricSpec no_spines;
  no_spines.spines = 0;
  EXPECT_EQ(camus::compiler::partition_for_fabric(schema, rules_, no_spines)
                .error()
                .code,
            "F151");

  // Zero spines over ONE leaf is the single switch: placement is the
  // identity, so a stateful rule passes verbatim instead of failing F150.
  const std::vector<camus::lang::BoundRule> stateful = {
      rule("stock == GOOGL : fwd(0); update(my_counter)"),
      rule("shares > 500 : fwd(3)")};
  auto single = camus::compiler::partition_for_fabric(
      schema, stateful, FabricSpec::single_switch());
  ASSERT_TRUE(single.ok()) << single.error().to_string();
  const auto& p = single.value();
  EXPECT_FALSE(p.steer_subject.has_value());
  EXPECT_TRUE(p.spine_rules.empty());
  ASSERT_EQ(p.leaf_rules.size(), 1u);
  ASSERT_EQ(p.leaf_rules[0].size(), stateful.size());
  for (std::size_t i = 0; i < stateful.size(); ++i) {
    EXPECT_EQ(p.leaf_rules[0][i].cond, stateful[i].cond);
    EXPECT_EQ(p.leaf_rules[0][i].actions, stateful[i].actions);
  }
}

// --- Equivalence proof ----------------------------------------------------

TEST(FabricEquivalence, CompiledFabricIsProvenEquivalent) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)"),
      rule("stock == MSFT and price > 5000 : fwd(1)"),
      rule("shares > 900 : fwd(2)"),
      rule("stock == AAPL or stock == NVDA : fwd(3)"),
      rule("stock == GOOGL and shares < 50 : fwd(5)"),
  };
  // 2 spines x 4 leaves, and the single switch, whose identity placement
  // steers nothing: only recombination and the leaf program apply there.
  for (const FabricSpec spec :
       {FabricSpec{4, 2}, FabricSpec::single_switch()}) {
    auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
    ASSERT_TRUE(placed.ok());
    auto program = camus::compiler::compile_fabric(schema, placed.value());
    ASSERT_TRUE(program.ok()) << program.error().to_string();
    if (spec.single()) {
      EXPECT_EQ(program.value().fabric_digest,
                program.value().leaf_digests[0]);
    }

    const auto res = camus::verify::check_fabric_equivalence(
        schema, rules_, placed.value(), program.value());
    EXPECT_TRUE(res.proven()) << spec.spines << "x" << spec.leaves << " "
                              << res.failed_check << ": " << res.detail;

    // A corrupted leaf program is caught on either topology.
    auto corrupted = std::move(program).take();
    corrupted.leaves[0] = camus::table::Pipeline{};
    const auto bad = camus::verify::check_fabric_equivalence(
        schema, rules_, placed.value(), corrupted);
    EXPECT_TRUE(bad.completed);
    EXPECT_EQ(bad.failed_check, "leaf-program");
  }
}

TEST(FabricEquivalence, CorruptedSteeringRuleYieldsStarvationWitness) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)"),
      rule("stock == MSFT : fwd(1)"),
      rule("stock == AAPL and price > 100 : fwd(2)"),
  };
  FabricSpec spec;
  spec.leaves = 2;
  auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
  ASSERT_TRUE(placed.ok());

  // Corrupt the steering rule for leaf 1 (ports 1, 3, ...): the spine now
  // never steers there, starving every packet leaf 1 should deliver.
  auto corrupted = placed.value();
  corrupted.spine_rules[1].cond = camus::lang::BoundCond::make_const(false);
  auto program = camus::compiler::compile_fabric(schema, corrupted);
  ASSERT_TRUE(program.ok());

  const auto res = camus::verify::check_fabric_equivalence(
      schema, rules_, corrupted, program.value());
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(res.equivalent);
  EXPECT_EQ(res.failed_check, "starvation");
  ASSERT_TRUE(res.leaf.has_value());
  EXPECT_EQ(*res.leaf, 1u);
  // The counterexample is a CONCRETE packet the fabric loses: the
  // monolithic program forwards it to a leaf-1 port.
  ASSERT_TRUE(res.counterexample.has_value());
  auto oracle = camus::compiler::compile_rules(schema, rules_);
  ASSERT_TRUE(oracle.ok());
  // The witness env only carries the subjects its MTBDD path constrained;
  // pad to full schema width before driving the oracle pipeline.
  camus::lang::Env cx = *res.counterexample;
  if (cx.fields.size() < schema.fields().size())
    cx.fields.resize(schema.fields().size(), 0);
  if (cx.states.size() < schema.state_vars().size())
    cx.states.resize(schema.state_vars().size(), 0);
  const auto& acts = oracle.value().pipeline.evaluate_actions(cx);
  bool leaf1_port = false;
  for (const std::uint16_t p : acts.ports)
    leaf1_port = leaf1_port || spec.leaf_of(p) == 1;
  EXPECT_TRUE(leaf1_port);
}

TEST(FabricEquivalence, CorruptedSpineProgramIsCaught) {
  auto schema = camus::spec::make_itch_schema();
  const std::vector<camus::lang::BoundRule> rules_ = {
      rule("stock == GOOGL : fwd(0)"), rule("stock == MSFT : fwd(1)")};
  FabricSpec spec;
  spec.leaves = 2;
  auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
  ASSERT_TRUE(placed.ok());
  auto program = camus::compiler::compile_fabric(schema, placed.value());
  ASSERT_TRUE(program.ok());

  // Swap the compiled spine for an empty pipeline without touching the
  // placement: obligations (1)-(3) hold, (4) must fail.
  auto corrupted = std::move(program).take();
  corrupted.spine = camus::table::Pipeline{};
  const auto res = camus::verify::check_fabric_equivalence(
      schema, rules_, placed.value(), corrupted);
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(res.equivalent);
  EXPECT_EQ(res.failed_check, "spine-program");
}

// --- Differential suite: fabric ≡ single-switch oracle --------------------

// The (leaf, port) pairs the monolithic oracle delivers `env` to.
std::vector<std::pair<std::size_t, std::uint16_t>> oracle_delivery(
    const camus::table::Pipeline& oracle, const FabricSpec& spec,
    const camus::lang::Env& env) {
  std::vector<std::pair<std::size_t, std::uint16_t>> want;
  for (const std::uint16_t p : oracle.evaluate_actions(env).ports)
    want.emplace_back(spec.leaf_of(p), p);
  std::sort(want.begin(), want.end());
  return want;
}

// Runs fuzzer-sampled stateless rule sets through a (leaves x spines)
// netsim fabric and compares every probe's (leaf, port) delivery set with
// the monolithic oracle's port set mapped through leaf_of.
void run_differential(std::size_t leaves, std::size_t spines,
                      std::uint64_t seed, std::size_t samples) {
  auto schema = camus::spec::make_itch_schema();
  camus::workload::FuzzParams params;
  params.seed = seed;
  params.p_stateful = 0;  // fabric scope is stateless-only
  params.max_rules = 6;
  const camus::workload::GrammarFuzzer fuzzer(schema, params);

  FabricSpec spec;
  spec.leaves = leaves;
  spec.spines = spines;

  for (std::uint64_t i = 0; i < samples; ++i) {
    const auto sample = fuzzer.sample(i);
    auto placed =
        camus::compiler::partition_for_fabric(schema, sample.bound, spec);
    ASSERT_TRUE(placed.ok()) << "sample " << i;
    auto program = camus::compiler::compile_fabric(schema, placed.value());
    ASSERT_TRUE(program.ok()) << "sample " << i;
    auto oracle = camus::compiler::compile_rules(schema, sample.bound);
    ASSERT_TRUE(oracle.ok()) << "sample " << i;

    camus::netsim::FabricTopologyOptions topo;
    topo.spec = spec;
    camus::netsim::Fabric fabric(schema, topo);
    fabric.program(program.value());

    for (const auto& probe : sample.probes) {
      camus::lang::Env env;
      env.fields = probe.fields;
      env.states.assign(schema.state_vars().size(), 0);
      const auto got = fabric.deliver_env(probe.fields, probe.now_us);
      const auto want = oracle_delivery(oracle.value().pipeline, spec, env);
      ASSERT_EQ(got, want) << "sample " << i << " diverged from the oracle";
    }
  }
}

TEST(FabricDifferential, TrivialTopology1x1) { run_differential(1, 1, 11, 12); }
TEST(FabricDifferential, SpinelessSingleLeaf) {
  run_differential(1, 0, 11, 12);
}
TEST(FabricDifferential, Topology2x4) { run_differential(2, 4, 22, 12); }
TEST(FabricDifferential, Topology4x8) { run_differential(4, 8, 33, 12); }

// Per-(leaf, port) message streams, each message as its ITCH wire bytes.
using MessageStreams =
    std::map<std::pair<std::size_t, std::uint16_t>,
             std::vector<std::vector<std::uint8_t>>>;

void append_messages(MessageStreams& streams, std::size_t leaf,
                     std::uint16_t port,
                     std::span<const std::uint8_t> frame) {
  const auto pkt = camus::proto::decode_market_data_packet(frame);
  ASSERT_TRUE(pkt.has_value());
  for (const auto& m : pkt->itch.add_orders)
    streams[{leaf, port}].push_back(camus::proto::encode_itch_message(m));
}

// Wire frames across the fabric: each sample's probes are packed four to
// a MoldUDP64 frame and inject()ed, and every (leaf, port)'s message
// stream must equal what the monolithic program's process_batch sends
// that port. A spine or leaf that forwarded a whole frame on its leading
// message would lose or misroute the trailing ones.
void run_wire_differential(std::size_t leaves, std::size_t spines,
                           std::uint64_t seed, std::size_t samples) {
  auto schema = camus::spec::make_itch_schema();
  const auto shares = *schema.resolve_field("shares");
  const auto stock = *schema.resolve_field("stock");
  const auto price = *schema.resolve_field("price");
  camus::workload::FuzzParams params;
  params.seed = seed;
  params.p_stateful = 0;  // fabric scope is stateless-only
  params.max_rules = 6;
  const camus::workload::GrammarFuzzer fuzzer(schema, params);

  FabricSpec spec;
  spec.leaves = leaves;
  spec.spines = spines;

  std::size_t delivered = 0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const auto sample = fuzzer.sample(i);
    auto placed =
        camus::compiler::partition_for_fabric(schema, sample.bound, spec);
    ASSERT_TRUE(placed.ok()) << "sample " << i;
    auto program = camus::compiler::compile_fabric(schema, placed.value());
    ASSERT_TRUE(program.ok()) << "sample " << i;
    auto oracle = camus::compiler::compile_rules(schema, sample.bound);
    ASSERT_TRUE(oracle.ok()) << "sample " << i;

    camus::netsim::FabricTopologyOptions topo;
    topo.spec = spec;
    camus::netsim::Fabric fabric(schema, topo);
    fabric.program(program.value());
    camus::switchsim::Switch mono(schema, oracle.value().pipeline);

    MessageStreams got, want;
    for (std::size_t p = 0; p + 4 <= sample.probes.size(); p += 4) {
      std::vector<camus::proto::ItchAddOrder> msgs;
      for (std::size_t k = p; k < p + 4; ++k) {
        const auto& f = sample.probes[k].fields;
        camus::proto::ItchAddOrder m;
        m.shares = static_cast<std::uint32_t>(f[shares]);
        m.stock = camus::util::decode_symbol(f[stock]);
        m.price = static_cast<std::uint32_t>(f[price]);
        msgs.push_back(std::move(m));
      }
      camus::proto::MoldUdp64Header mold;
      mold.sequence = 1 + p;
      const auto frame = camus::proto::encode_market_data_packet(
          camus::proto::EthernetHeader{}, 1, 2, mold, msgs);
      for (const auto& d : fabric.inject(frame, static_cast<double>(p)))
        append_messages(got, d.leaf, d.port, d.frame);
      const camus::switchsim::Switch::Frame in{frame, p};
      for (const auto& tx : mono.process_batch({&in, 1}))
        append_messages(want, spec.leaf_of(tx.port), tx.port, tx.frame);
    }
    ASSERT_EQ(got, want) << "sample " << i
                         << " diverged from the monolithic process_batch";
    for (const auto& [where, msgs] : want) delivered += msgs.size();
  }
  EXPECT_GT(delivered, 0u);
}

TEST(FabricDifferential, WireTopology1x1) {
  run_wire_differential(1, 1, 11, 12);
}
TEST(FabricDifferential, WireSpinelessSingleLeaf) {
  run_wire_differential(1, 0, 11, 12);
}
TEST(FabricDifferential, WireTopology2x4) {
  run_wire_differential(2, 4, 22, 12);
}
TEST(FabricDifferential, WireTopology4x8) {
  run_wire_differential(4, 8, 33, 12);
}

// --- Cross-switch install -------------------------------------------------

struct FabricPlant {
  camus::spec::Schema schema = camus::spec::make_itch_schema();
  FabricSpec spec;
  camus::netsim::Fabric fabric;
  camus::util::MemStorage storage;
  DurableController ctl;

  explicit FabricPlant(std::size_t leaves = 2, std::size_t spines = 1,
                       camus::compiler::CompileOptions opts = {})
      : spec{leaves, spines},
        fabric(camus::spec::make_itch_schema(), topo_for(leaves, spines)),
        ctl(camus::spec::make_itch_schema(), storage, {leaves, spines},
            opts) {}

  static camus::netsim::FabricTopologyOptions topo_for(std::size_t leaves,
                                                       std::size_t spines) {
    camus::netsim::FabricTopologyOptions topo;
    topo.spec = {leaves, spines};
    return topo;
  }

  std::vector<std::uint64_t> digests() {
    std::vector<std::uint64_t> d;
    for (std::size_t s = 0; s < spec.spines; ++s)
      d.push_back(fabric.spine(s).program_digest());
    for (std::size_t l = 0; l < spec.leaves; ++l)
      d.push_back(fabric.leaf(l).program_digest());
    return d;
  }

  // Every switch runs its program in `ctl`'s intent.
  void expect_runs_intent(const DurableController& ctl) {
    auto intended = ctl.intended();
    ASSERT_TRUE(intended.ok());
    for (std::size_t s = 0; s < spec.spines; ++s)
      EXPECT_EQ(fabric.spine(s).program_digest(),
                intended.value()->spine_digest)
          << "spine " << s;
    for (std::size_t l = 0; l < spec.leaves; ++l)
      EXPECT_EQ(fabric.leaf(l).program_digest(),
                intended.value()->leaf_digests[l])
          << "leaf " << l;
  }
};

TEST(FabricController, StatefulSubscribeRejectedBeforeJournaling) {
  FabricPlant plant;
  ASSERT_TRUE(plant.ctl.open().ok());
  auto sub = plant.ctl.subscribe(
      1, "stock == GOOGL : fwd(1); update(my_counter)");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, "F150");
  EXPECT_EQ(plant.ctl.subscription_count(), 0u);
}

TEST(FabricController, InstallCommitsEverySwitchAndMatchesIntent) {
  FabricPlant plant(2, 2);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT and price > 100").ok());
  ASSERT_TRUE(plant.ctl.subscribe(3, "shares > 500").ok());
  auto delta = plant.ctl.commit();
  ASSERT_TRUE(delta.ok());
  auto rep = plant.ctl.install(plant.fabric.targets(), delta.value());
  ASSERT_TRUE(rep.ok()) << rep.error().to_string();
  EXPECT_TRUE(rep.value().committed);
  EXPECT_EQ(rep.value().committed_switches, 4u);
  plant.expect_runs_intent(plant.ctl);
}

TEST(FabricController, PartitionedSwitchAbortsAllOrNothing) {
  FabricPlant plant(2, 1);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  auto delta = plant.ctl.commit();
  ASSERT_TRUE(delta.ok());

  const auto before = plant.digests();
  camus::fault::FaultSpec dead;
  dead.drop = 1.0;
  const camus::fault::Plan plan(dead, 7);
  // Kill the channel to the LAST switch: the others have already staged.
  auto rep =
      plant.ctl.install(plant.fabric.targets(), delta.value(), &plan, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep.value().committed);
  EXPECT_TRUE(rep.value().all_or_nothing_abort);
  EXPECT_EQ(rep.value().committed_switches, 0u);
  EXPECT_EQ(plant.digests(), before);  // ZERO switches modified

  // The journaled commit remains the intent; a clean reconcile converges.
  auto rec = plant.ctl.reconcile(plant.fabric.targets());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_TRUE(rec.value().converged);
}

// A delta that no longer fits one switch fails at stage, before any switch
// flips: the installers hold no copy of the program, so a leaf wiped
// behind its installer stages against what it really runs.
TEST(FabricController, DeltaThatCannotLandOnALeafTouchesNoSwitch) {
  camus::compiler::CompileOptions opts;
  opts.order = camus::bdd::OrderHeuristic::kExactFirst;
  FabricPlant plant(2, 2, opts);
  ASSERT_TRUE(plant.ctl.open().ok());
  camus::util::Rng rng(7);
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(plant.ctl
                    .subscribe(static_cast<std::uint16_t>(rng.uniform(0, 7)),
                               "stock == SYM" +
                                   std::to_string(rng.uniform(0, 5)) +
                                   " and price > " +
                                   std::to_string(rng.uniform(1, 99) * 100))
                    .ok());
  auto base = plant.ctl.commit();
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  auto based = plant.ctl.install(plant.fabric.targets(), base.value());
  ASSERT_TRUE(based.ok());
  ASSERT_TRUE(based.value().committed) << based.value().error;

  // A symbol new to leaf 1 (port 11): entry ops for both spines and for
  // leaf 1, the last switch the install touches.
  ASSERT_TRUE(plant.ctl.subscribe(11, "stock == ZZZZ and price > 777").ok());
  auto next = plant.ctl.commit();
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  ASSERT_EQ(next.value().touched(2), (std::vector<std::size_t>{0, 1, 3}));
  ASSERT_FALSE(next.value().spine.requires_reprogram);
  ASSERT_FALSE(next.value().leaves[1].requires_reprogram);

  // Leaf 1 loses its program behind its installer, as fault::Injector and
  // Fabric::program write.
  plant.fabric.leaf(1).reprogram(camus::table::Pipeline{});
  auto versions = [&] {
    return std::vector<std::uint64_t>{
        plant.fabric.spine(0).program_version(),
        plant.fabric.spine(1).program_version(),
        plant.fabric.leaf(0).program_version(),
        plant.fabric.leaf(1).program_version()};
  };
  const auto before = versions();

  auto rep = plant.ctl.install(plant.fabric.targets(), next.value());
  ASSERT_TRUE(rep.ok()) << rep.error().to_string();
  EXPECT_FALSE(rep.value().committed);
  EXPECT_TRUE(rep.value().all_or_nothing_abort) << rep.value().error;
  EXPECT_EQ(rep.value().committed_switches, 0u);
  EXPECT_EQ(rep.value().rolled_back, 0u);
  EXPECT_EQ(versions(), before);  // no switch flipped, none rolled back

  // The journaled commit remains the intent; reconcile converges.
  auto rec = plant.ctl.reconcile(plant.fabric.targets());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_TRUE(rec.value().converged) << rec.value().error;
  plant.expect_runs_intent(plant.ctl);
}

TEST(FabricController, CrashBetweenCommitsRecoversToConvergence) {
  FabricPlant plant(2, 1);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  auto delta = plant.ctl.commit();
  ASSERT_TRUE(delta.ok());

  // Die after exactly one per-switch commit: fabric left mixed.
  plant.ctl.set_crash_after_commits(1);
  auto rep = plant.ctl.install(plant.fabric.targets(), delta.value());
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep.value().crashed_mid_commit);
  EXPECT_FALSE(rep.value().committed);
  EXPECT_EQ(rep.value().committed_switches, 1u);

  // A successor on the same journal resolves the in-flight install and
  // repairs every switch to the journaled intent.
  DurableController successor(plant.schema, plant.storage, plant.spec);
  auto info = successor.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().install_in_flight);
  EXPECT_GT(successor.epoch(), rep.value().epoch);
  auto rec = successor.reconcile(plant.fabric.targets());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_TRUE(rec.value().converged);
  EXPECT_GE(rec.value().repaired, 1u);
  plant.expect_runs_intent(successor);
}

// The lint gate is all or nothing across nodes too: a leaf program the
// verifier rejects commits no node, and nothing is journaled.
TEST(FabricController, LintRejectCommitsNoNode) {
  FabricPlant plant(2, 2);
  ASSERT_TRUE(plant.ctl.open().ok());
  plant.ctl.set_lint_policy(camus::pubsub::LintPolicy::kReject);
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  auto first = plant.ctl.commit();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_TRUE(plant.ctl.install(plant.fabric.targets(), first.value())
                  .value()
                  .committed);
  const auto installed = plant.digests();
  const std::uint64_t intent = plant.ctl.intended().value()->fabric_digest;

  // A new symbol on leaf 0 changes the spines and leaf 0; an unsatisfiable
  // rule on leaf 1 is an S001 error.
  ASSERT_TRUE(plant.ctl.subscribe(2, "stock == AAPL").ok());
  ASSERT_TRUE(
      plant.ctl.subscribe(3, "stock == MSFT and shares < 10 and shares > 20")
          .ok());
  const std::string journal = plant.storage.load().value();
  auto failed = plant.ctl.commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.error().message.find("S001"), std::string::npos);
  EXPECT_NE(failed.error().message.find("leaf 1"), std::string::npos);
  EXPECT_EQ(plant.ctl.commit_seq(), 1u);
  EXPECT_EQ(plant.ctl.intended().value()->fabric_digest, intent);
  EXPECT_EQ(plant.storage.load().value(), journal);
  EXPECT_EQ(plant.digests(), installed);

  // Without the rejected rule the commit goes through and still ships both
  // spines and leaf 0.
  ASSERT_EQ(plant.ctl.unsubscribe(3).value(), 1u);
  auto next = plant.ctl.commit();
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  EXPECT_EQ(next.value().touched(2), (std::vector<std::size_t>{0, 1, 2}));
  auto rep = plant.ctl.install(plant.fabric.targets(), next.value());
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().committed) << rep.value().error;
  plant.expect_runs_intent(plant.ctl);
  EXPECT_EQ(plant.digests()[3], installed[3]);
}

// A commit is all or nothing across nodes: when a leaf fails to compile
// after the spine and an earlier leaf compiled, none of them counts as
// committed, so the next commit ships all three.
TEST(FabricController, FailedLeafCompileCommitsNoNode) {
  camus::compiler::CompileOptions opts;
  opts.max_paths_per_component = 40;
  FabricPlant plant(2, 1, opts);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  auto first = plant.ctl.commit();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_TRUE(plant.ctl.install(plant.fabric.targets(), first.value())
                  .value()
                  .committed);
  const auto installed = plant.digests();
  const std::uint64_t intent = plant.ctl.intended().value()->fabric_digest;

  // A new symbol on leaf 0 changes the spine and leaf 0; forty price
  // thresholds on an already-steered symbol, each to its own leaf-1 port,
  // blow leaf 1's path budget.
  ASSERT_TRUE(plant.ctl.subscribe(2, "stock == AAPL").ok());
  auto threshold_port = [](int k) {
    return static_cast<std::uint16_t>(3 + 2 * k);
  };
  for (int k = 0; k < 40; ++k)
    ASSERT_TRUE(plant.ctl
                    .subscribe(threshold_port(k),
                               "stock == MSFT and price > " +
                                   std::to_string((k + 1) * 100))
                    .ok());
  auto failed = plant.ctl.commit();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "E130");
  EXPECT_EQ(plant.ctl.commit_seq(), 1u);
  EXPECT_EQ(plant.ctl.intended().value()->fabric_digest, intent);

  // Without the budget-breaking rules the commit goes through and still
  // ships the spine and leaf 0.
  for (int k = 0; k < 40; ++k)
    ASSERT_EQ(plant.ctl.unsubscribe(threshold_port(k)).value(), 1u);
  auto next = plant.ctl.commit();
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  EXPECT_EQ(next.value().touched(1), (std::vector<std::size_t>{0, 1}));
  auto rep = plant.ctl.install(plant.fabric.targets(), next.value());
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().committed) << rep.value().error;
  EXPECT_NE(plant.ctl.intended().value()->fabric_digest, intent);
  plant.expect_runs_intent(plant.ctl);
  EXPECT_NE(plant.digests()[0], installed[0]);
  EXPECT_NE(plant.digests()[1], installed[1]);
  EXPECT_EQ(plant.digests()[2], installed[2]);
}

// Churn on a 2-spine x 8-leaf fabric ships per-switch deltas: one new
// subscription changes only its own leaf's program, plus the steering
// program every spine shares when that leaf's steering set grew.
TEST(FabricController, ChurnShipsOpsOnlyToTouchedSwitches) {
  constexpr std::size_t kLeaves = 8;
  constexpr std::size_t kSpines = 2;
  constexpr std::size_t kLeaf = 3;
  constexpr std::uint16_t kPort = 11;  // leaf_of(11) == 3
  // Exact-match field first (as the churn and recovery benches): a new
  // symbol then grows each automaton at its edge.
  camus::compiler::CompileOptions opts;
  opts.order = camus::bdd::OrderHeuristic::kExactFirst;
  FabricPlant plant(kLeaves, kSpines, opts);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_EQ(plant.spec.leaf_of(kPort), kLeaf);

  std::vector<std::string> texts;  // every live rule, action included
  auto subscribe = [&](std::uint16_t port, const std::string& cond) {
    const std::string text = cond + " : fwd(" + std::to_string(port) + ")";
    EXPECT_TRUE(plant.ctl.subscribe(port, text).ok()) << text;
    texts.push_back(text);
  };
  // Seeded base: per-symbol price filters on 32 ports (every leaf
  // populated), SYM3 among them on leaf 3.
  subscribe(3, "stock == SYM3 and price > 100");
  camus::util::Rng rng(2028);
  for (int i = 0; i < 64; ++i)
    subscribe(static_cast<std::uint16_t>(rng.uniform(0, 31)),
              "stock == SYM" + std::to_string(rng.uniform(0, 15)) +
                  " and price > " + std::to_string(rng.uniform(1, 400) * 100));
  auto base = plant.ctl.commit();
  ASSERT_TRUE(base.ok());
  auto based = plant.ctl.install(plant.fabric.targets(), base.value());
  ASSERT_TRUE(based.ok());
  ASSERT_TRUE(based.value().committed) << based.value().error;

  const std::size_t leaf_switch = kSpines + kLeaf;  // flat index
  auto expect_shipped_to = [&](const camus::pubsub::FabricInstallReport& rep,
                               const std::vector<std::size_t>& to) {
    ASSERT_EQ(rep.reports.size(), kSpines + kLeaves);
    for (std::size_t i = 0; i < rep.reports.size(); ++i) {
      const bool shipped = std::find(to.begin(), to.end(), i) != to.end();
      EXPECT_EQ(rep.reports[i].chunks > 0, shipped) << "switch " << i;
      if (shipped) {
        EXPECT_GT(rep.reports[i].ops, 0u) << "switch " << i;
      }
    }
  };

  // A symbol the spines already steer to leaf 3: leaf 3 gets ops, the
  // other 9 switches get nothing.
  subscribe(kPort, "stock == SYM3 and price > 4321");
  auto steered = plant.ctl.commit();
  ASSERT_TRUE(steered.ok());
  EXPECT_EQ(steered.value().touched(kSpines),
            std::vector<std::size_t>{leaf_switch});
  EXPECT_FALSE(steered.value().leaves[kLeaf].requires_reprogram);
  auto r1 = plant.ctl.install(plant.fabric.targets(), steered.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1.value().committed) << r1.value().error;
  EXPECT_EQ(r1.value().committed_switches, 1u);
  expect_shipped_to(r1.value(), {leaf_switch});

  // A symbol new to leaf 3: the spines' steering changes too — as ops, not
  // a re-image — and the other leaves still get nothing.
  subscribe(kPort, "stock == ZZZZ and price > 777");
  auto fresh = plant.ctl.commit();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().touched(kSpines),
            (std::vector<std::size_t>{0, 1, leaf_switch}));
  EXPECT_FALSE(fresh.value().spine.requires_reprogram);
  EXPECT_FALSE(fresh.value().leaves[kLeaf].requires_reprogram);
  auto r2 = plant.ctl.install(plant.fabric.targets(), fresh.value());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2.value().committed) << r2.value().error;
  EXPECT_EQ(r2.value().committed_switches, 3u);
  expect_shipped_to(r2.value(), {0, 1, leaf_switch});
  RecordProperty("steered_leaf_ops",
                 static_cast<int>(r1.value().reports[leaf_switch].ops));
  RecordProperty("new_symbol_spine_ops",
                 static_cast<int>(r2.value().reports[0].ops));
  RecordProperty("new_symbol_leaf_ops",
                 static_cast<int>(r2.value().reports[leaf_switch].ops));

  // Every switch runs its intent, and delivery equals the monolithic
  // oracle's.
  plant.expect_runs_intent(plant.ctl);

  std::vector<camus::lang::BoundRule> rules_;
  for (const std::string& t : texts) rules_.push_back(rule(t));
  auto oracle = camus::compiler::compile_rules(plant.schema, rules_);
  ASSERT_TRUE(oracle.ok());
  std::size_t delivered = 0;
  for (int k = 0; k <= 16; ++k) {
    const std::string symbol = k == 16 ? "ZZZZ" : "SYM" + std::to_string(k);
    for (const std::uint64_t price :
         {0ull, 100ull, 777ull, 778ull, 4322ull, 20001ull, 40001ull}) {
      camus::lang::Env env;
      env.fields = {100, sym(symbol), price};
      env.states.assign(plant.schema.state_vars().size(), 0);
      const auto got = plant.fabric.deliver_env(env.fields);
      EXPECT_EQ(got, oracle_delivery(oracle.value().pipeline, plant.spec, env))
          << symbol << " @ " << price;
      delivered += got.size();
    }
  }
  EXPECT_GT(delivered, 0u);
}

// --- Nemesis campaign -----------------------------------------------------

camus::fault::NemesisOptions fabric_nemesis_2x2() {
  camus::fault::NemesisOptions opts;
  opts.spines = 2;
  opts.leaves = 2;
  return opts;
}

TEST(FabricNemesis, CampaignHoldsAllInvariants) {
  camus::fault::NemesisOptions opts = fabric_nemesis_2x2();
  opts.seed = 42;
  opts.scenarios = 100;
  const auto stats = camus::fault::run_nemesis(opts);
  EXPECT_EQ(stats.scenarios, 100u);
  EXPECT_GT(stats.commits, 0u);
  EXPECT_GT(stats.installs, 0u);
  // Atomicity: every partitioned install aborted with zero switches
  // modified; fencing: every stale write bounced.
  EXPECT_EQ(stats.all_or_nothing_aborts, stats.partitions);
  EXPECT_EQ(stats.stale_rejected, stats.stale_writes);
  for (const auto& v : stats.violation_details) ADD_FAILURE() << v;
  EXPECT_EQ(stats.violations, 0u);
}

TEST(FabricNemesis, CampaignIsDeterministic) {
  camus::fault::NemesisOptions opts = fabric_nemesis_2x2();
  opts.seed = 7;
  opts.scenarios = 20;
  const auto a = camus::fault::run_nemesis(opts);
  const auto b = camus::fault::run_nemesis(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.violations, 0u);
}

}  // namespace
