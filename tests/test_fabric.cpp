// Multi-switch fabric: placement derivation, the four-obligation
// equivalence proof (with a corrupted-steering negative producing a
// concrete counterexample), the all-or-nothing cross-switch install, the
// fuzzer-driven differential suite (fabric delivery ≡ single-switch
// oracle per (leaf, port) across topologies, at the Env level and for
// wire frames), and the fabric nemesis campaign's invariants +
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/fabric.hpp"
#include "fault/fabric_nemesis.hpp"
#include "fault/plan.hpp"
#include "lang/bound.hpp"
#include "lang/parser.hpp"
#include "netsim/fabric.hpp"
#include "proto/packet.hpp"
#include "pubsub/fabric.hpp"
#include "spec/itch_spec.hpp"
#include "table/delta.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "verify/fabric.hpp"
#include "workload/fuzz.hpp"

namespace {

using camus::compiler::FabricSpec;
using camus::pubsub::FabricController;

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
  FabricSpec spec;
  spec.leaves = 4;
  spec.spines = 2;
  auto placed = camus::compiler::partition_for_fabric(schema, rules_, spec);
  ASSERT_TRUE(placed.ok());
  auto program = camus::compiler::compile_fabric(schema, placed.value());
  ASSERT_TRUE(program.ok()) << program.error().to_string();

  const auto res = camus::verify::check_fabric_equivalence(
      schema, rules_, placed.value(), program.value());
  EXPECT_TRUE(res.proven()) << res.failed_check << ": " << res.detail;
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
  corrupted.spine.finalize();
  const auto res = camus::verify::check_fabric_equivalence(
      schema, rules_, placed.value(), corrupted);
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(res.equivalent);
  EXPECT_EQ(res.failed_check, "spine-program");
}

// --- Differential suite: fabric ≡ single-switch oracle --------------------

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
      const auto& want_set = oracle.value().pipeline.evaluate_actions(env);
      std::vector<std::pair<std::size_t, std::uint16_t>> want;
      for (const std::uint16_t p : want_set.ports)
        want.emplace_back(spec.leaf_of(p), p);
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      ASSERT_EQ(got, want) << "sample " << i << " diverged from the oracle";
    }
  }
}

TEST(FabricDifferential, TrivialTopology1x1) { run_differential(1, 1, 11, 12); }
TEST(FabricDifferential, Topology2x4) { run_differential(2, 4, 22, 12); }
TEST(FabricDifferential, Topology4x8) { run_differential(4, 8, 33, 12); }

// Per-(leaf, port) message streams, each message as its ITCH wire bytes.
using MessageStreams =
    std::map<std::pair<std::size_t, std::uint16_t>,
             std::vector<std::vector<std::uint8_t>>>;

void append_messages(MessageStreams& streams, std::size_t leaf,
                     std::uint16_t port,
                     const std::vector<std::uint8_t>& frame) {
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
  FabricController ctl;

  explicit FabricPlant(std::size_t leaves = 2, std::size_t spines = 1)
      : spec{leaves, spines},
        fabric(camus::spec::make_itch_schema(), topo_for(leaves, spines)),
        ctl(camus::spec::make_itch_schema(), storage, {leaves, spines}) {}

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
  ASSERT_TRUE(plant.ctl.commit().ok());
  auto rep = plant.ctl.install(plant.fabric.targets());
  ASSERT_TRUE(rep.ok()) << rep.error().to_string();
  EXPECT_TRUE(rep.value().committed);
  EXPECT_EQ(rep.value().committed_switches, 4u);

  auto intended = plant.ctl.intended();
  ASSERT_TRUE(intended.ok());
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_EQ(plant.fabric.spine(s).program_digest(),
              intended.value()->spine_digest);
  for (std::size_t l = 0; l < 2; ++l)
    EXPECT_EQ(plant.fabric.leaf(l).program_digest(),
              intended.value()->leaf_digests[l]);
}

TEST(FabricController, PartitionedSwitchAbortsAllOrNothing) {
  FabricPlant plant(2, 1);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  ASSERT_TRUE(plant.ctl.commit().ok());

  const auto before = plant.digests();
  camus::fault::FaultSpec dead;
  dead.drop = 1.0;
  const camus::fault::Plan plan(dead, 7);
  // Kill the channel to the LAST switch: the others have already staged.
  auto rep = plant.ctl.install(plant.fabric.targets(), &plan, 2);
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

TEST(FabricController, CrashBetweenCommitsRecoversToConvergence) {
  FabricPlant plant(2, 1);
  ASSERT_TRUE(plant.ctl.open().ok());
  ASSERT_TRUE(plant.ctl.subscribe(0, "stock == GOOGL").ok());
  ASSERT_TRUE(plant.ctl.subscribe(1, "stock == MSFT").ok());
  ASSERT_TRUE(plant.ctl.commit().ok());

  // Die after exactly one per-switch commit: fabric left mixed.
  plant.ctl.set_crash_after_commits(1);
  auto rep = plant.ctl.install(plant.fabric.targets());
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep.value().crashed_mid_commit);
  EXPECT_FALSE(rep.value().committed);
  EXPECT_EQ(rep.value().committed_switches, 1u);

  // A successor on the same journal resolves the in-flight install and
  // repairs every switch to the journaled intent.
  FabricController successor(plant.schema, plant.storage, plant.spec);
  auto info = successor.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().install_in_flight);
  EXPECT_GT(successor.epoch(), rep.value().epoch);
  auto rec = successor.reconcile(plant.fabric.targets());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_TRUE(rec.value().converged);
  EXPECT_GE(rec.value().repaired, 1u);

  auto intended = successor.intended();
  ASSERT_TRUE(intended.ok());
  EXPECT_EQ(plant.fabric.spine(0).program_digest(),
            intended.value()->spine_digest);
  for (std::size_t l = 0; l < 2; ++l)
    EXPECT_EQ(plant.fabric.leaf(l).program_digest(),
              intended.value()->leaf_digests[l]);
}

// --- Nemesis campaign -----------------------------------------------------

TEST(FabricNemesis, CampaignHoldsAllInvariants) {
  camus::fault::FabricNemesisOptions opts;
  opts.seed = 42;
  opts.scenarios = 100;
  const auto stats = camus::fault::run_fabric_nemesis(opts);
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
  camus::fault::FabricNemesisOptions opts;
  opts.seed = 7;
  opts.scenarios = 20;
  const auto a = camus::fault::run_fabric_nemesis(opts);
  const auto b = camus::fault::run_fabric_nemesis(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.violations, 0u);
}

}  // namespace
