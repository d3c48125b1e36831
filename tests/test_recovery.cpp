// Crash-safe control plane on the single switch (the 0-spine x 1-leaf
// topology): DurableController recovery fidelity, epoch fencing, warm-boot
// reconciliation, the exhaustive crash-point sweep (every journal record
// boundary of a 200-commit churn run), and the nemesis harness's
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fault/nemesis.hpp"
#include "fault/plan.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace {

using camus::pubsub::DurableController;
using camus::pubsub::TwoPhaseInstaller;
using camus::util::Journal;
using camus::util::MemStorage;
using camus::util::RecordType;

const std::vector<std::string>& symbols() {
  static const std::vector<std::string> syms = {"GOOGL", "MSFT", "AAPL",
                                                "AMZN",  "NVDA", "IBM"};
  return syms;
}

std::string gen_rule(camus::util::Rng& rng) {
  switch (rng.uniform(0, 2)) {
    case 0:
      return "stock == " + rng.pick(symbols());
    case 1:
      return "stock == " + rng.pick(symbols()) + " and price > " +
             std::to_string(rng.uniform(1, 400) * 100);
    default:
      return "shares > " + std::to_string(rng.uniform(1, 900));
  }
}

camus::lang::Env probe_env(camus::util::Rng& rng) {
  camus::lang::Env env;
  env.fields = {rng.uniform(0, 2500),
                camus::util::encode_symbol(rng.pick(symbols())),
                rng.uniform(0, 60000)};
  env.states = {0, 0};
  return env;
}

// The single switch's intended program: leaf 0 of the 0x1 topology.
const camus::table::Pipeline& intended_program(const DurableController& ctl) {
  return ctl.intended().value()->leaves[0];
}
std::uint64_t intended_digest(const DurableController& ctl) {
  return ctl.intended().value()->leaf_digests[0];
}

struct Plant {
  camus::spec::Schema schema = camus::spec::make_itch_schema();
  camus::switchsim::Switch sw{camus::spec::make_itch_schema(),
                              camus::table::Pipeline{}};
  TwoPhaseInstaller installer{sw};
};

// --- DurableController basics --------------------------------------------

TEST(DurableController, MutationsBeforeOpenAreE142) {
  MemStorage st;
  DurableController ctl(camus::spec::make_itch_schema(), st);
  EXPECT_EQ(ctl.subscribe(1, "stock == IBM").error().code, "E142");
  EXPECT_EQ(ctl.unsubscribe(1).error().code, "E142");
  EXPECT_EQ(ctl.commit().error().code, "E142");
  EXPECT_EQ(ctl.checkpoint().error().code, "E142");
}

TEST(DurableController, FreshOpenAdoptsEpochOne) {
  MemStorage st;
  DurableController ctl(camus::spec::make_itch_schema(), st);
  auto info = ctl.open();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().recovered);
  EXPECT_EQ(ctl.epoch(), 1u);
  EXPECT_EQ(ctl.subscription_count(), 0u);
}

TEST(DurableController, SubscribeCommitInstallLands) {
  MemStorage st;
  Plant plant;
  DurableController ctl(plant.schema, st);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(3, "stock == IBM", 1).value());
  ASSERT_TRUE(ctl.subscribe(4, "price > 5000 : fwd(4)").value());
  auto delta = ctl.commit();
  ASSERT_TRUE(delta.ok());

  auto report = ctl.install(plant.installer, delta.value());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().committed) << report.value().error;
  EXPECT_EQ(report.value().epoch, ctl.epoch());
  EXPECT_EQ(plant.sw.program_digest(),
            intended_digest(ctl));
}

TEST(DurableController, UnsubscribeRemovesOnlySinglePortRules) {
  MemStorage st;
  DurableController ctl(camus::spec::make_itch_schema(), st);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(3, "stock == IBM").value());
  ASSERT_TRUE(ctl.subscribe(3, "price > 100").value());
  ASSERT_TRUE(ctl.subscribe(5, "stock == MSFT").value());
  EXPECT_EQ(ctl.unsubscribe(3).value(), 2u);
  EXPECT_EQ(ctl.subscription_count(), 1u);
  EXPECT_EQ(ctl.unsubscribe(3).value(), 0u);
}

// The journal stores one rule per line, so a rule text with a line break
// would come back truncated on replay and fail every later open(), on
// exact replay and after a checkpoint alike. Such text is rejected before
// it is journaled.
TEST(DurableController, MultiLineRuleRejectedBeforeJournaling) {
  const auto schema = camus::spec::make_itch_schema();
  for (const char* text : {"stock == GOOGL\n", "stock == GOOGL\nand price > 5",
                           "stock == GOOGL :\nfwd(2)"}) {
    for (const bool checkpoint : {false, true}) {
      MemStorage st;
      {
        DurableController ctl(schema, st);
        ASSERT_TRUE(ctl.open().ok());
        ASSERT_TRUE(ctl.subscribe(1, "stock == IBM").ok());
        const std::string journal = st.load().value();
        auto rejected = ctl.subscribe(2, text);
        ASSERT_FALSE(rejected.ok()) << text;
        EXPECT_EQ(rejected.error().code, "E143");
        EXPECT_EQ(st.load().value(), journal);
        EXPECT_EQ(ctl.subscription_count(), 1u);
        ASSERT_TRUE(ctl.commit().ok());
        if (checkpoint) {
          ASSERT_TRUE(ctl.checkpoint().ok());
        }
      }
      DurableController ctl(schema, st);
      auto info = ctl.open();
      ASSERT_TRUE(info.ok()) << info.error().to_string();
      EXPECT_EQ(ctl.subscription_count(), 1u);
    }
  }
}

// --- Exact-replay recovery -----------------------------------------------

TEST(Recovery, ExactReplayIsBitIdentical) {
  MemStorage st;
  const auto schema = camus::spec::make_itch_schema();
  camus::util::Rng rng(42);

  std::uint64_t pre_crash_digest = 0;
  {
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          ctl.subscribe(static_cast<std::uint16_t>(1 + i % 7), gen_rule(rng))
              .ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(ctl.commit().ok());
      }
    }
    ASSERT_TRUE(ctl.commit().ok());
    pre_crash_digest = intended_digest(ctl);
  }  // controller dies; storage survives

  st.crash();
  DurableController recovered(schema, st);
  auto info = recovered.open();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().recovered);
  EXPECT_FALSE(info.value().from_snapshot);
  EXPECT_EQ(info.value().digest_mismatches, 0u);
  EXPECT_EQ(recovered.subscription_count(), 30u);
  // Deterministic compiler + full op history => bit-identical pipeline.
  EXPECT_EQ(intended_digest(recovered),
            pre_crash_digest);
}

TEST(Recovery, EpochIncreasesAcrossEveryRestart) {
  MemStorage st;
  const auto schema = camus::spec::make_itch_schema();
  std::uint64_t last = 0;
  for (int run = 0; run < 4; ++run) {
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    EXPECT_GT(ctl.epoch(), last);
    last = ctl.epoch();
    st.crash();
  }
}

// --- Epoch fencing --------------------------------------------------------

TEST(Fencing, StaleEpochWritesBounce) {
  Plant plant;
  ASSERT_TRUE(plant.sw.fence(5).ok());

  // A deposed controller (epoch 3) tries to reprogram and patch: both
  // stage, and both commits bounce.
  const std::uint64_t version = plant.sw.program_version();
  auto reprogram =
      plant.sw.commit(plant.sw.stage(camus::table::Pipeline{}), 3);
  ASSERT_FALSE(reprogram.ok());
  EXPECT_EQ(reprogram.error().code, "E140");
  auto staged_patch = plant.sw.stage(std::span<const camus::table::EntryOp>{});
  ASSERT_TRUE(staged_patch.ok());
  auto patch = plant.sw.commit(staged_patch.value(), 3);
  ASSERT_FALSE(patch.ok());
  EXPECT_EQ(patch.error().code, "E140");
  EXPECT_EQ(plant.sw.program_version(), version);  // nothing landed
  EXPECT_EQ(plant.sw.stale_epoch_rejects(), 2u);

  // The rightful epoch (and any later one) still writes.
  EXPECT_TRUE(
      plant.sw.commit(plant.sw.stage(camus::table::Pipeline{}), 5).ok());
  EXPECT_TRUE(
      plant.sw.commit(plant.sw.stage(camus::table::Pipeline{}), 9).ok());
  EXPECT_EQ(plant.sw.fence_epoch(), 9u);
}

TEST(Fencing, FenceRegressionIsE141) {
  Plant plant;
  ASSERT_TRUE(plant.sw.fence(7).ok());
  auto back = plant.sw.fence(6);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, "E141");
  EXPECT_EQ(plant.sw.fence_epoch(), 7u);
  EXPECT_TRUE(plant.sw.fence(7).ok());  // idempotent re-fence
}

TEST(Fencing, DeposedControllerCannotClobberSuccessor) {
  MemStorage st;
  Plant plant;
  const auto schema = camus::spec::make_itch_schema();

  DurableController old_ctl(schema, st);
  ASSERT_TRUE(old_ctl.open().ok());
  ASSERT_TRUE(old_ctl.subscribe(2, "stock == IBM").ok());
  auto d = old_ctl.commit();
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(old_ctl.install(plant.installer, d.value()).value().committed);
  const std::uint64_t old_epoch = old_ctl.epoch();

  // Crash; a successor recovers and fences the switch.
  st.crash();
  DurableController new_ctl(schema, st);
  ASSERT_TRUE(new_ctl.open().ok());
  ASSERT_GT(new_ctl.epoch(), old_epoch);
  ASSERT_TRUE(new_ctl.reconcile(plant.installer).ok());

  // The deposed controller's straggler write must bounce.
  const std::uint64_t digest = plant.sw.program_digest();
  auto stale =
      plant.sw.commit(plant.sw.stage(camus::table::Pipeline{}), old_epoch);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, "E140");
  EXPECT_EQ(plant.sw.program_digest(), digest);
}

// --- Faulty-channel installs ---------------------------------------------

TEST(ChunkCampaign, DuplicationAndReorderStillLand) {
  MemStorage st;
  Plant plant;
  DurableController ctl(plant.schema, st);
  ASSERT_TRUE(ctl.open().ok());
  camus::util::Rng rng(99);
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i % 5), gen_rule(rng))
            .ok());
  auto delta = ctl.commit();
  ASSERT_TRUE(delta.ok());

  camus::fault::FaultSpec spec;
  spec.duplicate = 0.25;
  spec.reorder = 0.25;
  spec.drop = 0.05;
  spec.corrupt = 0.10;
  const camus::fault::Plan plan(spec, 1234);
  auto report = ctl.install(plant.installer, delta.value(), &plan,
                            /*fault_switch=*/-1, /*chunk_bytes=*/64);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().committed) << report.value().error;
  // The campaign must actually have exercised the hardening paths.
  const camus::pubsub::InstallReport& sw_report = report.value().reports[0];
  EXPECT_GT(sw_report.chunk_dup_rejects + sw_report.chunk_reordered, 0u);
  EXPECT_GT(sw_report.chunk_crc_rejects, 0u);
  EXPECT_EQ(plant.sw.program_digest(),
            intended_digest(ctl));
}

TEST(ChunkCampaign, TotalPartitionAbortsCleanly) {
  MemStorage st;
  Plant plant;
  DurableController ctl(plant.schema, st);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(2, "stock == IBM").ok());
  auto d1 = ctl.commit();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(ctl.install(plant.installer, d1.value()).value().committed);
  const std::uint64_t good = plant.sw.program_digest();

  ASSERT_TRUE(ctl.subscribe(3, "price > 100").ok());
  auto d2 = ctl.commit();
  ASSERT_TRUE(d2.ok());
  camus::fault::FaultSpec dead;
  dead.drop = 1.0;
  const camus::fault::Plan plan(dead, 1);
  auto report = ctl.install(plant.installer, d2.value(), &plan);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().committed);
  EXPECT_EQ(plant.sw.program_digest(), good);  // last-good kept

  // Healed channel: reconcile ships the missed update.
  auto rec = ctl.reconcile(plant.installer);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().repaired, 1u);
  EXPECT_EQ(plant.sw.program_digest(), intended_digest(ctl));
}

// --- Warm-boot reconciliation --------------------------------------------

TEST(Reconcile, InSyncSwitchIsUntouched) {
  MemStorage st;
  Plant plant;
  DurableController ctl(plant.schema, st);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(2, "stock == IBM").ok());
  auto d = ctl.commit();
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(ctl.install(plant.installer, d.value()).value().committed);

  const std::uint64_t version = plant.sw.program_version();
  auto rec = ctl.reconcile(plant.installer);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().in_sync, 1u);
  EXPECT_EQ(rec.value().diverged_stages, 0u);
  EXPECT_EQ(plant.sw.program_version(), version);  // zero writes shipped
}

TEST(Reconcile, RebootedSwitchIsReimaged) {
  MemStorage st;
  const auto schema = camus::spec::make_itch_schema();
  DurableController ctl(schema, st);
  ASSERT_TRUE(ctl.open().ok());
  camus::util::Rng rng(5);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i), gen_rule(rng)).ok());
  auto d = ctl.commit();
  ASSERT_TRUE(d.ok());
  Plant before;
  ASSERT_TRUE(ctl.install(before.installer, d.value()).value().committed);

  // Cold-booted replacement switch: empty program.
  Plant after;
  auto rec = ctl.reconcile(after.installer);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().in_sync, 0u);
  EXPECT_EQ(rec.value().repaired, 1u);
  EXPECT_EQ(rec.value().full_reprograms, 1u);
  EXPECT_EQ(after.sw.program_digest(), intended_digest(ctl));
}

TEST(Reconcile, RepairDeltaIsMinimal) {
  // A switch that missed ONE install gets entry ops, not a re-image, and
  // reuse accounting reflects the untouched entries.
  MemStorage st;
  Plant plant;
  // Exact-match field first (as in Incremental.SmallChangeSmallDelta): a
  // new-symbol subscription then only touches its own branch, so the
  // repair really is a sliver of the program.
  camus::compiler::CompileOptions opts;
  opts.order = camus::bdd::OrderHeuristic::kExactFirst;
  DurableController ctl(plant.schema, st,
                        camus::compiler::FabricSpec::single_switch(), opts);
  ASSERT_TRUE(ctl.open().ok());
  // An ITCH-style base load: per-symbol price filters, where one more
  // symbol grows the automaton at the edge instead of restructuring it.
  camus::util::Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    const std::string rule = "stock == SYM" + std::to_string(i % 40) +
                             " and price > " +
                             std::to_string(rng.uniform(1, 400) * 100);
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i % 6), rule).ok());
  }
  auto d1 = ctl.commit();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(ctl.install(plant.installer, d1.value()).value().committed);

  // One more subscription — a brand-new symbol — commits, but the install
  // is lost to a partition.
  ASSERT_TRUE(ctl.subscribe(9, "stock == ZZZZ and price > 777").ok());
  auto d2 = ctl.commit();
  ASSERT_TRUE(d2.ok());
  camus::fault::FaultSpec dead;
  dead.drop = 1.0;
  const camus::fault::Plan plan(dead, 2);
  ASSERT_FALSE(
      ctl.install(plant.installer, d2.value(), &plan).value().committed);

  auto rec = ctl.reconcile(plant.installer);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().repaired, 1u);
  EXPECT_EQ(rec.value().full_reprograms, 0u);
  EXPECT_GT(rec.value().repair_ops, 0u);
  // The repair is a delta: most of the program was already in place.
  EXPECT_GE(rec.value().reuse_fraction(), 0.5);
  EXPECT_EQ(plant.sw.program_digest(),
            intended_digest(ctl));
}

// --- Half-staged installs -------------------------------------------------

TEST(Recovery, CrashMidInstallResolvesBothWorlds) {
  // A crash between kInstallBegin and kInstallCommit leaves two possible
  // switch states: the commit landed, or it didn't. Recovery + reconcile
  // must converge from EITHER without knowing which.
  const auto schema = camus::spec::make_itch_schema();
  for (const bool commit_landed : {false, true}) {
    MemStorage st;
    Plant plant;
    std::uint64_t want_digest = 0;
    {
      DurableController ctl(schema, st);
      ASSERT_TRUE(ctl.open().ok());
      ASSERT_TRUE(ctl.subscribe(2, "stock == IBM").ok());
      auto d1 = ctl.commit();
      ASSERT_TRUE(d1.ok());
      ASSERT_TRUE(ctl.install(plant.installer, d1.value()).value().committed);

      ASSERT_TRUE(ctl.subscribe(4, "price > 3000").ok());
      auto d2 = ctl.commit();
      ASSERT_TRUE(d2.ok());
      want_digest = intended_digest(ctl);
      // Simulate the crash window by journaling the begin marker exactly
      // as install() would, then dying before the outcome marker.
      ASSERT_TRUE(ctl.journal()
                      .append(RecordType::kInstallBegin, "2 ops 0")
                      .ok());
      if (commit_landed) {
        plant.installer.set_epoch(ctl.epoch());
        ASSERT_TRUE(
            plant.installer.apply_delta(d2.value().leaves[0].ops).committed);
      }
    }
    st.crash();

    DurableController recovered(schema, st);
    auto info = recovered.open();
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info.value().install_in_flight);
    auto rec = recovered.reconcile(plant.installer);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().in_sync + rec.value().repaired, 1u)
        << "commit_landed=" << commit_landed;
    // Either world converges to the same intended program.
    EXPECT_EQ(plant.sw.program_digest(), want_digest)
        << "commit_landed=" << commit_landed;
    // The in-flight install was resolved in the journal: a second restart
    // must not see it again.
    st.crash();
    DurableController again(schema, st);
    auto info2 = again.open();
    ASSERT_TRUE(info2.ok());
    EXPECT_FALSE(info2.value().install_in_flight);
  }
}

// --- Snapshot (checkpoint) recovery --------------------------------------

TEST(Recovery, CheckpointRecoveryIsSemanticallyEquivalent) {
  MemStorage st;
  const auto schema = camus::spec::make_itch_schema();
  camus::util::Rng rng(17);
  camus::table::Pipeline pre_crash;
  std::size_t live = 0;
  {
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          ctl.subscribe(static_cast<std::uint16_t>(1 + i % 7), gen_rule(rng))
              .ok());
      if (i % 4 == 3) {
        ASSERT_TRUE(ctl.commit().ok());
      }
    }
    ASSERT_TRUE(ctl.checkpoint().value());
    // More churn after the checkpoint: replay = snapshot + suffix.
    ASSERT_TRUE(ctl.unsubscribe(3).ok());
    ASSERT_TRUE(ctl.subscribe(8, gen_rule(rng)).ok());
    ASSERT_TRUE(ctl.commit().ok());
    pre_crash = intended_program(ctl);
    live = ctl.subscription_count();
  }
  st.crash();

  DurableController recovered(schema, st);
  auto info = recovered.open();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(recovered.subscription_count(), live);
  ASSERT_TRUE(recovered.commit().ok());

  // Fresh state numbering: digests may differ, classification may not.
  const camus::table::Pipeline& post = intended_program(recovered);
  camus::util::Rng probe_rng(400);
  for (int i = 0; i < 200; ++i) {
    const camus::lang::Env env = probe_env(probe_rng);
    EXPECT_EQ(pre_crash.evaluate_actions(env).ports,
              post.evaluate_actions(env).ports)
        << "probe " << i;
  }
}

// A checkpoint keeps the intent at the last accepted commit: the snapshot
// holds the committed subscriptions, and the changes made since follow it
// as the subscribe/unsubscribe records they were, which replay leaves
// uncommitted.
TEST(Recovery, CheckpointKeepsUncommittedChangesPending) {
  const auto schema = camus::spec::make_itch_schema();
  MemStorage st;
  MemStorage at_checkpoint;
  camus::table::Pipeline committed, next;
  {
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    ASSERT_TRUE(ctl.subscribe(1, "stock == IBM").ok());
    ASSERT_TRUE(ctl.subscribe(2, "stock == GOOGL").ok());
    ASSERT_TRUE(ctl.subscribe(3, "price > 1000").ok());
    ASSERT_TRUE(ctl.commit().ok());
    committed = intended_program(ctl);
    ASSERT_EQ(ctl.unsubscribe(2).value(), 1u);
    ASSERT_TRUE(ctl.subscribe(7, "stock == MSFT").ok());
    ASSERT_TRUE(ctl.subscribe(2, "stock == AAPL").ok());
    ASSERT_TRUE(ctl.checkpoint().value());
    ASSERT_TRUE(at_checkpoint.replace(st.load().value()).ok());
    ASSERT_TRUE(ctl.commit().ok());
    next = intended_program(ctl);
  }

  DurableController recovered(schema, at_checkpoint);
  auto info = recovered.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(recovered.subscription_count(), 4u);
  // Fresh state numbering: compare classification, not digests.
  auto same_ports = [](const camus::table::Pipeline& want,
                       const camus::table::Pipeline& got) {
    camus::util::Rng probe_rng(400);
    for (int i = 0; i < 300; ++i) {
      const camus::lang::Env env = probe_env(probe_rng);
      if (want.evaluate_actions(env).ports != got.evaluate_actions(env).ports)
        return false;
    }
    return true;
  };
  EXPECT_TRUE(same_ports(committed, intended_program(recovered)));
  ASSERT_TRUE(recovered.commit().ok());
  EXPECT_TRUE(same_ports(next, intended_program(recovered)));
  EXPECT_FALSE(same_ports(committed, next));
}

// A commit that fails to compile journals nothing, but its BDD nodes and
// state ids stay in the compiler, so the next accepted commit could not
// replay to its digest (J010). That commit is journaled as a checkpoint
// instead, and recovery recompiles it from scratch.
TEST(Recovery, CommitAfterFailedCompileIsJournaledAsSnapshot) {
  const auto schema = camus::spec::make_itch_schema();
  camus::compiler::CompileOptions opts;
  opts.max_paths_per_component = 40;
  const auto single = camus::compiler::FabricSpec::single_switch();
  auto subscribe_kept = [](DurableController& ctl) {
    return ctl.subscribe(1, "stock == GOOGL").ok() &&
           ctl.subscribe(2, "stock == MSFT and price > 100").ok() &&
           ctl.subscribe(3, "shares > 10").ok();
  };
  MemStorage st;
  {
    DurableController ctl(schema, st, single, opts);
    ASSERT_TRUE(ctl.open().ok());
    ASSERT_TRUE(ctl.subscribe(1, "stock == GOOGL").ok());
    ASSERT_TRUE(ctl.commit().ok());
    ASSERT_TRUE(ctl.subscribe(2, "stock == MSFT and price > 100").ok());
    ASSERT_TRUE(ctl.subscribe(3, "shares > 10").ok());
    for (int i = 1; i <= 40; ++i)
      ASSERT_TRUE(ctl.subscribe(9, "price > " + std::to_string(i * 100) +
                                       " and price < " +
                                       std::to_string(i * 100 + 50))
                      .ok());
    const std::string journal = st.load().value();
    auto failed = ctl.commit();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, "E130");
    EXPECT_EQ(st.load().value(), journal);
    ASSERT_EQ(ctl.unsubscribe(9).value(), 40u);
    ASSERT_TRUE(ctl.commit().ok());
  }
  DurableController ctl(schema, st, single, opts);
  auto info = ctl.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(info.value().digest_mismatches, 0u);
  EXPECT_EQ(ctl.commit_seq(), 2u);
  EXPECT_EQ(ctl.subscription_count(), 3u);
  // The intent is the accepted commit, compiled from scratch.
  MemStorage fresh_st;
  DurableController fresh(schema, fresh_st, single, opts);
  ASSERT_TRUE(fresh.open().ok());
  ASSERT_TRUE(subscribe_kept(fresh));
  ASSERT_TRUE(fresh.commit().ok());
  EXPECT_EQ(intended_digest(ctl), intended_digest(fresh));
}

// --- The crash-point sweep -----------------------------------------------

TEST(CrashSweep, EveryRecordBoundaryOfA200CommitRunConverges) {
  // Run a 200-commit churn crash-free, recording the intended digest at
  // every commit. Then kill the controller at EVERY journal record
  // boundary and check the recovered state is bit-identical to the
  // crash-free oracle at the same commit count.
  const auto schema = camus::spec::make_itch_schema();
  MemStorage st;
  camus::util::Rng rng(2026);

  std::vector<std::uint64_t> oracle_digest{0};  // index = commit_seq
  {
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    std::vector<std::uint16_t> live_ports;
    for (int c = 0; c < 200; ++c) {
      // One churn op per commit keeps the sweep's replay cost linear.
      if (!live_ports.empty() && rng.chance(0.4)) {
        const auto port = live_ports[rng.uniform(0, live_ports.size() - 1)];
        ASSERT_TRUE(ctl.unsubscribe(port).ok());
        std::erase(live_ports, port);
      } else {
        const auto port = static_cast<std::uint16_t>(1 + rng.uniform(0, 30));
        ASSERT_TRUE(ctl.subscribe(port, gen_rule(rng)).ok());
        if (std::find(live_ports.begin(), live_ports.end(), port) ==
            live_ports.end())
          live_ports.push_back(port);
      }
      ASSERT_TRUE(ctl.commit().ok());
      oracle_digest.push_back(intended_digest(ctl));
    }
  }

  const std::string full_log = st.load().value();
  auto replay = Journal::replay_bytes(full_log);
  ASSERT_TRUE(replay.ok());
  const auto& ends = replay.value().record_ends;
  ASSERT_GT(ends.size(), 400u);  // epoch + 200×(op+commit)

  std::size_t commits_seen = 0;
  for (std::size_t b = 0; b < ends.size(); ++b) {
    if (replay.value().records[b].type == RecordType::kCommit)
      ++commits_seen;
    MemStorage crashed;
    ASSERT_TRUE(crashed.replace(full_log.substr(0, ends[b])).ok());
    DurableController ctl(schema, crashed);
    auto info = ctl.open();
    ASSERT_TRUE(info.ok()) << "boundary " << b << ": "
                           << info.error().to_string();
    ASSERT_EQ(info.value().commits_replayed, commits_seen)
        << "boundary " << b;
    ASSERT_EQ(info.value().digest_mismatches, 0u) << "boundary " << b;
    if (commits_seen > 0) {
      ASSERT_EQ(intended_digest(ctl),
                oracle_digest[commits_seen])
          << "boundary " << b;
    }
  }
}

TEST(CrashSweep, EveryChunkBoundaryOfAnInstallConverges) {
  // Crash mid-install after 0..N chunks reached the switch-side assembler:
  // staging is all-or-nothing, so every cut leaves the switch on
  // last-good, and recovery + reconcile converges to intended.
  const auto schema = camus::spec::make_itch_schema();
  camus::util::Rng rng(31);

  // Build the journal prefix once: one committed+installed baseline, then
  // a second commit whose install begins but never resolves.
  MemStorage st;
  std::uint64_t want_digest = 0;
  std::size_t n_chunks = 0;
  {
    Plant plant;
    DurableController ctl(schema, st);
    ASSERT_TRUE(ctl.open().ok());
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(
          ctl.subscribe(static_cast<std::uint16_t>(1 + i), gen_rule(rng))
              .ok());
    auto d1 = ctl.commit();
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(ctl.install(plant.installer, d1.value(), nullptr,
                            /*fault_switch=*/-1, /*chunk_bytes=*/64)
                    .value()
                    .committed);
    ASSERT_TRUE(ctl.subscribe(7, "stock == AMZN and shares < 500").ok());
    auto d2 = ctl.commit();
    ASSERT_TRUE(d2.ok());
    want_digest = intended_digest(ctl);
    const std::string image =
        camus::table::serialize_ops(d2.value().leaves[0].ops);
    n_chunks = (image.size() + 63) / 64;
    ASSERT_TRUE(ctl.journal().append(RecordType::kInstallBegin, "2 ops 0").ok());
  }
  const std::string log = st.load().value();
  ASSERT_GT(n_chunks, 1u);

  // Staged chunks live only in controller memory, so every chunk-boundary
  // crash leaves the switch on last-good; what varies across cuts is the
  // journal's torn tail — model the crash landing partway through the
  // write of the outcome marker, torn at a different byte per cut.
  const std::string outcome = Journal::frame(RecordType::kInstallCommit, "2");
  for (std::size_t cut = 0; cut <= n_chunks; ++cut) {
    const std::size_t torn = (cut * (outcome.size() - 1)) / n_chunks;
    MemStorage crashed;
    ASSERT_TRUE(crashed.replace(log + outcome.substr(0, torn)).ok());
    Plant plant;
    DurableController ctl(schema, crashed);
    auto info = ctl.open();
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info.value().install_in_flight);
    // Reboot-fresh switch also diverges; reconcile must still converge.
    auto rec = ctl.reconcile(plant.installer);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(plant.sw.program_digest(), want_digest) << "cut " << cut;
  }
}

// --- Nemesis harness ------------------------------------------------------

TEST(Nemesis, CampaignHoldsAllInvariants) {
  camus::fault::NemesisOptions opts;
  opts.seed = 20260808;
  opts.scenarios = 25;
  const auto stats = camus::fault::run_nemesis(opts);
  EXPECT_EQ(stats.violations, 0u) << [&] {
    std::string all;
    for (const auto& d : stats.violation_details) all += d + "\n";
    return all;
  }();
  // The campaign must actually exercise the machinery it certifies.
  EXPECT_GT(stats.crashes, 0u);
  EXPECT_GT(stats.leaf_reboots, 0u);
  EXPECT_GT(stats.stale_writes, 0u);
  EXPECT_EQ(stats.stale_rejected, stats.stale_writes);
  EXPECT_GT(stats.reconciles, 0u);
  EXPECT_GT(stats.probes, 0u);
}

TEST(Nemesis, CampaignIsDeterministic) {
  camus::fault::NemesisOptions opts;
  opts.seed = 9;
  opts.scenarios = 8;
  const auto a = camus::fault::run_nemesis(opts);
  const auto b = camus::fault::run_nemesis(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.violations, 0u);
}

// --- Reconciliation vs live data plane (TSAN) ----------------------------

TEST(RecoveryConcurrency, ReconcileRacesBatchProcessing) {
  // A single data-plane thread batches packets continuously while the
  // control plane reconciles and patches repeatedly. TSAN-clean by
  // construction: reconcile reads pinned program snapshots, never the
  // data-plane's thread-confined cache.
  MemStorage st;
  const auto schema = camus::spec::make_itch_schema();
  Plant plant;
  DurableController ctl(schema, st);
  ASSERT_TRUE(ctl.open().ok());
  camus::util::Rng rng(77);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i % 4), gen_rule(rng))
            .ok());
  auto d = ctl.commit();
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(ctl.install(plant.installer, d.value()).value().committed);

  std::atomic<bool> stop{false};
  std::thread data_plane([&] {
    camus::util::Rng drng(123);
    std::uint64_t now = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const camus::lang::Env env = probe_env(drng);
      (void)plant.sw.classify(env.fields, ++now);
    }
  });

  for (int round = 0; round < 40; ++round) {
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + round % 5), gen_rule(rng))
            .ok());
    auto delta = ctl.commit();
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(ctl.install(plant.installer, delta.value()).ok());
    auto rec = ctl.reconcile(plant.installer);
    ASSERT_TRUE(rec.ok());
  }
  stop.store(true, std::memory_order_release);
  data_plane.join();

  EXPECT_EQ(plant.sw.program_digest(),
            intended_digest(ctl));
}

// --- Automatic checkpoint policy -----------------------------------------

TEST(CheckpointPolicy, DisabledByDefault) {
  MemStorage st;
  DurableController ctl(camus::spec::make_itch_schema(), st);
  ASSERT_TRUE(ctl.open().ok());
  camus::util::Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ctl.subscribe(1, gen_rule(rng)).ok());
    ASSERT_TRUE(ctl.commit().ok());
  }
  EXPECT_EQ(ctl.auto_checkpoints(), 0u);
  // The journal still holds the full history: exact replay, no snapshot.
  DurableController successor(camus::spec::make_itch_schema(), st);
  auto info = successor.open();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().from_snapshot);
}

TEST(CheckpointPolicy, AutoCompactsWhenEstimatedReplayExceedsBound) {
  MemStorage st;
  DurableController ctl(camus::spec::make_itch_schema(), st);
  ASSERT_TRUE(ctl.open().ok());
  // Deterministic trigger regardless of machine speed: charge each record
  // a full second, so the estimate crosses the 10s bound as soon as
  // min_records accumulate — about every 20 records (~10 commits).
  camus::pubsub::CheckpointPolicy policy;
  policy.max_replay_seconds = 10.0;
  policy.min_records = 20;
  policy.per_record_seconds = 1.0;
  ctl.set_checkpoint_policy(policy);

  camus::util::Rng rng(6);
  const int n_commits = 200;
  for (int i = 0; i < n_commits; ++i) {
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i % 6), gen_rule(rng))
            .ok());
    if (i > 0 && i % 9 == 0)
      ctl.unsubscribe(static_cast<std::uint16_t>(1 + i % 6));
    ASSERT_TRUE(ctl.commit().ok());
  }
  // ~2 records per commit, compaction every ~20 records: many checkpoints,
  // and the journal never grows past one policy window.
  EXPECT_GE(ctl.auto_checkpoints(), 10u);
  EXPECT_LE(ctl.estimated_replay_seconds(),
            policy.max_replay_seconds + policy.min_records * 2.0);

  // A successor recovers through the checkpoint path: O(live state)
  // replay, not O(200-commit history).
  DurableController successor(camus::spec::make_itch_schema(), st);
  auto info = successor.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(successor.subscription_count(), ctl.subscription_count());
  EXPECT_LT(info.value().records_replayed,
            static_cast<std::size_t>(n_commits));
  EXPECT_EQ(successor.commit_seq(), ctl.commit_seq());
}

}  // namespace
