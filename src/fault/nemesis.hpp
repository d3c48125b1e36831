// Jepsen-style nemesis harness for the crash-safe control plane, on any
// topology: each scenario drives a DurableController over a netsim::Fabric
// of `spines` x `leaves` switches (the default, 0 x 1, is the single
// switch) through seeded subscription churn while injecting:
//
//   controller crash      journal truncated to its synced prefix (+ torn
//                         tail); a successor opens, adopts a higher epoch,
//                         and reconciles every switch.
//   crash mid-commit      the install staged everywhere, committed on some
//                         switches, and died before its outcome record —
//                         a mixed fabric with an unresolved kInstallBegin.
//   leaf / spine reboot   one node returns factory-blank; reconcile must
//                         re-image exactly that node.
//   install partition     all chunks dropped to ONE switch the commit
//                         touches: the all-or-nothing protocol must abort
//                         with ZERO switches modified (checked by digest).
//   stale writes          a deposed controller replays its last write at
//                         a random switch; fencing must bounce it (E140).
//
// It checks four invariants after every disruption:
//
//   I1  recovery fidelity — a restarted controller's replayed subscription
//       set matches the shadow model, and on exact replay the journal's
//       commit digests re-verify (J010 would have failed open()).
//   I2  installed ≡ intended — after reconciliation every switch's program
//       digest equals its intended program's.
//   I3  fencing — no stale-epoch write lands on any switch.
//   I4  delivery resumes exactly-once — for seeded probes the fabric's
//       (leaf, port) delivery set equals {(leaf_of(p), p)} of an
//       independently batch-compiled single-switch oracle: no lost
//       subscriptions, no resurrected ones.
//
// Everything is a pure function of the seed: scenario i uses seed
// opts.seed + i for churn, fault plans, crash points and probes, so a
// violating seed replays bit-identically under a debugger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace camus::fault {

struct NemesisOptions {
  std::uint64_t seed = 1;
  std::size_t scenarios = 100;
  // The topology: at least one leaf, and spines unless there is one leaf.
  std::size_t spines = 0;
  std::size_t leaves = 1;
  // Churn steps per scenario (each step subscribes/unsubscribes; every
  // commit_every-th step commits and installs).
  std::size_t steps = 14;
  std::size_t commit_every = 3;
  // Probability weights (per mille) for the nemesis acting after a step.
  std::uint32_t crash_per_mille = 180;
  std::uint32_t leaf_reboot_per_mille = 90;
  std::uint32_t spine_reboot_per_mille = 60;  // ignored without spines
  std::uint32_t stale_write_per_mille = 120;
  // Per-mille chance a commit's install runs against a partitioned switch
  // (all chunks dropped -> all-or-nothing abort) or crashes mid-commit.
  std::uint32_t partition_per_mille = 180;
  std::uint32_t crash_mid_commit_per_mille = 150;
  // Every n-th scenario checkpoints before a crash (snapshot recovery).
  // 0 disables.
  std::size_t checkpoint_every = 4;
  // Messages in the differential delivery sweep (I4).
  std::size_t probe_messages = 64;
};

struct NemesisStats {
  std::size_t scenarios = 0;
  std::size_t steps = 0;
  std::size_t commits = 0;
  std::size_t installs = 0;
  std::size_t crashes = 0;
  std::size_t crashes_mid_commit = 0;
  std::size_t recoveries_from_snapshot = 0;
  std::size_t leaf_reboots = 0;
  std::size_t spine_reboots = 0;
  std::size_t partitions = 0;
  std::size_t all_or_nothing_aborts = 0;  // must equal partitions (atomic)
  std::size_t stale_writes = 0;
  std::size_t stale_rejected = 0;         // must equal stale_writes (I3)
  std::size_t reconciles = 0;
  std::size_t repairs = 0;                // switches a reconcile repaired
  std::size_t full_reprograms = 0;        // repairs that had to re-image
  std::size_t repair_ops = 0;             // entry ops shipped as repairs
  std::size_t checkpoints = 0;
  std::size_t probes = 0;                 // differential messages checked
  std::size_t violations = 0;
  std::vector<std::string> violation_details;  // first few, for triage

  std::string to_json() const;
};

// Runs the campaign; deterministic in opts.seed. Any violation is both
// counted and described (scenario seed + invariant) in the stats. A
// degenerate topology runs no scenario and reports one F151 violation.
NemesisStats run_nemesis(const NemesisOptions& opts);

}  // namespace camus::fault
