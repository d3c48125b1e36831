// Crash-safe control plane: ONE journaled controller for every topology.
// A DurableController owns the subscription set of a compiler::FabricSpec
// topology — the single switch is the 0-spine x 1-leaf fabric — and drives
// one TwoPhaseInstaller per switch. Every externally visible decision is
// write-ahead journaled (util::Journal), so a crash at ANY point —
// mid-subscribe, mid-commit, mid-install, even between per-switch commits —
// recovers to the exact intended state by replay, and a restarted
// controller resumes programming behind a fenced epoch.
//
// Placement is incremental: every node program has its own
// IncrementalCompiler — one per leaf, plus one for the steering program
// all spines share. A subscription's rule goes only to the leaves its
// ports map to, restricted to their ports; a leaf's spine steering rule is
// replaced only when that leaf's steering set changed; a node whose rules
// did not change since its last compile is not recompiled, so its delta is
// empty and install() does not touch its switch. On the single switch
// placement is the identity: rules pass verbatim (stateful ones too — F150
// applies only across switches), with no flatten pass and no steering.
//
// Protocol (journal record per step, WAL discipline: journal first, act
// second):
//
//   open()        replay journal -> re-apply subscribe/unsubscribe ->
//                 re-run commits at recorded boundaries (digests checked,
//                 J010 on divergence) -> adopt epoch = last + 1 -> journal
//                 kEpoch "e". A half-done install (kInstallBegin without a
//                 matching commit/abort) is resolved by journaling
//                 kInstallAbort: every switch either has the install or
//                 kept last-good — a crash between per-switch commits
//                 leaves the fabric mixed — and reconcile() computes the
//                 exact repair per switch from digests, so the resolution
//                 is deterministic without knowing how far it got.
//   subscribe     journal kSubscribe "port prio text" -> bind -> place
//   unsubscribe   journal kUnsubscribe "port" -> remove every rule
//                 forwarding ONLY to the port
//   commit        recompile the changed nodes (pure in-memory; a crash
//                 before journaling simply loses the uncommitted compile)
//                 -> LintPolicy gate -> journal kCommit "seq fabric_digest".
//                 A failed commit journals nothing but leaves its BDD nodes
//                 and state ids in the compilers, so the next accepted
//                 commit is journaled as a checkpoint instead.
//   install       journal kInstallBegin "seq fabric_digest" -> stage every
//                 non-empty node delta, then commit each, epoch-fenced ->
//                 journal kInstallCommit/kInstallAbort "seq"
//   checkpoint    compact the journal to one kSnapshot record (the
//                 committed subscriptions), followed by the uncommitted
//                 subscribe/unsubscribe records. Replay from a snapshot
//                 re-adds the committed subscriptions and recompiles once,
//                 so the intent stays the last accepted commit: recovery is
//                 then O(live state), not O(history), but state numbering
//                 is fresh — semantically equivalent (the nemesis verifies
//                 delivery against an oracle), digest-different. Exact
//                 replay (no checkpoint) reproduces the pre-crash programs
//                 bit-identically, because the compiler is deterministic
//                 given the same operation history (which is why a failed
//                 commit forces the next checkpoint). The recovery bench
//                 measures both modes; kCommit digests recorded after a
//                 checkpoint are therefore only enforced on exact replay.
//
// Per-node intent and diff base stay separate. The journaled commit is the
// intent, and reconcile() keeps driving every switch toward it. The diff
// base is what each node's next delta is computed against: an aborted or
// rolled-back install rewinds every node it meant to touch to the program
// its switch runs (the installer's active()), and a reconcile repair
// re-seeds it from the intent.
//
// The fencing half: each open() adopts a strictly larger epoch and stamps
// it on every switch write, so a deposed controller's stragglers are
// rejected by every switch (E140) instead of clobbering its successor.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/fabric.hpp"
#include "compiler/incremental.hpp"
#include "fault/plan.hpp"
#include "pubsub/install.hpp"
#include "spec/schema.hpp"
#include "table/delta.hpp"
#include "util/interval.hpp"
#include "util/journal.hpp"
#include "util/result.hpp"
#include "verify/verify.hpp"

namespace camus::pubsub {

// How much static verification commit() runs on each recompiled leaf
// program before the intent moves (paper Figure 6: the controller gates
// what reaches the switch). Runtime configuration, not journaled: replay
// never lints, as every journaled commit was accepted when it was made.
// The spine steering program is not linted; verify/fabric proves it.
enum class LintPolicy : std::uint8_t {
  kOff,     // no verification (default)
  kWarn,    // verify, keep diagnostics in last_lint(), never reject
  kReject,  // error-severity findings fail commit(); switches keep the
            // last-good programs
};

// What open() found in the journal.
struct RecoveryInfo {
  bool recovered = false;         // journal held prior state
  bool from_snapshot = false;     // replay started at a kSnapshot
  std::uint64_t epoch = 0;        // epoch adopted by THIS controller
  std::size_t records_replayed = 0;
  std::size_t torn_bytes = 0;     // discarded torn tail
  std::size_t subscriptions = 0;  // live after replay
  std::uint64_t commits_replayed = 0;
  // Replayed commits whose recomputed digest diverged from the recorded
  // one. Fatal (J010) on exact replay; expected and merely counted after
  // a snapshot (fresh state numbering — see file comment).
  std::uint64_t digest_mismatches = 0;
  // A kInstallBegin had no matching commit/abort: the crash hit mid
  // install. open() journals the abort; reconcile() repairs the switches.
  bool install_in_flight = false;
};

// Automatic checkpointing: compact the journal whenever the estimated
// cost of replaying the accumulated history exceeds max_replay_seconds.
// The estimate is records * per_record_seconds plus, for each replayed
// commit, an EWMA of this controller's own measured compile times — so a
// controller with expensive commits checkpoints sooner than one with
// cheap ones, bounding worst-case recovery time rather than journal
// length. Disabled by default (max_replay_seconds <= 0): checkpointing
// trades exact-replay fidelity for recovery speed (see the protocol
// comment above), so it is opt-in.
struct CheckpointPolicy {
  double max_replay_seconds = 0;  // <= 0 disables auto-checkpointing
  std::size_t min_records = 16;   // never compact a near-empty journal
  // Cost charged per non-commit journal record (parse + bind on replay).
  double per_record_seconds = 2e-6;
};

// The per-switch installers the controller drives, in topology order:
// spines first, then leaves. Defined here (not in netsim) so the control
// plane stays independent of the simulator; netsim::Fabric::targets()
// produces one, and a lone installer converts to the single switch.
struct FabricTargets {
  std::vector<TwoPhaseInstaller*> spines;
  std::vector<TwoPhaseInstaller*> leaves;

  FabricTargets() = default;
  // The single switch: 0 spines, the installer as leaf 0.
  FabricTargets(TwoPhaseInstaller& single)  // NOLINT: implicit on purpose
      : leaves{&single} {}

  std::size_t size() const noexcept { return spines.size() + leaves.size(); }
  // Flat index: 0..spines-1 are spines, then leaves.
  TwoPhaseInstaller& at(std::size_t i) const {
    return i < spines.size() ? *spines[i] : *leaves[i - spines.size()];
  }
};

// One commit: the journaled fabric digest and every node's delta. A node
// the commit did not change has an empty delta, and install() leaves its
// switch untouched.
struct FabricDelta {
  using Delta = compiler::IncrementalCompiler::Delta;

  std::uint64_t digest = 0;
  Delta spine;  // the steering program every spine runs
  std::vector<Delta> leaves;

  static bool empty(const Delta& d) noexcept {
    return d.ops.empty() && !d.requires_reprogram;
  }
  // The delta of flat switch index i (spines first, then leaves).
  const Delta& at(std::size_t i, std::size_t spines) const noexcept {
    return i < spines ? spine : leaves[i - spines];
  }
  // Flat indices of the switches this delta ships to.
  std::vector<std::size_t> touched(std::size_t spines) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < spines + leaves.size(); ++i)
      if (!empty(at(i, spines))) out.push_back(i);
    return out;
  }
};

// Outcome of one all-or-nothing install.
struct FabricInstallReport {
  bool committed = false;             // every touched switch committed
  bool all_or_nothing_abort = false;  // a stage failed; NO switch modified
  bool crashed_mid_commit = false;    // crash hook fired between commits
  std::size_t staged = 0;             // switches that staged successfully
  std::size_t committed_switches = 0;
  std::size_t rolled_back = 0;        // undone after a commit-phase failure
  std::uint64_t epoch = 0;
  std::string error;                  // empty when committed
  // Per-switch reports in flat (spines-then-leaves) order. Switches the
  // delta did not touch, and never-staged ones after an abort, keep
  // default reports (0 chunks).
  std::vector<InstallReport> reports;
};

// Outcome of one anti-entropy pass over every switch.
struct FabricReconcileReport {
  std::size_t in_sync = 0;          // digest-matched, untouched
  std::size_t repaired = 0;         // a repair landed
  std::size_t full_reprograms = 0;  // repairs that had to re-image
  std::size_t diverged_stages = 0;  // stages whose digests differed
  std::size_t repair_ops = 0;       // entry ops shipped across all deltas
  std::size_t reused_entries = 0;   // intended entries already in place
  std::size_t total_entries = 0;    // intended entries
  bool converged = false;  // every switch digest == its intended digest
  std::string error;

  double reuse_fraction() const noexcept {
    return total_entries == 0 ? 1.0
                              : static_cast<double>(reused_entries) /
                                    static_cast<double>(total_entries);
  }
};

// Diagnostics:
//   E122  intended() or install() before the first commit()
//   E142  operation before a successful open()
//   E143  rule text spans lines (the journal stores one rule per line)
//   E140, E141, E144  from the switches (Switch::commit, Switch::fence):
//         a stale epoch at commit or at fence, a staged delta whose base
//         program no longer runs
//   F150  stateful rule on a multi-switch topology (rejected at subscribe)
//   F151  degenerate topology, or targets/delta shaped for another one
//   J010  replayed commit digest mismatch (journal corruption or broken
//         compiler determinism) on exact replay
//   J011  malformed journal payload for its record type
class DurableController {
 public:
  using Delta = compiler::IncrementalCompiler::Delta;

  // The storage outlives the controller (it IS the durable identity: a
  // restarted controller is a new DurableController on the same storage).
  DurableController(
      spec::Schema schema, util::StableStorage& storage,
      compiler::FabricSpec topology = compiler::FabricSpec::single_switch(),
      compiler::CompileOptions opts = {});

  // Replays the journal into this controller and adopts a fresh epoch.
  // Must be called (once) before any mutation.
  util::Result<RecoveryInfo> open();
  const RecoveryInfo& recovery() const noexcept { return recovery_; }

  // This controller's fenced epoch (0 before open()).
  std::uint64_t epoch() const noexcept { return epoch_; }
  std::uint64_t commit_seq() const noexcept { return commit_seq_; }
  std::size_t subscription_count() const noexcept { return subs_.size(); }

  // WAL-first mutations. A rule text without an action is the
  // interest-only form: " : fwd(port)" is appended. unsubscribe removes
  // every rule forwarding ONLY to the port. A rule that cannot be placed,
  // or whose text spans lines (E143), is rejected before it is journaled.
  util::Result<bool> subscribe(std::uint16_t port,
                               std::string_view rule_text, int priority = 0);
  util::Result<std::size_t> unsubscribe(std::uint16_t port);

  // Recompiles the changed nodes and journals the commit boundary with the
  // fabric digest. The returned deltas are what install() ships. A failed
  // compile or lint gate fails the whole commit: no node's diff base, dirty
  // flag or intent moves and nothing is journaled. The next accepted
  // commit is then journaled as a checkpoint (see file comment).
  util::Result<FabricDelta> commit();

  // Static-verification gate for commit(): each recompiled leaf program is
  // checked with verify::verify_compiled against that leaf's rules.
  void set_lint_policy(LintPolicy policy, verify::VerifyOptions opts = {}) {
    lint_policy_ = policy;
    lint_opts_ = std::move(opts);
  }
  // Diagnostics of the most recent linted commit().
  const verify::Report& last_lint() const noexcept { return lint_report_; }

  // The intended programs: what the last journaled commit compiled (E122
  // before the first commit). Deliberately NOT the compilers' diff bases
  // (see file comment).
  util::Result<const compiler::FabricProgram*> intended() const;

  // All-or-nothing install of a commit's deltas: stage+verify every
  // non-empty node delta on its switch (entry ops, or the node's full
  // intended image when the delta requires a reprogram), then commit each.
  // Any stage failure aborts with zero switches modified; a commit-phase
  // failure (fencing, or a switch written since its stage) rolls back the
  // switches already committed. `faults`
  // models the control channel of the switch at flat index `fault_switch`
  // (-1 = every switch shares the plan). Journaled as one kInstallBegin /
  // kInstallCommit-or-Abort pair around the whole transaction.
  util::Result<FabricInstallReport> install(
      const FabricTargets& targets, const FabricDelta& delta,
      const fault::Plan* faults = nullptr, int fault_switch = -1,
      std::size_t chunk_bytes = 512, int max_attempts = 3,
      int chunk_retries = 8);

  // Warm-boot anti-entropy: fences every switch to this epoch, then drives
  // each toward its intended program — digest short-circuit (an in-sync
  // switch costs one digest exchange, zero entries), entry-delta repair
  // when possible, re-image when not (the same table::diff_pipelines
  // currency as live churn deltas). Before any commit the intent is the
  // empty program: a fresh controller clears programmed switches.
  util::Result<FabricReconcileReport> reconcile(
      const FabricTargets& targets, const fault::Plan* faults = nullptr,
      std::size_t chunk_bytes = 512, int max_attempts = 3,
      int chunk_retries = 8);

  // Compacts the journal to a snapshot of the intended state plus the
  // uncommitted changes (see file comment for the recovery-fidelity
  // trade-off).
  util::Result<bool> checkpoint();

  // Arms automatic checkpointing: commit() compacts the journal once the
  // estimated replay cost crosses policy.max_replay_seconds.
  void set_checkpoint_policy(CheckpointPolicy policy) noexcept {
    policy_ = policy;
  }
  // Checkpoints taken automatically by the policy (manual ones excluded).
  std::uint64_t auto_checkpoints() const noexcept { return auto_checkpoints_; }
  // The policy's current replay-cost estimate for this journal.
  double estimated_replay_seconds() const noexcept;

  // Crash-injection hook for the nemesis: the next install() stops dead
  // once `n` switches have committed — no outcome record is journaled, as
  // if the controller process died mid-transaction. One-shot; -1
  // disables.
  void set_crash_after_commits(int n) noexcept { crash_after_commits_ = n; }

  util::Journal& journal() noexcept { return journal_; }
  const spec::Schema& schema() const noexcept { return schema_; }

 private:
  using SubscriptionId = compiler::IncrementalCompiler::SubscriptionId;
  using Pins = std::map<lang::Subject, std::uint64_t>;

  // One node program: its compiler, and whether its rules (or its diff
  // base) changed since its last compile.
  struct Node {
    compiler::IncrementalCompiler inc;
    bool dirty = true;
  };

  struct Sub {
    std::uint16_t port = 0;
    int priority = 0;
    std::string text;  // full rule text incl. action (replay + snapshot)
    std::vector<std::uint16_t> ports;  // bound action ports (unsub filter)
    Pins pins;  // steering footprint (multi-switch topologies only)
    std::vector<std::pair<std::size_t, SubscriptionId>> placed;  // leaf, id
    bool committed = false;  // compiled by the last commit
    bool forwards_only_to(std::uint16_t p) const noexcept {
      return ports.size() == 1 && ports[0] == p;
    }
  };

  // A leaf's steering set as its spine rule sees it: nothing, everything,
  // or the steering attribute's pinned values.
  struct Steering {
    bool populated = false;
    bool needs_all = false;
    std::optional<lang::Subject> subject;
    util::IntervalSet values;
    friend bool operator==(const Steering&, const Steering&) = default;
  };

  util::Result<bool> check_shape(const FabricTargets& targets) const;
  // Parses and binds one rule and, across switches, derives its steering
  // pins (F150 for stateful rules). Shared by the live path and replay.
  util::Result<std::pair<Sub, lang::BoundRule>> bind(
      std::uint16_t port, int priority, const std::string& text) const;
  // Adds the rule to every leaf it reaches (compiler::restrict_to_leaves).
  void place(Sub sub, const lang::BoundRule& rule);
  util::Result<bool> apply_subscribe(std::uint16_t port, int priority,
                                     const std::string& text);
  std::size_t apply_unsubscribe(std::uint16_t port);
  // Replaces the spine steering rules whose leaf steering set changed.
  void update_steering();
  // Recompiles the dirty nodes, all or nothing, and returns the fabric
  // digest. On failure no node's diff base, dirty flag or intent moves.
  // Only live commits (out != nullptr) run the lint gate.
  util::Result<std::uint64_t> apply_commit(FabricDelta* out);
  // The lint gate on one recompiled leaf program.
  util::Result<bool> lint(const compiler::IncrementalCompiler& inc,
                          std::size_t leaf);
  // The intended program of flat switch index i (spines share one).
  const table::Pipeline& program_for(std::size_t i) const;
  // Points the next delta of every node `delta` meant to touch at what its
  // switch still runs.
  void rewind(const FabricTargets& targets, const FabricDelta& delta);
  util::Result<FabricInstallReport> abort_install(
      FabricInstallReport report, const FabricTargets& targets,
      const FabricDelta& delta);
  // The checkpoint: a kSnapshot of what the last commit compiled, then the
  // uncommitted subscribe/unsubscribe records that lead to subs_.
  std::vector<util::Record> snapshot_records() const;
  util::Result<bool> replay_snapshot(const std::string& payload);
  // Runs the CheckpointPolicy at a commit boundary; no-op when disarmed
  // or below threshold.
  util::Result<bool> maybe_auto_checkpoint();

  spec::Schema schema_;
  compiler::FabricSpec topology_;
  compiler::CompileOptions opts_;
  util::Journal journal_;
  std::vector<Node> leaves_;
  std::optional<Node> spine_;  // absent on the single switch
  // The spine rule currently steering to each leaf, and the set it encodes.
  std::vector<std::optional<SubscriptionId>> steer_ids_;
  std::vector<Steering> steering_;
  // Last committed programs — the controller's intent. Kept separate from
  // the compilers' diff bases, which install() rewinds on abort.
  std::optional<compiler::FabricProgram> intended_;
  std::vector<Sub> subs_;
  // Subscriptions the last commit compiled that an unsubscribe has since
  // removed; the next checkpoint still snapshots them.
  std::vector<Sub> retired_;
  // A live commit failed since the last journaled one: its leftovers in
  // the compilers keep the next accepted commit from replaying exactly.
  bool diverged_ = false;
  bool opened_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t commit_seq_ = 0;
  std::uint64_t install_seq_ = 0;
  int crash_after_commits_ = -1;
  RecoveryInfo recovery_;
  // CheckpointPolicy state: what a replay of the current journal would
  // have to redo, and what this controller's commits actually cost.
  CheckpointPolicy policy_;
  std::size_t records_since_checkpoint_ = 0;
  std::uint64_t commits_since_checkpoint_ = 0;
  double commit_seconds_ewma_ = 0;
  std::uint64_t auto_checkpoints_ = 0;
  LintPolicy lint_policy_ = LintPolicy::kOff;
  verify::VerifyOptions lint_opts_;
  verify::Report lint_report_;
};

}  // namespace camus::pubsub
