// Incremental compilation — the extension the paper sketches in §3:
// "Highly dynamic queries would require an incremental algorithm, both to
// reduce compilation time and to minimize the number of state updates in
// the network. ... BDDs — our primary internal data structure — can
// leverage memoization, and state updates can benefit from table entry
// re-use."
//
// Both halves are implemented here:
//  - Memoization: one persistent BddManager spans all commits, so the
//    hash-consed unique table and union/prune memo caches carry over.
//    Per-subscription rule BDDs are cached, and the combined BDD is the
//    root of a persistent union tree: each subscription owns one fixed
//    leaf, and a commit re-unites only the ancestors of the leaves that
//    changed, O(log n) unions that are mostly memo hits.
//  - Entry re-use: a persistent StateAllocator keeps BDD-node -> state-id
//    assignments stable across commits, so unchanged regions of the BDD
//    produce byte-identical table entries. commit() returns the exact
//    add/remove delta against the previously installed tables — the
//    control-plane update cost.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/algorithm1.hpp"
#include "compiler/compile.hpp"
#include "compiler/options.hpp"
#include "spec/schema.hpp"
#include "table/delta.hpp"
#include "util/result.hpp"

namespace camus::compiler {

class IncrementalCompiler {
 public:
  using SubscriptionId = std::uint64_t;

  explicit IncrementalCompiler(spec::Schema schema,
                               CompileOptions opts = {});

  // Registers a subscription; takes effect at the next commit().
  SubscriptionId add(lang::BoundRule rule);
  util::Result<SubscriptionId> add_source(std::string_view rule_text);

  // Unregisters; returns false for unknown ids.
  bool remove(SubscriptionId id);

  std::size_t subscription_count() const noexcept { return subs_.size(); }

  // One control-plane operation: install, delete, or (leaf-only) modify
  // one entry. Shared with the installer and switch (table/delta.hpp) so
  // the same op list flows through every layer unchanged.
  using EntryOp = table::EntryOp;

  struct Delta {
    std::vector<EntryOp> ops;
    std::size_t reused_entries = 0;  // entries identical to last commit
    std::size_t total_entries = 0;   // entries in the new pipeline
    double compile_seconds = 0;

    // Entry-level deltas presuppose that every targeted stage exists in
    // the program the switch runs. Stage materialization keeps that true
    // for plain commits, but domain compression can create or retire
    // mapping stages mid-churn (a table crossing the compression
    // threshold), and the diff base may have been re-seeded from a batch
    // compile without materialized stages. Such commits cannot ship as
    // ops — install pipeline() with a full reprogram instead.
    bool requires_reprogram = false;

    // Compile-phase telemetry for this commit (same schema as the batch
    // compiler; t_flatten covers only newly added subscriptions — cached
    // rule BDDs skip flattening entirely).
    CompileStats stats;

    std::size_t adds() const;
    std::size_t removes() const;
    std::size_t modifies() const;

    // Fraction of new-pipeline entries carried over unchanged (1.0 when
    // the pipeline is empty — nothing needed shipping).
    double reuse_fraction() const;

    // Per-commit delta telemetry (ops/adds/removes/modifies/reuse plus
    // the embedded CompileStats profile), for camusc --json and benches.
    std::string to_json() const;
  };

  // Recompiles and returns the delta against the previous commit. The
  // first commit reports every entry as an add.
  util::Result<Delta> commit();

  // The currently installed pipeline. E122 before a successful commit()
  // — an expected caller-ordering error reported as a diagnostic, not a
  // throw (E1xx convention), so recovery code never unwinds through an
  // exception. The pointer is never null on the ok() path and stays valid
  // until the next commit()/restore_installed().
  util::Result<const table::Pipeline*> pipeline() const;
  bool has_pipeline() const noexcept { return installed_.has_value(); }

  // Rolls the diff base back to an earlier snapshot — used when a commit's
  // output is rejected downstream (lint policy, failed install) so the
  // next commit diffs against what the switch actually runs. The
  // persistent state allocator is untouched: it only grows, and stale
  // ids merely become unreferenced.
  void restore_installed(table::Pipeline last_good);

  const spec::Schema& schema() const noexcept { return schema_; }

  // The persistent BDD manager and the root of the last committed BDD —
  // the same artifacts compiler::Compiled exposes for rendering/debugging.
  const std::shared_ptr<bdd::BddManager>& manager() const noexcept {
    return manager_;
  }
  bdd::NodeRef root() const noexcept { return last_root_; }

 private:
  // Entry-level diffing against the installed pipeline lives in
  // table::diff_pipelines — shared with the controller's warm-boot
  // reconciliation pass so the two can never disagree about what a
  // minimal update is.

  // A subscription and the union-tree leaf it owns until removed.
  struct Subscription {
    lang::BoundRule rule;
    std::uint32_t leaf = 0;
  };

  // Takes a free leaf for a new subscription, doubling the tree when
  // every leaf is taken.
  std::uint32_t take_leaf();
  void set_leaf(std::uint32_t leaf, bdd::NodeRef root);
  // Re-unites the ancestors of the leaves changed since the last commit,
  // bottom-up, and returns the tree's root.
  bdd::NodeRef unite_changed();

  spec::Schema schema_;
  CompileOptions opts_;

  std::map<SubscriptionId, Subscription> subs_;
  SubscriptionId next_id_ = 1;
  // Subscriptions whose rule BDD is not built yet, in id order.
  std::vector<SubscriptionId> unbuilt_;

  // Persistent compilation state (see file comment).
  std::shared_ptr<bdd::BddManager> manager_;
  // The union tree, a complete binary tree of partial unions stored level
  // by level: levels_[0] holds one rule BDD per leaf (drop() when free),
  // levels_[k][j] is the union of levels_[k-1][2j] and [2j+1], and
  // levels_.back()[0] is the root. Leaves never move, so a removal changes
  // one root-ward path and no other pair.
  std::vector<std::vector<bdd::NodeRef>> levels_;
  std::uint32_t used_leaves_ = 0;          // leaves ever handed out
  std::vector<std::uint32_t> free_leaves_;  // freed by remove(), reused LIFO
  std::vector<std::uint32_t> changed_;      // leaves set since last commit
  StateAllocator states_;
  std::optional<std::uint32_t> pinned_root_raw_;
  bdd::NodeRef last_root_;

  std::optional<table::Pipeline> installed_;
};

}  // namespace camus::compiler
