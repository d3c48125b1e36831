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
//  - Delta emission: an In node's entries depend only on its own subgraph
//    and its Out nodes' ids, so an In node that survives a commit with its
//    id keeps exactly the entries it has installed. A commit therefore
//    runs Algorithm 1 only for the In nodes that are new (and the pinned
//    root), removes the entries of the In nodes that left, and emits the
//    ops straight from that, in table::diff_pipelines' order. Reference
//    counts over the BDD (LiveGraph) tell which In nodes and terminals
//    arrived or left by visiting only the nodes that changed.
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
  // first commit reports every entry as an add. A commit whose diff base
  // is its own last commit emits the delta from the In nodes it changed.
  // The first commit after restore_installed() or after a commit that
  // failed, a commit under domain_compression, one whose root is or was a
  // terminal, and one that flips a stage's match kind regenerate every
  // table and diff them against the base instead (table::diff_pipelines).
  // Both give the same ops. After an emitted delta, pipeline() is the base
  // with the ops applied, entry for entry what a switch that applied them
  // runs.
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
  // ids merely become unreferenced. The next commit regenerates every
  // table and diffs them against this base.
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

  // Reachability of the BDD rooted at the last committed root, kept as
  // reference counts: moving the root visits only the nodes that became
  // reachable or unreachable, and reports which In nodes and terminals
  // arrived or left. Indexed by node and terminal index.
  class LiveGraph {
   public:
    struct Moved {
      std::vector<bdd::NodeRef> arrived;    // became In nodes
      std::vector<bdd::NodeRef> departed;   // stopped being In nodes
      std::vector<bdd::NodeRef> terminals;  // became (un)reachable, by index
      std::vector<std::size_t> flipped;     // ranks whose component became
                                            // empty or non-empty
    };
    Moved move_to(const bdd::BddManager& mgr, bdd::NodeRef root);

    bool is_in(bdd::NodeRef n) const { return is_in_[n.index()] != 0; }
    bool reachable_terminal(bdd::NodeRef t) const {
      return term_refs_[t.index()] != 0;
    }
    // Whether any reachable node predicates on the rank's subject.
    bool component(std::size_t rank) const { return rank_nodes_[rank] != 0; }
    std::size_t in_nodes() const noexcept { return in_nodes_; }
    // BddManager::stats of the root, from the counts.
    bdd::BddStats stats(const bdd::BddManager& mgr) const;

   private:
    std::optional<bdd::NodeRef> root_;
    std::vector<std::uint32_t> refs_;     // edges from reachable parents,
                                          // +1 for the root
    std::vector<std::uint32_t> in_refs_;  // those from another subject's
                                          // node, +1 for the root
    std::vector<std::uint8_t> is_in_;     // an In node of the root
    std::vector<std::uint32_t> term_refs_;
    std::vector<std::size_t> rank_nodes_;  // reachable nodes per rank
    std::vector<std::uint32_t> var_nodes_;  // reachable nodes per variable
    std::size_t nodes_ = 0, terminals_ = 0, vars_ = 0, in_nodes_ = 0;
  };

  // Maps `root` to the initial state, releasing the previous root's id.
  void pin_root(bdd::NodeRef root);
  // Emits this commit's delta from the In nodes that arrived or left and
  // applies it to installed_. False when ops on this base cannot express
  // it (a stage's match kind would flip): the caller regenerates instead.
  util::Result<bool> emit_delta(bdd::NodeRef prev_root, bdd::NodeRef root,
                                const LiveGraph::Moved& moved, Delta& delta);
  // Runs Algorithm 1 over the whole BDD and diffs the result against
  // installed_ (table::diff_pipelines).
  util::Result<bool> regenerate(bdd::NodeRef root, Delta& delta);

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
  LiveGraph live_;  // rooted at last_root_

  std::optional<table::Pipeline> installed_;
  // installed_ is this compiler's last commit (not a restored snapshot or
  // the base of a failed commit), so its entries per In node are exactly
  // what Algorithm 1 generates for it.
  bool base_from_commit_ = false;
};

}  // namespace camus::compiler
