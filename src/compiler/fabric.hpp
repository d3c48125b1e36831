// Fabric placement: distribute one subscription set across a spine–leaf
// topology of switches (the ROADMAP "multi-switch fabric" item).
//
// A production feed with millions of subscribers cannot fit one TCAM, but
// the camus model generalizes cleanly: subscribers (egress ports) are
// assigned to leaf switches, each leaf carries only the fine per-subscriber
// rules whose forwarding set touches its ports, and the spines carry coarse
// steering rules over the workload's dominant point-constrained attribute
// (the stock symbol in the Fig-5 workloads — the same dominance criterion
// the PR-8 partitioned compile uses to shard one pipeline) that decide
// which leaves need to see a packet at all.
//
// Placement semantics (the theorem camus::verify::check_fabric_equivalence
// proves, with MTBDD counterexamples on violation):
//
//   monolithic(env).ports  ==  U_L { leaf_L(env).ports : spine steers env
//                                    to downlink L }
//
// which follows from two facts established per leaf:
//   (1) restriction — leaf_L computes exactly the monolithic function with
//       every ActionSet intersected with L's port set (the union of the
//       restrictions over all leaves recombines to the monolithic MTBDD);
//   (2) no starvation — every env on which leaf_L forwards is steered to L
//       by the spine rules (a pinned rule's value lands in L's steering
//       interval set; an unpinned rule forces L onto the catch-all path).
//
// Scope: fabric placement is stateless-only in this revision. Stateful
// subscriptions (@query_counter / @query_avg) read and write per-switch
// registers; replicating a register program across spines and leaves
// changes update multiplicity, so such rules are rejected up front with a
// stable diagnostic (F150) instead of silently mis-compiling. The single
// switch (0 spines x 1 leaf) is the exception: its placement is the
// identity — every rule verbatim on the one leaf, no flatten pass, no
// steering — so it keeps every rule, stateful ones included.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bdd/order.hpp"
#include "compiler/compile.hpp"
#include "lang/bound.hpp"
#include "spec/schema.hpp"
#include "table/pipeline.hpp"
#include "util/interval.hpp"
#include "util/result.hpp"

namespace camus::compiler {

// The topology shape and the (total, deterministic) subscriber->leaf map.
// Ports are assigned to leaves round-robin so every leaf serves an equal
// slice of the subscriber space without a lookup table; the controller,
// the verifier, the simulator, and the nemesis all share this one map.
struct FabricSpec {
  std::size_t leaves = 2;
  std::size_t spines = 1;

  // The single switch: the 0-spine x 1-leaf fabric.
  static constexpr FabricSpec single_switch() noexcept { return {1, 0}; }
  bool single() const noexcept { return spines == 0 && leaves == 1; }
  // Every subscriber is reachable: at least one leaf, and a spine tier to
  // steer between leaves unless there is only one.
  bool valid() const noexcept {
    return leaves >= 1 && (spines >= 1 || leaves == 1);
  }
  std::size_t switches() const noexcept { return spines + leaves; }

  std::size_t leaf_of(std::uint16_t port) const noexcept {
    return leaves == 0 ? 0 : port % leaves;
  }
  // The spine egress port that reaches leaf L (downlink index).
  std::uint16_t downlink(std::size_t leaf) const noexcept {
    return static_cast<std::uint16_t>(leaf);
  }

  friend bool operator==(const FabricSpec&, const FabricSpec&) = default;
};

// Where every rule lives in the fabric, before compilation.
struct FabricPlacement {
  FabricSpec spec;

  // The steering attribute (dominant point-constrained subject, chosen by
  // the same criterion as plan_partition), or nullopt when no rule pins
  // any attribute — the spines then steer every packet to every populated
  // leaf (correct, never better than broadcast).
  std::optional<lang::Subject> steer_subject;
  std::string steer_subject_name;  // display name for telemetry

  std::size_t total_rules = 0;
  std::size_t pinned_rules = 0;  // rules that pin the steering attribute

  // leaf_rules[L]: the monolithic rules whose forwarding set intersects
  // L's ports, with actions restricted to those ports (fact (1) above).
  std::vector<std::vector<lang::BoundRule>> leaf_rules;

  // Per-leaf steering state: the coalesced steering-attribute values L's
  // pinned rules cover, and whether any unpinned rule forces L onto the
  // spine catch-all path (needs_all).
  std::vector<util::IntervalSet> leaf_values;
  std::vector<bool> leaf_needs_all;

  // spine_rules[L]: the coarse rule "steer to downlink(L)" — an interval
  // condition over the steering attribute (or constant true on the
  // catch-all path, constant false for an empty leaf).
  std::vector<lang::BoundRule> spine_rules;

  std::size_t max_leaf_rules() const noexcept {
    std::size_t m = 0;
    for (const auto& r : leaf_rules) m = std::max(m, r.size());
    return m;
  }
  std::size_t populated_leaves() const noexcept {
    std::size_t n = 0;
    for (const auto& r : leaf_rules) n += !r.empty();
    return n;
  }
};

// The per-rule placement steps, shared by partition_for_fabric and the
// DurableController's incremental placement so the two cannot drift:

// Flattens one rule for placement on `spec` and returns the field
// subjects it pins (point-constrains in every DNF term) with their values;
// F150 when the rule reads or updates register state (a rule the fabric
// cannot place must be rejected before it is journaled). The single switch
// steers nothing and keeps stateful rules: no pins, no F150.
util::Result<std::map<lang::Subject, std::uint64_t>> steering_pins(
    const lang::BoundRule& rule, const spec::Schema& schema,
    const FabricSpec& spec, const bdd::VarOrder& order,
    std::size_t max_dnf_terms = 1 << 16);

// The steering attribute: the field subject pinned by the most rules (the
// dominance criterion plan_partition uses to shard one pipeline, applied
// across switches); ties break by variable-order rank. nullopt when no
// rule pins anything.
std::optional<lang::Subject> choose_steering(
    const std::map<lang::Subject, std::size_t>& pinned_count,
    const bdd::VarOrder& order);

// The rule restricted to each leaf its forwarding set touches: (leaf,
// rule with the ActionSet cut down to that leaf's ports), in leaf order.
// The condition is kept verbatim, so leaf correctness is immediate. The
// single switch keeps the whole rule (identity placement).
std::vector<std::pair<std::size_t, lang::BoundRule>> restrict_to_leaves(
    const lang::BoundRule& rule, const FabricSpec& spec);

// The spine rule "steer to downlink(leaf)": constant false for an empty
// leaf, the catch-all when there is no steering attribute or an unpinned
// rule needs every packet, else an interval condition over the steering
// attribute's pinned values.
lang::BoundRule steering_rule(const FabricSpec& spec, std::size_t leaf,
                              const std::optional<lang::Subject>& steer,
                              bool populated, bool needs_all,
                              const util::IntervalSet& values,
                              std::uint64_t steer_umax);

// Derives the placement: steering attribute, per-leaf restricted rule
// sets, and per-leaf spine steering rules. Pure function of its inputs.
// Diagnostics: F150 (stateful rule in scope), F151 (degenerate spec: zero
// leaves, or zero spines over several leaves).
util::Result<FabricPlacement> partition_for_fabric(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const FabricSpec& spec, const CompileOptions& opts = {});

// The compiled fabric: one spine program (identical on every spine — the
// steering function does not depend on which spine ECMP picked) and one
// program per leaf, with per-switch digests and a fabric digest folding
// them in topology order (the all-or-nothing install verifies against
// these, and the nemesis pins convergence on them).
struct FabricProgram {
  FabricSpec spec;
  table::Pipeline spine;  // empty when the fabric has no spines
  std::vector<table::Pipeline> leaves;

  std::uint64_t spine_digest = 0;
  std::vector<std::uint64_t> leaf_digests;
  std::uint64_t fabric_digest = 0;

  // Recomputes every per-switch digest and the fabric digest from the
  // programs (compile_fabric and the controller both seal this way). The
  // single switch's fabric digest is its one program's digest.
  void seal();

  std::uint64_t max_leaf_entries() const noexcept {
    std::uint64_t m = 0;
    for (const auto& p : leaves) m = std::max(m, p.total_entries());
    return m;
  }
  std::uint64_t total_leaf_entries() const noexcept {
    std::uint64_t t = 0;
    for (const auto& p : leaves) t += p.total_entries();
    return t;
  }
};

// The options the spine steering program compiles with: a handful of
// interval rules, which partitioning would only give a dispatch stage.
CompileOptions spine_compile_options(CompileOptions opts);

// Compiles every node program of a placement. The spine set is compiled
// monolithically (a handful of interval rules); each leaf compiles with
// the caller's options, so the PR-8 partitioned path and entry interning
// apply per leaf exactly as they would on a single switch.
util::Result<FabricProgram> compile_fabric(const spec::Schema& schema,
                                           const FabricPlacement& placement,
                                           const CompileOptions& opts = {});

}  // namespace camus::compiler
