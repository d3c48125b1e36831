// Partitioned-output compilation (the compile-at-scale path), and the
// only compile sharding: a monolithic compile is serial.
//
// A monolithic compile unions every rule into one MTBDD, so peak node
// count, union time, and compile memory all scale with the whole rule
// set. This module shards by the dominant point-constrained attribute
// (the stock symbol in the Fig-5 workloads; message type in the paper's
// §3 split), compiles every shard to an *independent sub-pipeline* with a
// private BddManager and a private state range on a worker pool, and
// stitches the shards behind a generated exact-match dispatch stage:
//
//     (state 0, attr == v)  -> shard_v's initial state
//     (state 0, *)          -> default shard's initial state
//
// Rules that pin the attribute to v compile into shard v with the pin
// stripped (the dispatch hit already established it). Rules that do not
// pin it are *specialized* into every value shard — terms whose
// constraint excludes v are dropped, terms admitting v lose the
// constraint — and also form the default shard unchanged, reached by the
// dispatch wildcard. The stitched pipeline therefore computes exactly the
// union semantics of the original rule set (proof sketch in DESIGN.md
// "Compiling at scale"); camus::verify proves it against the monolithic
// reference MTBDD when CompileOptions::partition_reference is set.
//
// Every shard uses the same global variable order with the partition
// attribute moved to the front, so the stitched stage sequence still
// follows one total order — the property both Algorithm 1 and the
// equivalence checker rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bdd/order.hpp"
#include "compiler/compile.hpp"
#include "lang/dnf.hpp"
#include "util/result.hpp"

namespace camus::compiler {

// The single value `s` is pinned to across every DNF term of the rule, or
// nullopt when any term leaves it unconstrained, non-point, or terms
// disagree.
std::optional<std::uint64_t> point_constrained_value(const lang::FlatRule& r,
                                                     lang::Subject s);

struct PartitionPlan {
  // Present when a usable partition attribute was found.
  std::optional<lang::Subject> subject;
  // Sorted distinct pinned values; groups[i] holds the specialized flat
  // rules for values[i] (pinned rules stripped + applicable catch-all
  // rules specialized).
  std::vector<std::uint64_t> values;
  std::vector<std::vector<lang::FlatRule>> groups;
  // Rules that do not pin the attribute, unmodified (the default shard).
  std::vector<lang::FlatRule> catch_all;
  // How many input rules pinned the attribute (coverage diagnostics).
  std::size_t pinned_rules = 0;
};

// Chooses the partition attribute (highest-ranked subject pinned by at
// least half the rules) and builds the per-value specialized rule groups.
// plan.subject is empty when no attribute qualifies or fewer than two
// distinct values exist — partitioning then cannot help.
PartitionPlan plan_partition(const std::vector<lang::FlatRule>& rules,
                             const bdd::VarOrder& order);

// Mode/threshold gate: true when compile_rules should take the
// partitioned path for this plan.
bool partition_applies(const PartitionPlan& plan, const CompileOptions& opts,
                       std::size_t n_rules);

// Compiles the plan: shards on min(opts.threads, shard count) workers (0
// threads = one per hardware thread), deterministic stitch (canonical
// shard order by value, default last — output is identical at every
// thread count), then optional
// intern_entries / compress_domains over the stitched pipeline. The
// returned Compiled carries the monolithic reference MTBDD only when
// opts.partition_reference is set; otherwise manager is null.
util::Result<Compiled> compile_partitioned(
    const spec::Schema& schema, const std::vector<lang::FlatRule>& flat,
    const PartitionPlan& plan, const CompileOptions& opts);

}  // namespace camus::compiler
