// Compilation options. Defaults reproduce the paper's configuration; the
// switches exist for the ablation benchmarks (bench/ablation_*).
#pragma once

#include <cstddef>
#include <cstdint>

#include "bdd/order.hpp"

namespace camus::compiler {

// Partitioned-output compilation (compile-at-scale path; see
// compiler/partition.hpp). kOff keeps the single master-BDD pipeline;
// kAuto partitions when a dominant exact-match attribute covers enough of
// the rule set; kForce partitions whenever any partition subject exists
// (tests and the DSE use it to pin the layout).
enum class PartitionMode : std::uint8_t { kOff, kAuto, kForce };

struct CompileOptions {
  // Field ordering heuristic for the BDD variable order.
  bdd::OrderHeuristic order = bdd::OrderHeuristic::kDeclared;

  // Reduction (iii): domain-semantic pruning of implied predicates.
  // Reductions (i) and (ii) are structural invariants of the BDD manager
  // and cannot be disabled.
  bool semantic_prune = true;

  // Emit explicit entries for paths that reach the drop terminal (the
  // "(state, *) -> drop" rows of Figure 4). Off by default: a lookup miss
  // already drops at the leaf, so these entries are redundant — but they
  // make the printed tables match the paper figure exactly.
  bool emit_drop_entries = false;

  // Choose between per-interval range entries and a wildcard fallback
  // entry per state, whichever needs fewer entries (always sound; mirrors
  // the '*' rows in Figure 4).
  bool wildcard_fallback = true;

  // Use exact-match (SRAM) tables when every entry is a point, even if the
  // field was annotated @query_field (paper resource optimization #2).
  bool exact_match_optimization = true;

  // Map range fields with few distinct regions onto a narrow code domain
  // via a mapping stage (paper resource optimization #3).
  bool domain_compression = false;
  std::uint32_t compression_max_regions = 256;
  // Only compress a table when it has at least this many entries;
  // compressing tiny tables adds a stage for no TCAM win.
  std::size_t compression_min_entries = 8;

  // Workers of the partitioned compile (partition below): each compiles
  // whole shards with a private BddManager. 0 means one per hardware
  // thread. It sets only the wall time: the stitched program is the same
  // at every count. A monolithic compile always runs on the calling
  // thread and ignores it.
  std::size_t threads = 1;

  // Partitioned compilation: shard the rule set by the dominant
  // point-constrained attribute, compile every shard to an independent
  // sub-pipeline (own BddManager, own state range), and stitch the shards
  // behind a generated dispatch stage. Peak BDD size and compile memory
  // then scale with the largest shard instead of the whole union. The
  // stitched pipeline is equivalent to the monolithic one (proved by
  // camus::verify; see DESIGN.md "Compiling at scale").
  PartitionMode partition = PartitionMode::kOff;
  // kAuto only partitions rule sets at least this large; below it the
  // monolithic path is both faster and smaller.
  std::size_t partition_min_rules = 4096;
  // Also build the monolithic reference MTBDD (Compiled::manager/root) so
  // callers can run the equivalence checker against the stitched pipeline.
  // Costs the full union; off by default — without it a partitioned
  // Compiled carries a null manager.
  bool partition_reference = false;

  // Entry interning: after table generation, merge behaviourally
  // equivalent pipeline states (partition-refinement minimization of the
  // table state machine). Recovers the cross-shard suffix sharing that
  // hash-consing gives the monolithic BDD but partitioned compilation
  // loses, so stitched entry counts return to the monolithic scale.
  bool intern_entries = false;

  // Guard rails.
  std::size_t max_dnf_terms = 1 << 16;
  std::size_t max_paths_per_component = 10'000'000;
};

}  // namespace camus::compiler
