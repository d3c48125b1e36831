// The dynamic compilation step (paper §3): subscription rules -> DNF ->
// multi-terminal BDD -> (Algorithm 1) -> match-action table entries and
// multicast groups. Re-run whenever the subscription set changes.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "compiler/algorithm1.hpp"
#include "compiler/compress.hpp"
#include "compiler/options.hpp"
#include "lang/bound.hpp"
#include "spec/schema.hpp"
#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::compiler {

// Telemetry for one shard of the partitioned compile (partition.*).
struct ShardStats {
  std::size_t rules = 0;      // flat rules assigned to this shard
  std::size_t bdd_nodes = 0;  // shard-local manager node-table size
  double t_seconds = 0;       // shard compile wall time on its worker
  std::size_t manager_bytes = 0;  // shard manager arena footprint
};

// Process/arena memory telemetry (the compile-scale memory gate).
struct MemStats {
  std::uint64_t rss_before = 0;       // current RSS at compile entry
  std::uint64_t rss_after_build = 0;  // after BDD build+union (or shards)
  std::uint64_t rss_after_tables = 0; // after table generation + rewrites
  std::uint64_t peak_rss = 0;         // process high-water mark at exit
  // Master-manager arena bytes on the monolithic path; the *largest
  // single shard's* arena on the partitioned path (that is the quantity
  // partitioning bounds).
  std::uint64_t bdd_bytes = 0;
};

// Compile-phase telemetry: per-phase wall time, BDD node counts,
// unique-table/memo hit rates, per-stage table entries, and shard sizes.
// Serialized as JSON (to_json) so benches and tools can emit
// machine-readable profiles; the schema is documented in DESIGN.md.
struct CompileStats {
  std::size_t rule_count = 0;
  std::size_t dnf_terms = 0;

  bdd::BddStats bdd_before_prune;
  bdd::BddStats bdd_after_prune;
  // Unique-table sizes and memo probe/hit totals of the compile's BDD
  // manager. On the partitioned path these and the node, terminal and
  // variable counts above sum over the shard managers, whether or not a
  // reference is built.
  bdd::CacheStats cache;
  TableGenStats tablegen;

  std::uint64_t total_entries = 0;
  std::size_t multicast_groups = 0;

  // Partitioned path: number of workers actually used and per-shard
  // telemetry. A monolithic compile is serial: threads_used == 1 and
  // shards empty.
  std::size_t threads_used = 1;
  std::vector<ShardStats> shards;

  // Partitioned-output path (compiler/partition.*): shard count (value
  // shards + default), the dispatch attribute's display name, and the
  // stitch wall time. partition_groups == 0 means the monolithic path ran.
  std::size_t partition_groups = 0;
  std::string partition_subject;
  double t_stitch = 0;
  // Non-empty when partitioned output was requested (kForce, or kAuto at
  // or above partition_min_rules) but this compile ran monolithically —
  // e.g. an IncrementalCompiler commit, whose persistent-manager path has
  // no partitioned variant (diagnostic I130). Silent before this field:
  // callers saw partition_groups == 0 with no explanation.
  std::string partition_fallback;

  // Entry interning (intern_entries); interned == false when the pass did
  // not run and the counters are zero.
  bool interned = false;
  InternStats intern;

  // Peak-RSS and arena-bytes telemetry (always collected; zeros only on
  // platforms without a measurement).
  MemStats mem;

  // Wall-clock breakdown in seconds. On the partitioned path t_build
  // covers the concurrent per-shard compiles (build+union+prune+tables
  // inside each shard), t_stitch the deterministic merge, t_tables the
  // post-stitch rewrites (interning, domain compression), and t_union the
  // optional reference-MTBDD build (partition_reference).
  double t_flatten = 0;
  double t_build = 0;
  double t_union = 0;
  double t_prune = 0;
  double t_tables = 0;
  double t_total = 0;

  std::string to_string() const;

  // Machine-readable profile (parse with util::json). Stable key schema —
  // see DESIGN.md "Compile sharding & telemetry".
  std::string to_json() const;
};

struct Compiled {
  table::Pipeline pipeline;
  CompileStats stats;

  // The BDD is kept alive so callers can render it (quickstart example,
  // debugging) without recompiling. On the partitioned path no monolithic
  // MTBDD exists — manager is null unless partition_reference asked for
  // one (root is then the reference the equivalence checker verifies the
  // stitched pipeline against).
  std::shared_ptr<bdd::BddManager> manager;
  bdd::NodeRef root;
};

// Compiles already-bound rules. A monolithic compile runs on the calling
// thread; a partitioned one (opts.partition) compiles its shards on
// opts.threads workers. Either way the program depends only on the rules
// and the options other than threads: it is byte-identical at every
// thread count.
util::Result<Compiled> compile_rules(const spec::Schema& schema,
                                     const std::vector<lang::BoundRule>& rules,
                                     const CompileOptions& opts = {});

// Parses, binds, and compiles subscription source text.
util::Result<Compiled> compile_source(const spec::Schema& schema,
                                      std::string_view rules_text,
                                      const CompileOptions& opts = {});

}  // namespace camus::compiler
