// Algorithm 1 from the paper: translating the BDD into per-field
// match-action tables.
//
// For each field f (in BDD order), the subgraph of nodes predicating on f
// forms a component C_f. Nodes entered from outside C_f are its In nodes;
// nodes outside C_f reached from within are its Out nodes. For every path
// from an In node u through C_f to an Out node v, the entry
// (state(u), range) -> state(v) is added to f's table, where range is the
// intersection of the (possibly negated) predicates along the path.
//
// Extensions beyond the paper's pseudocode, both entry-count optimizations
// visible in its Figure 4:
//  - ranges for all paths u -> v are unioned before emission, so contiguous
//    value regions with the same successor collapse into one entry;
//  - per In state, the successor with the most intervals may be encoded as
//    a wildcard fallback entry ('*' rows) when that is cheaper.
#pragma once

#include "bdd/bdd.hpp"
#include "compiler/options.hpp"
#include "spec/schema.hpp"
#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::compiler {

struct TableGenStats {
  std::size_t components = 0;         // non-empty field components
  std::size_t in_nodes = 0;           // total In nodes across components
  // In nodes whose entries this compile generated: all of them on a cold
  // compile; on an incremental commit, the root and the In nodes that are
  // new since the last commit.
  std::size_t in_nodes_regenerated = 0;
  std::size_t paths_enumerated = 0;   // DFS path segments walked

  // Per-stage telemetry: entries emitted for each field table, in pipeline
  // order, plus the leaf table (the CompileStats JSON "stages" array).
  struct StageEntries {
    std::string table;
    std::size_t entries = 0;
  };
  std::vector<StageEntries> stage_entries;
  std::size_t leaf_entries = 0;
};

struct TableGenResult {
  table::Pipeline pipeline;
  TableGenStats stats;
};

// Persistent BDD-node -> pipeline-state mapping. Hash-consed BDD nodes are
// stable across recompilations within one manager, so sharing an allocator
// between commits keeps state ids — and therefore unchanged table
// entries — identical. This is what makes the incremental compiler's
// table-entry re-use work (paper §3: "state updates can benefit from
// table entry re-use").
struct StateAllocator {
  std::unordered_map<std::uint32_t, table::StateId> ids;  // by NodeRef raw
  table::StateId next = table::kInitialState;

  // r's id, allocating the next one when r has none.
  table::StateId assign(bdd::NodeRef r) {
    auto [it, inserted] = ids.emplace(r.raw(), next);
    if (inserted) ++next;
    return it->second;
  }
};

// Algorithm 1 for one In node `u`: appends to `out` the entries
// (state(u), range) -> state(v) for every Out node v reached from u
// through u's field component, with the per-successor range union and the
// wildcard encodings described above. The entries depend only on u's
// subgraph and on the state ids of its Out nodes, which `states` must
// already hold, so an In node whose id survives a recompilation keeps
// exactly the entries it had: the incremental compiler regenerates only
// the In nodes that are new. `paths` accumulates the DFS path segments
// walked; E130 once it exceeds opts.max_paths_per_component. Returns
// whether a range entry was emitted.
util::Result<bool> in_node_entries(const bdd::BddManager& mgr, bdd::NodeRef u,
                                   const spec::Schema& schema,
                                   const CompileOptions& opts,
                                   const StateAllocator& states,
                                   std::size_t& paths,
                                   std::vector<table::Entry>& out);

// The match kind of subject `s`'s stage: kRange once it holds a range
// entry; otherwise exact (SRAM) when the field is exact-hinted or, for a
// stage generated from a non-empty `component`, when
// opts.exact_match_optimization applies (every entry is a point). A
// materialized empty stage follows the hint alone.
table::MatchKind stage_kind(const spec::Schema& schema, lang::Subject s,
                            const CompileOptions& opts, bool component,
                            bool has_range);

// Translates the BDD rooted at `root` into a pipeline.
// Diagnostics (never throws — E1xx convention, so controller recovery
// paths stay exception-free):
//   E130  path enumeration exceeded opts.max_paths_per_component
//         (pathological, unreduced BDDs)
//   E131  generated pipeline failed structural validation (compiler bug)
// With a null `states`, state ids are numbered fresh per call (compact,
// Figure 4-style); passing a persistent allocator keeps them stable.
util::Result<TableGenResult> bdd_to_tables(const bdd::BddManager& mgr,
                                           bdd::NodeRef root,
                                           const spec::Schema& schema,
                                           const CompileOptions& opts,
                                           StateAllocator* states = nullptr);

// Structural stability for entry-level deltas: inserts an empty table for
// every order subject that has none, keeping rank order. An empty stage is
// semantically neutral — a lookup miss passes the state through — but its
// presence guarantees that a later commit whose function starts depending
// on the subject can ship entries to a stage the switch already has,
// instead of targeting an unknown table (U001). The incremental compiler
// calls this on every commit; the batch compiler does not, so Figure-4
// pipelines stay minimal.
void materialize_stages(table::Pipeline& pipe, const bdd::BddManager& mgr,
                        const spec::Schema& schema);

}  // namespace camus::compiler
