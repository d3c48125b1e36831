// Domain compression (paper resource optimization #3): "some fields will
// probably have only a few unique range predicates. The compiler can map
// values for that field and the corresponding range predicates onto a
// lower-resolution domain (e.g., 8-bits)."
//
// For a range table whose entries induce at most compression_max_regions
// distinct value regions, a mapping stage translates the raw field value
// into a dense region code, and the main table is rewritten to match codes
// on a narrow key. The mapping table pays one TCAM range entry per region
// *once*, instead of per (state, range) pair, and the rewritten matches
// need far fewer TCAM bits.
#pragma once

#include <cstddef>

#include "compiler/options.hpp"
#include "table/pipeline.hpp"

namespace camus::compiler {

// Rewrites eligible tables in place and appends mapping stages to
// pipeline.value_maps. Returns how many tables were compressed.
std::size_t compress_domains(table::Pipeline& pipeline,
                             const CompileOptions& opts);

// Telemetry for intern_entries (CompileStats::to_json "intern" block).
struct InternStats {
  std::size_t states_before = 0;
  std::size_t states_after = 0;   // equivalence classes kept
  std::size_t entries_before = 0; // field-table + leaf entries
  std::size_t entries_after = 0;
  std::size_t iterations = 0;     // refinement rounds to fixpoint
};

// Entry interning: partition-refinement minimization of the pipeline's
// state machine (Moore-style DFA minimization adapted to the
// miss-passes-through walk). Two states merge when they carry the same
// leaf observation and, table by table, the same (match -> class of next
// state) transition lists — the table-level analogue of the BDD's
// isomorphic-node sharing, applied across sub-pipelines the stitched
// partitioned compile glued together with disjoint state ranges.
//
// Sound under the pipeline semantics because a lookup miss keeps the
// current state: within one class a miss sends every member to the same
// class (its own), and equal transition lists induce the same hit regions
// with class-equal successors, so by backwards induction over the stages
// equal-class states reach leaf-equal observations on every packet.
// Dedupe of isomorphic leaf regions and shared ActionSet suffixes falls
// out: identical-action terminals collapse first, then the chains feeding
// them collapse level by level.
//
// Value-map stages are untouched (their entries are keyed on the constant
// kInitialState, not on pipeline states). Tables left with no entries are
// removed — an empty stage is pass-through.
InternStats intern_entries(table::Pipeline& pipeline);

}  // namespace camus::compiler
