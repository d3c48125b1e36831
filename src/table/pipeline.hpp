// A compiled packet-processing pipeline: the fixed-length sequence of
// per-field match-action tables plus the leaf table and multicast groups
// (paper Figure 4). Pure state-machine evaluation lives here; the switch
// simulator adds packet parsing, registers, and port replication on top.
#pragma once

#include <string>
#include <vector>

#include "table/table.hpp"

namespace camus::table {

class Pipeline {
 public:
  // Optional value-mapping stages produced by the domain-compression
  // optimization: each maps one subject's raw value onto a narrow code
  // domain via range entries (the Entry::state key is unused and fixed to
  // kInitialState). The subject's main table then matches codes.
  std::vector<Table> value_maps;
  std::vector<Table> tables;  // in BDD field order
  LeafTable leaf;
  MulticastGroups mcast;
  StateId initial_state = kInitialState;

  // Structural soundness of every stage (disjoint range entries). The
  // compiler runs this after table generation and the deserializer after
  // loading, so malformed pipelines are rejected at install time, not
  // mid-simulation.
  util::Result<bool> validate() const;

  // Looks a stage up by name across value_maps and tables (the delta
  // apply path addresses tables by name). nullptr when absent.
  Table* find_table(std::string_view name);
  const Table* find_table(std::string_view name) const;

  // Runs the state machine over the given field/state values. Returns the
  // matched leaf entry, or nullptr for drop. This is the reference scan
  // (Table::lookup reads each stage's entries); the switch classifies
  // through the lowered CompiledPipeline, which is tested against it.
  const LeafEntry* evaluate(const lang::Env& env) const;

  // Convenience: the merged ActionSet for the packet (empty set == drop).
  const lang::ActionSet& evaluate_actions(const lang::Env& env) const;

  ResourceUsage resources() const;

  // Total logical entries across field tables and the leaf table — the
  // quantity plotted in Figures 5a/5b and reported for Figure 5c.
  std::uint64_t total_entries() const;

  // Figure 4-style rendering of every table.
  std::string to_string() const;

  // GraphViz rendering of the pipeline as a state machine: one cluster per
  // stage, edges labelled with the value match that takes them.
  std::string to_dot() const;

  // --- debugging -----------------------------------------------------
  // One stage of an explained evaluation.
  struct TraceStep {
    std::string table;
    std::uint64_t input_value = 0;   // field value presented to the stage
    StateId state_before = 0;
    bool hit = false;                // miss = state passes through
    std::string match;               // matched entry's match, if hit
    StateId state_after = 0;
  };
  struct Trace {
    std::vector<TraceStep> steps;
    StateId final_state = 0;
    bool leaf_hit = false;
    lang::ActionSet actions;  // empty = drop

    std::string to_string() const;
  };

  // evaluate() with a step-by-step record — the debugging view of the
  // state machine walk (value-map stages included).
  Trace explain(const lang::Env& env) const;

 private:
  const LeafEntry* evaluate_mapped(const lang::Env& env) const;
};

}  // namespace camus::table
