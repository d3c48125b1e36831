#include "table/pipeline.hpp"

#include <sstream>

#include "util/intern.hpp"
#include "util/stats.hpp"

namespace camus::table {

namespace {
const lang::ActionSet kDropActions{};
}  // namespace

ResourceUsage Table::resources() const {
  ResourceUsage u;
  u.logical_entries = entries_.size();
  for (const Entry& e : entries_) {
    switch (e.match.kind) {
      case ValueMatch::Kind::kExact:
        if (kind_ == MatchKind::kExact)
          ++u.sram_entries;
        else
          ++u.tcam_entries;  // a point is one TCAM entry
        break;
      case ValueMatch::Kind::kRange:
        u.tcam_entries +=
            tcam_entries_for_range(e.match.lo, e.match.hi, width_bits_);
        break;
      case ValueMatch::Kind::kAny:
        // Per-state wildcard fallback: one TCAM entry regardless of the
        // table's primary match kind.
        ++u.tcam_entries;
        break;
    }
  }
  return u;
}

Table* Pipeline::find_table(std::string_view name) {
  for (auto& t : value_maps)
    if (t.name() == name) return &t;
  for (auto& t : tables)
    if (t.name() == name) return &t;
  return nullptr;
}

const Table* Pipeline::find_table(std::string_view name) const {
  return const_cast<Pipeline*>(this)->find_table(name);
}

util::Result<bool> Pipeline::validate() const {
  for (const auto& t : value_maps)
    if (auto r = t.validate(); !r.ok()) return r;
  for (const auto& t : tables)
    if (auto r = t.validate(); !r.ok()) return r;
  for (const auto& e : leaf.entries()) {
    if (e.mcast_group && *e.mcast_group >= mcast.size())
      return util::Error{"leaf entry for state " + std::to_string(e.state) +
                         " references unknown multicast group " +
                         std::to_string(*e.mcast_group)};
  }
  return true;
}

const LeafEntry* Pipeline::evaluate(const lang::Env& env) const {
  if (value_maps.empty()) return evaluate_mapped(env);
  lang::Env mapped = env;
  for (const auto& m : value_maps) {
    const lang::Subject s = m.subject();
    const std::uint64_t raw = mapped.get(s);
    // The mapping stage partitions the whole domain, so a miss indicates a
    // compiler bug rather than a valid packet; map to code 0 defensively.
    const Entry* code = m.lookup(kInitialState, raw);
    auto& slot = s.kind == lang::Subject::Kind::kField
                     ? mapped.fields.at(s.id)
                     : mapped.states.at(s.id);
    slot = code ? code->next_state : 0;
  }
  return evaluate_mapped(mapped);
}

const LeafEntry* Pipeline::evaluate_mapped(const lang::Env& env) const {
  StateId state = initial_state;
  for (const auto& t : tables) {
    const std::uint64_t value = env.get(t.subject());
    if (const Entry* e = t.lookup(state, value)) state = e->next_state;
    // Miss: keep the current state (pass-through).
  }
  return leaf.lookup(state);
}

const lang::ActionSet& Pipeline::evaluate_actions(const lang::Env& env) const {
  const LeafEntry* e = evaluate(env);
  return e ? *e->actions : kDropActions;
}

ResourceUsage Pipeline::resources() const {
  ResourceUsage u;
  for (const auto& t : value_maps) u.accumulate(t.resources());
  for (const auto& t : tables) u.accumulate(t.resources());
  u.logical_entries += leaf.entries().size();
  u.sram_entries += leaf.entries().size();  // leaf matches state exactly
  u.stages = value_maps.size() + tables.size() + 1;
  u.multicast_groups = mcast.size();
  return u;
}

std::uint64_t Pipeline::total_entries() const {
  std::uint64_t n = leaf.entries().size();
  for (const auto& t : value_maps) n += t.entries().size();
  for (const auto& t : tables) n += t.entries().size();
  return n;
}

std::string Pipeline::to_dot() const {
  std::ostringstream os;
  os << "digraph pipeline {\n  rankdir=LR;\n  node [shape=circle];\n";
  // States that terminate in the leaf table render as boxes with actions.
  for (const auto& e : leaf.entries()) {
    os << "  s" << e.state << " [shape=box,label=\"" << e.state << "\\n"
       << e.actions->to_string() << "\"];\n";
  }
  std::size_t cluster = 0;
  auto emit_table = [&](const Table& t) {
    os << "  subgraph cluster_" << cluster++ << " {\n    label=\""
       << t.name() << " (" << table::to_string(t.kind()) << ")\";\n";
    os << "  }\n";
    for (const auto& e : t.entries()) {
      std::string label = e.match.to_string();
      if (t.is_symbol() && e.match.kind == ValueMatch::Kind::kExact)
        label = util::decode_symbol(e.match.lo);
      os << "  s" << e.state << " -> s" << e.next_state << " [label=\""
         << t.name() << ": " << label << "\"];\n";
    }
  };
  for (const auto& t : tables) emit_table(t);
  os << "}\n";
  return os.str();
}

Pipeline::Trace Pipeline::explain(const lang::Env& env) const {
  Trace trace;
  lang::Env mapped = env;
  for (const auto& m : value_maps) {
    TraceStep step;
    step.table = m.name();
    const lang::Subject s = m.subject();
    step.input_value = mapped.get(s);
    step.state_before = kInitialState;
    const Entry* code = m.lookup(kInitialState, step.input_value);
    step.hit = code != nullptr;
    step.state_after = code ? code->next_state : 0;
    if (step.hit) step.match = "code " + std::to_string(step.state_after);
    auto& slot = s.kind == lang::Subject::Kind::kField
                     ? mapped.fields.at(s.id)
                     : mapped.states.at(s.id);
    slot = step.state_after;
    trace.steps.push_back(std::move(step));
  }

  StateId state = initial_state;
  for (const auto& t : tables) {
    TraceStep step;
    step.table = t.name();
    step.input_value = mapped.get(t.subject());
    step.state_before = state;
    const Entry* e = t.lookup(state, step.input_value);
    step.hit = e != nullptr;
    if (e) {
      state = e->next_state;
      step.match = t.is_symbol() && e->match.kind == ValueMatch::Kind::kExact
                       ? util::decode_symbol(e->match.lo)
                       : e->match.to_string();
    }
    step.state_after = state;
    trace.steps.push_back(std::move(step));
  }
  trace.final_state = state;
  const LeafEntry* leaf_entry = leaf.lookup(state);
  trace.leaf_hit = leaf_entry != nullptr;
  if (leaf_entry) trace.actions = *leaf_entry->actions;
  return trace;
}

std::string Pipeline::Trace::to_string() const {
  std::ostringstream os;
  for (const auto& s : steps) {
    os << "  " << s.table << ": value=" << s.input_value << " state "
       << s.state_before << " -> ";
    if (s.hit)
      os << s.state_after << " (matched " << s.match << ")";
    else
      os << s.state_after << " (miss, pass-through)";
    os << "\n";
  }
  os << "  leaf: state " << final_state << " -> "
     << (leaf_hit ? actions.to_string() : std::string("miss -> drop()"))
     << "\n";
  return os.str();
}

std::string Pipeline::to_string() const {
  std::ostringstream os;
  for (const auto& t : value_maps) {
    os << t.name() << " ValueMap (" << table::to_string(t.kind()) << ", "
       << t.width_bits() << "b)\n";
    util::TextTable tt({"match", "code"});
    for (const auto& e : t.entries())
      tt.add_row({e.match.to_string(), std::to_string(e.next_state)});
    os << tt.to_string() << "\n";
  }
  for (const auto& t : tables) {
    os << t.name() << " Table (" << table::to_string(t.kind()) << ", "
       << t.width_bits() << "b)\n";
    util::TextTable tt({"state", "match", "action"});
    for (const auto& e : t.entries()) {
      std::string match = e.match.to_string();
      if (t.is_symbol() && e.match.kind == ValueMatch::Kind::kExact)
        match = util::decode_symbol(e.match.lo);
      tt.add_row({std::to_string(e.state), std::move(match),
                  "state <- " + std::to_string(e.next_state)});
    }
    os << tt.to_string() << "\n";
  }
  os << "Leaf Table\n";
  util::TextTable tt({"state", "action"});
  for (const auto& e : leaf.entries()) {
    std::string action = e.actions->to_string();
    if (e.mcast_group) action += "  [mcast group " +
                                 std::to_string(*e.mcast_group) + "]";
    tt.add_row({std::to_string(e.state), action});
  }
  os << tt.to_string();
  return os.str();
}

}  // namespace camus::table
