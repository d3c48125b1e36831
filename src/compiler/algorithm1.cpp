#include "compiler/algorithm1.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "lang/dnf.hpp"

namespace camus::compiler {

using bdd::BddManager;
using bdd::NodeRef;
using lang::Subject;
using table::Entry;
using table::LeafEntry;
using table::StateId;
using table::ValueMatch;
using util::IntervalSet;

namespace {

struct Analysis {
  // Reachable non-terminal nodes grouped by subject rank, each vector in
  // ascending node-index order (deterministic output).
  std::map<std::size_t, std::vector<NodeRef>> components;
  std::unordered_set<std::uint32_t> in_nodes;        // raw refs
  std::vector<NodeRef> terminals;                    // discovery order
};

Analysis analyze(const BddManager& mgr, NodeRef root) {
  Analysis a;
  std::unordered_set<std::uint32_t> seen;
  std::set<std::uint32_t> seen_terms;
  std::vector<NodeRef> stack{root};
  std::vector<NodeRef> order_found;
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_terminal()) {
      if (seen_terms.insert(r.index()).second) a.terminals.push_back(r);
      continue;
    }
    if (!seen.insert(r.raw()).second) continue;
    order_found.push_back(r);
    const auto& n = mgr.node(r);
    const Subject subj = mgr.subject_of(r);
    for (NodeRef child : {n.hi, n.lo}) {
      if (!child.is_terminal() && mgr.subject_of(child) != subj)
        a.in_nodes.insert(child.raw());
      stack.push_back(child);
    }
  }
  if (!root.is_terminal()) a.in_nodes.insert(root.raw());

  for (NodeRef r : order_found)
    a.components[mgr.order().rank(mgr.subject_of(r))].push_back(r);
  for (auto& [rank, nodes] : a.components) {
    std::sort(nodes.begin(), nodes.end(),
              [](NodeRef x, NodeRef y) { return x.index() < y.index(); });
  }
  // Stable terminal order for state assignment.
  std::sort(a.terminals.begin(), a.terminals.end(),
            [](NodeRef x, NodeRef y) { return x.index() < y.index(); });
  return a;
}

// Subject display name, match hint, and width from the schema.
struct SubjectInfo {
  std::string name;
  spec::MatchHint hint = spec::MatchHint::kRange;
  std::uint32_t width_bits = 64;
  bool symbol = false;
};

SubjectInfo subject_info(Subject s, const spec::Schema& schema) {
  SubjectInfo info;
  if (s.kind == Subject::Kind::kField) {
    const auto& f = schema.field(s.id);
    info.name = f.path();
    info.hint = f.hint;
    info.width_bits = f.width_bits;
    info.symbol = f.kind == spec::FieldKind::kSymbol;
  } else {
    const auto& v = schema.state_var(s.id);
    info.name = v.name;
    info.hint = spec::MatchHint::kRange;
    info.width_bits = v.width_bits;
  }
  return info;
}

// An empty stage for subject s.
table::Table make_stage(Subject s, const spec::Schema& schema,
                        table::MatchKind kind) {
  const SubjectInfo info = subject_info(s, schema);
  table::Table t(info.name, s, kind, info.width_bits);
  t.set_symbol(info.symbol);
  return t;
}

}  // namespace

util::Result<bool> in_node_entries(const BddManager& mgr, NodeRef u,
                                   const spec::Schema& schema,
                                   const CompileOptions& opts,
                                   const StateAllocator& states,
                                   std::size_t& paths,
                                   std::vector<Entry>& out) {
  const Subject subj = mgr.subject_of(u);
  const std::uint64_t umax = mgr.domains().umax(subj);
  const auto& state_of_raw = states.ids;

  // Enumerate all paths from u through its component, accumulating
  // per-Out-node value sets (Algorithm 1 lines 5-9, with ranges for the
  // same (u, v) pair unioned). Every node reached from u is reachable, so
  // a node of u's own subject is in u's component and any other is an
  // Out node.
  std::map<std::uint32_t, IntervalSet> out_ranges;  // raw ref -> values
  bool budget_exceeded = false;
  std::function<void(NodeRef, const IntervalSet&)> walk =
      [&](NodeRef n, const IntervalSet& range) {
        if (budget_exceeded) return;
        if (++paths > opts.max_paths_per_component) {
          budget_exceeded = true;
          return;
        }
        if (n.is_terminal() || mgr.subject_of(n) != subj) {
          auto [it, inserted] = out_ranges.emplace(n.raw(), range);
          if (!inserted) it->second = it->second.unite(range);
          return;
        }
        const auto& node = mgr.node(n);
        const auto& p = mgr.var_pred(node.var);
        const IntervalSet tv = lang::predicate_values(p.op, p.value, true, umax);
        const IntervalSet hi = range.intersect(tv);
        const IntervalSet lo = range.subtract(tv);
        if (!hi.is_empty()) walk(node.hi, hi);
        if (!lo.is_empty()) walk(node.lo, lo);
      };
  walk(u, IntervalSet::all(umax));
  if (budget_exceeded) {
    return util::Error{"Algorithm 1: path budget exceeded in component '" +
                           subject_info(subj, schema).name + "'",
                       0, 0, "E130"};
  }

  // Split successors into drop vs live.
  const NodeRef drop_term = mgr.drop();
  IntervalSet drop_set;
  std::vector<std::pair<std::uint32_t, const IntervalSet*>> live;
  for (const auto& [raw, set] : out_ranges) {
    if (raw == drop_term.raw())
      drop_set = set;
    else
      live.emplace_back(raw, &set);
  }

  const StateId u_state = state_of_raw.at(u.raw());
  // On exact-hinted fields, short runs of adjacent values (e.g. two
  // merged identifiers) are emitted as individual exact entries so the
  // table stays SRAM-resident instead of degrading to a range table.
  const std::uint64_t expand_limit =
      subject_info(subj, schema).hint == spec::MatchHint::kExact ? 8 : 1;
  bool has_range_entry = false;
  auto emit_set = [&](const IntervalSet& set, StateId next) {
    if (set.is_all(umax)) {
      out.push_back({u_state, ValueMatch::any(), next});
      return;
    }
    for (const auto& iv : set.intervals()) {
      const std::uint64_t count = iv.hi - iv.lo;  // values - 1
      if (count == 0) {
        out.push_back({u_state, ValueMatch::exact(iv.lo), next});
      } else if (count < expand_limit) {
        for (std::uint64_t v = iv.lo;; ++v) {
          out.push_back({u_state, ValueMatch::exact(v), next});
          if (v == iv.hi) break;
        }
      } else {
        out.push_back({u_state, ValueMatch::range(iv.lo, iv.hi), next});
        has_range_entry = true;
      }
    }
  };

  // Choose among three sound encodings for this state's successors
  // (Figure 4 uses the '*' rows of options B/C):
  //  A: one entry per interval of every live successor; drop paths are
  //     implicit (lookup miss -> leaf miss -> drop) unless
  //     emit_drop_entries asks for them.
  //  B: wildcard fallback to the bulkiest live successor; every other
  //     successor AND the drop region become explicit (the wildcard
  //     would otherwise swallow drop traffic).
  //  C: explicit live entries plus a wildcard to the drop state; only
  //     meaningful when drop entries are materialized at all.
  // Ties prefer C, then B: a wildcard plus points is far cheaper in
  // TCAM than the multi-interval complements it replaces.
  std::size_t live_intervals = 0;
  std::size_t best = live.size();  // index of wildcard candidate
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::size_t c = live[i].second->intervals().size();
    live_intervals += c;
    if (c > best_count) {
      best_count = c;
      best = i;
    }
  }
  const std::size_t drop_intervals = drop_set.intervals().size();
  const std::size_t cost_a =
      live_intervals + (opts.emit_drop_entries ? drop_intervals : 0);
  const std::size_t cost_b =
      live.empty() || !opts.wildcard_fallback
          ? SIZE_MAX
          : 1 + (live_intervals - best_count) + drop_intervals;
  const std::size_t cost_c =
      opts.emit_drop_entries && opts.wildcard_fallback && !drop_set.is_empty()
          ? 1 + live_intervals
          : SIZE_MAX;

  if (cost_c <= cost_a && cost_c <= cost_b) {
    for (const auto& [raw, set] : live) emit_set(*set, state_of_raw.at(raw));
    out.push_back(
        {u_state, ValueMatch::any(), state_of_raw.at(drop_term.raw())});
  } else if (cost_b <= cost_a) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i == best) continue;
      emit_set(*live[i].second, state_of_raw.at(live[i].first));
    }
    if (!drop_set.is_empty())
      emit_set(drop_set, state_of_raw.at(drop_term.raw()));
    out.push_back(
        {u_state, ValueMatch::any(), state_of_raw.at(live[best].first)});
  } else {
    for (const auto& [raw, set] : live) emit_set(*set, state_of_raw.at(raw));
    if (opts.emit_drop_entries && !drop_set.is_empty())
      emit_set(drop_set, state_of_raw.at(drop_term.raw()));
  }
  return has_range_entry;
}

table::MatchKind stage_kind(const spec::Schema& schema, Subject s,
                            const CompileOptions& opts, bool component,
                            bool has_range) {
  // Honour the @query_field_exact hint; otherwise use exact (SRAM) when
  // every entry of a generated stage is a point (resource optimization
  // #2). A materialized empty stage follows the hint alone.
  const bool exact_hint =
      subject_info(s, schema).hint == spec::MatchHint::kExact;
  return !has_range &&
                 (exact_hint || (component && opts.exact_match_optimization))
             ? table::MatchKind::kExact
             : table::MatchKind::kRange;
}

util::Result<TableGenResult> bdd_to_tables(const BddManager& mgr,
                                           NodeRef root,
                                           const spec::Schema& schema,
                                           const CompileOptions& opts,
                                           StateAllocator* states) {
  TableGenResult result;
  table::Pipeline& pipe = result.pipeline;

  const Analysis a = analyze(mgr, root);

  // --- state assignment -------------------------------------------------
  StateAllocator local;
  StateAllocator& alloc = states ? *states : local;
  // The root is the initial state; then In nodes in component order; then
  // terminals (mirrors the compact numbering of the paper's Figure 4).
  pipe.initial_state = alloc.assign(root);
  for (const auto& [rank, nodes] : a.components) {
    for (NodeRef r : nodes)
      if (a.in_nodes.count(r.raw())) alloc.assign(r);
  }
  for (NodeRef t : a.terminals) alloc.assign(t);

  // --- per-component table generation ------------------------------------
  for (const auto& [rank, nodes] : a.components) {
    const Subject subj = mgr.order().subjects()[rank];
    ++result.stats.components;
    std::vector<Entry> entries;
    bool has_range_entry = false;
    for (NodeRef u : nodes) {
      if (!a.in_nodes.count(u.raw())) continue;
      ++result.stats.in_nodes;
      auto emitted = in_node_entries(mgr, u, schema, opts, alloc,
                                     result.stats.paths_enumerated, entries);
      if (!emitted.ok()) return emitted.error();
      has_range_entry |= emitted.value();
    }
    table::Table t = make_stage(
        subj, schema, stage_kind(schema, subj, opts, true, has_range_entry));
    for (const Entry& e : entries) t.add_entry(e);
    result.stats.stage_entries.push_back({t.name(), entries.size()});
    pipe.tables.push_back(std::move(t));
  }
  result.stats.in_nodes_regenerated = result.stats.in_nodes;

  // --- leaf table ---------------------------------------------------------
  // Each entry shares its terminal's set, as does a group it creates.
  for (NodeRef t : a.terminals) {
    const lang::ActionSetPtr& actions = mgr.terminal_set(t);
    if (actions->is_drop() && !opts.emit_drop_entries) continue;
    LeafEntry e;
    e.state = alloc.ids.at(t.raw());
    e.actions = actions;
    if (actions->ports.size() > 1) e.mcast_group = pipe.mcast.intern(actions);
    pipe.leaf.add_entry(std::move(e));
  }

  result.stats.leaf_entries = pipe.leaf.entries().size();

  // Range entries for one state come from disjoint BDD branches; an
  // overlap indicates a compiler bug. Surface it through the error path
  // callers already handle rather than aborting the caller.
  if (auto valid = pipe.validate(); !valid.ok()) {
    util::Error e = valid.error();
    e.code = "E131";
    e.message = "Algorithm 1: generated pipeline failed validation: " +
                e.message;
    return e;
  }
  return result;
}

void materialize_stages(table::Pipeline& pipe, const BddManager& mgr,
                        const spec::Schema& schema) {
  // pipe.tables is already in rank order (bdd_to_tables emits components
  // in BDD order), so one forward merge pass places every missing stage.
  std::size_t pos = 0;
  for (const Subject s : mgr.order().subjects()) {
    const SubjectInfo info = subject_info(s, schema);
    if (pos < pipe.tables.size() && pipe.tables[pos].name() == info.name) {
      ++pos;
      continue;
    }
    pipe.tables.insert(
        pipe.tables.begin() + static_cast<std::ptrdiff_t>(pos),
        make_stage(s, schema, stage_kind(schema, s, {}, false, false)));
    ++pos;
  }
}

}  // namespace camus::compiler
