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

}  // namespace

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
  auto& state_of_raw = alloc.ids;
  auto assign = [&](NodeRef r) {
    auto [it, inserted] = state_of_raw.emplace(r.raw(), alloc.next);
    if (inserted) ++alloc.next;
    return it->second;
  };
  // The root is the initial state; then In nodes in component order; then
  // terminals (mirrors the compact numbering of the paper's Figure 4).
  pipe.initial_state = assign(root);
  for (const auto& [rank, nodes] : a.components) {
    for (NodeRef r : nodes)
      if (a.in_nodes.count(r.raw())) assign(r);
  }
  for (NodeRef t : a.terminals) assign(t);

  const NodeRef drop_term = mgr.drop();

  // --- per-component table generation ------------------------------------
  for (const auto& [rank, nodes] : a.components) {
    const Subject subj = mgr.order().subjects()[rank];
    const SubjectInfo info = subject_info(subj, schema);
    const std::uint64_t umax = mgr.domains().umax(subj);
    std::unordered_set<std::uint32_t> in_component;
    for (NodeRef r : nodes) in_component.insert(r.raw());

    ++result.stats.components;
    std::vector<Entry> entries;
    bool has_range_entry = false;
    bool all_points = true;

    for (NodeRef u : nodes) {
      if (!a.in_nodes.count(u.raw())) continue;
      ++result.stats.in_nodes;

      // Enumerate all paths from u through this component, accumulating
      // per-Out-node value sets (Algorithm 1 lines 5-9, with ranges for
      // the same (u, v) pair unioned).
      std::map<std::uint32_t, IntervalSet> out_ranges;  // raw ref -> values
      bool budget_exceeded = false;
      std::function<void(NodeRef, const IntervalSet&)> walk =
          [&](NodeRef n, const IntervalSet& range) {
            if (budget_exceeded) return;
            if (++result.stats.paths_enumerated >
                opts.max_paths_per_component) {
              budget_exceeded = true;
              return;
            }
            if (n.is_terminal() || !in_component.count(n.raw())) {
              auto [it, inserted] = out_ranges.emplace(n.raw(), range);
              if (!inserted) it->second = it->second.unite(range);
              return;
            }
            const auto& node = mgr.node(n);
            const auto& p = mgr.var_pred(node.var);
            const IntervalSet tv =
                lang::predicate_values(p.op, p.value, true, umax);
            const IntervalSet hi = range.intersect(tv);
            const IntervalSet lo = range.subtract(tv);
            if (!hi.is_empty()) walk(node.hi, hi);
            if (!lo.is_empty()) walk(node.lo, lo);
          };
      walk(u, IntervalSet::all(umax));
      if (budget_exceeded) {
        return util::Error{
            "Algorithm 1: path budget exceeded in component '" + info.name +
                "'",
            0, 0, "E130"};
      }

      // Split successors into drop vs live.
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
          info.hint == spec::MatchHint::kExact ? 8 : 1;
      auto emit_set = [&](const IntervalSet& set, StateId next) {
        if (set.is_all(umax)) {
          entries.push_back({u_state, ValueMatch::any(), next});
          return;
        }
        for (const auto& iv : set.intervals()) {
          const std::uint64_t count = iv.hi - iv.lo;  // values - 1
          if (count == 0) {
            entries.push_back({u_state, ValueMatch::exact(iv.lo), next});
          } else if (count < expand_limit) {
            for (std::uint64_t v = iv.lo;; ++v) {
              entries.push_back({u_state, ValueMatch::exact(v), next});
              if (v == iv.hi) break;
            }
          } else {
            entries.push_back(
                {u_state, ValueMatch::range(iv.lo, iv.hi), next});
            has_range_entry = true;
            all_points = false;
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
          opts.emit_drop_entries && opts.wildcard_fallback &&
                  !drop_set.is_empty()
              ? 1 + live_intervals
              : SIZE_MAX;

      if (cost_c <= cost_a && cost_c <= cost_b) {
        for (const auto& [raw, set] : live)
          emit_set(*set, state_of_raw.at(raw));
        entries.push_back(
            {u_state, ValueMatch::any(), state_of_raw.at(drop_term.raw())});
      } else if (cost_b <= cost_a) {
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (i == best) continue;
          emit_set(*live[i].second, state_of_raw.at(live[i].first));
        }
        if (!drop_set.is_empty())
          emit_set(drop_set, state_of_raw.at(drop_term.raw()));
        entries.push_back({u_state, ValueMatch::any(),
                           state_of_raw.at(live[best].first)});
      } else {
        for (const auto& [raw, set] : live)
          emit_set(*set, state_of_raw.at(raw));
        if (opts.emit_drop_entries && !drop_set.is_empty())
          emit_set(drop_set, state_of_raw.at(drop_term.raw()));
      }
    }

    // Match kind: honour the @query_field_exact hint; otherwise use exact
    // (SRAM) when every entry is a point (resource optimization #2).
    table::MatchKind kind = table::MatchKind::kRange;
    if (!has_range_entry &&
        (info.hint == spec::MatchHint::kExact ||
         (opts.exact_match_optimization && all_points))) {
      kind = table::MatchKind::kExact;
    }
    table::Table t(info.name, subj, kind, info.width_bits);
    t.set_symbol(info.symbol);
    for (const Entry& e : entries) t.add_entry(e);
    result.stats.stage_entries.push_back({info.name, entries.size()});
    pipe.tables.push_back(std::move(t));
  }

  // --- leaf table ---------------------------------------------------------
  // Each entry shares its terminal's set, as does a group it creates.
  for (NodeRef t : a.terminals) {
    const lang::ActionSetPtr& actions = mgr.terminal_set(t);
    if (actions->is_drop() && !opts.emit_drop_entries) continue;
    LeafEntry e;
    e.state = state_of_raw.at(t.raw());
    e.actions = actions;
    if (actions->ports.size() > 1) e.mcast_group = pipe.mcast.intern(actions);
    pipe.leaf.add_entry(std::move(e));
  }

  result.stats.leaf_entries = pipe.leaf.entries().size();

  pipe.finalize();
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
    table::Table t(info.name, s,
                   info.hint == spec::MatchHint::kExact
                       ? table::MatchKind::kExact
                       : table::MatchKind::kRange,
                   info.width_bits);
    t.set_symbol(info.symbol);
    pipe.tables.insert(pipe.tables.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(t));
    ++pos;
  }
  // Index the inserted stages eagerly: lazy finalization mutates shared
  // state under a const API, a data race for concurrent evaluators.
  pipe.finalize();
}

}  // namespace camus::compiler
