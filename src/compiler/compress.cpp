#include "compiler/compress.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

namespace camus::compiler {

using table::Entry;
using table::LeafEntry;
using table::StateId;
using table::Table;
using table::ValueMatch;

namespace {

std::uint32_t bits_for(std::uint64_t max_value) {
  std::uint32_t bits = 1;
  while (bits < 64 && (max_value >> bits) != 0) ++bits;
  return bits;
}

}  // namespace

std::size_t compress_domains(table::Pipeline& pipeline,
                             const CompileOptions& opts) {
  std::size_t compressed = 0;

  // A value map remaps the subject's value for *every* stage keyed on it,
  // so a subject with several stages (the stitched partitioned layout:
  // dispatch + default-shard table) must not be compressed — the other
  // stage would silently start matching codes against raw-value entries.
  std::map<lang::Subject, std::size_t> stages_per_subject;
  for (const Table& t : pipeline.tables) ++stages_per_subject[t.subject()];

  for (Table& t : pipeline.tables) {
    if (t.kind() != table::MatchKind::kRange) continue;
    if (t.entries().size() < opts.compression_min_entries) continue;
    if (stages_per_subject[t.subject()] > 1) continue;

    const std::uint64_t umax =
        t.width_bits() >= 64 ? ~0ULL : ((1ULL << t.width_bits()) - 1);

    // Region boundaries: the low end of every match plus one past its high
    // end. Cut 0 is always present so codes cover the whole domain.
    std::set<std::uint64_t> cuts{0};
    bool has_concrete = false;
    for (const Entry& e : t.entries()) {
      if (e.match.kind == ValueMatch::Kind::kAny) continue;
      has_concrete = true;
      cuts.insert(e.match.lo);
      if (e.match.hi < umax) cuts.insert(e.match.hi + 1);
    }
    if (!has_concrete) continue;
    if (cuts.size() > opts.compression_max_regions) continue;

    const std::vector<std::uint64_t> bounds(cuts.begin(), cuts.end());
    auto code_of = [&](std::uint64_t v) -> std::uint64_t {
      auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
      return static_cast<std::uint64_t>(it - bounds.begin()) - 1;
    };
    const std::uint32_t code_bits = bits_for(bounds.size() - 1);

    // Mapping stage: raw value ranges -> region code.
    Table map(t.name() + "_map", t.subject(), table::MatchKind::kRange,
              t.width_bits());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const std::uint64_t lo = bounds[i];
      const std::uint64_t hi = i + 1 < bounds.size() ? bounds[i + 1] - 1 : umax;
      Entry e;
      e.state = table::kInitialState;
      e.match = lo == hi ? ValueMatch::exact(lo) : ValueMatch::range(lo, hi);
      e.next_state = static_cast<table::StateId>(i);
      map.add_entry(e);
    }

    // Rewrite the main table to match codes. Every match boundary is a
    // cut, so [lo, hi] maps exactly onto the contiguous code range
    // [code(lo), code(hi)].
    bool all_exact = true;
    std::vector<Entry> rewritten;
    rewritten.reserve(t.entries().size());
    for (const Entry& e : t.entries()) {
      Entry ne = e;
      if (e.match.kind != ValueMatch::Kind::kAny) {
        const std::uint64_t clo = code_of(e.match.lo);
        const std::uint64_t chi = code_of(std::min(e.match.hi, umax));
        ne.match = clo == chi ? ValueMatch::exact(clo)
                              : ValueMatch::range(clo, chi);
        if (clo != chi) all_exact = false;
      }
      rewritten.push_back(ne);
    }

    Table nt(t.name(), t.subject(),
             all_exact ? table::MatchKind::kExact : table::MatchKind::kRange,
             code_bits);
    for (const Entry& e : rewritten) nt.add_entry(e);
    t = std::move(nt);
    pipeline.value_maps.push_back(std::move(map));
    ++compressed;
  }

  return compressed;
}

InternStats intern_entries(table::Pipeline& pipeline) {
  InternStats st;

  // --- state universe (value-map stages excluded: their entries key on
  // the constant kInitialState, not on pipeline states) -----------------
  std::unordered_map<StateId, std::uint32_t> dense;
  std::vector<StateId> state_of;  // dense index -> original id
  auto idx_of = [&](StateId s) {
    auto [it, inserted] = dense.emplace(s, state_of.size());
    if (inserted) state_of.push_back(s);
    return it->second;
  };
  idx_of(pipeline.initial_state);
  for (const Table& t : pipeline.tables) {
    for (const Entry& e : t.entries()) {
      idx_of(e.state);
      idx_of(e.next_state);
    }
  }
  for (const LeafEntry& e : pipeline.leaf.entries()) idx_of(e.state);
  const std::size_t n = state_of.size();
  st.states_before = n;
  st.entries_before = pipeline.leaf.entries().size();
  for (const Table& t : pipeline.tables) st.entries_before += t.entries().size();

  // --- per-state transition lists, canonically sorted ------------------
  // Matches for one state within one table are disjoint, so sorting by
  // (table, kind, lo, hi) is a canonical order independent of targets.
  struct Trans {
    std::uint32_t table;
    std::uint8_t kind;
    std::uint64_t lo, hi;
    std::uint32_t next;  // dense index
  };
  std::vector<std::vector<Trans>> trans(n);
  for (std::uint32_t ti = 0; ti < pipeline.tables.size(); ++ti) {
    for (const Entry& e : pipeline.tables[ti].entries()) {
      trans[dense.at(e.state)].push_back(
          {ti, static_cast<std::uint8_t>(e.match.kind), e.match.lo, e.match.hi,
           dense.at(e.next_state)});
    }
  }
  for (auto& v : trans) {
    std::sort(v.begin(), v.end(), [](const Trans& a, const Trans& b) {
      return std::tie(a.table, a.kind, a.lo, a.hi) <
             std::tie(b.table, b.kind, b.lo, b.hi);
    });
  }

  // --- initial partition: leaf observation ------------------------------
  // lookup() honours first-wins duplicate semantics, so shadowed leaf
  // entries never influence a state's observable class.
  std::vector<std::uint32_t> cls(n);
  {
    // Keyed on the shared sets' contents, not on copies of them.
    auto by_content = [](const lang::ActionSet* a, const lang::ActionSet* b) {
      return *a < *b;
    };
    std::map<const lang::ActionSet*, std::uint32_t, decltype(by_content)>
        obs_ids(by_content);
    for (std::size_t i = 0; i < n; ++i) {
      const LeafEntry* le = pipeline.leaf.lookup(state_of[i]);
      if (!le) {
        cls[i] = 0;  // no-entry observation (drop)
      } else {
        auto [it, ins] =
            obs_ids.emplace(le->actions.get(), obs_ids.size() + 1);
        cls[i] = it->second;
      }
    }
  }

  // --- Moore refinement to fixpoint -------------------------------------
  // New class = (old class, transition list with class-mapped targets).
  // Class count is strictly monotone until the fixpoint, so the loop runs
  // at most n rounds; on BDD-derived pipelines (forward edges only) it
  // converges in ~stage-count rounds.
  std::size_t n_classes = 0;
  for (;;) {
    ++st.iterations;
    std::map<std::vector<std::uint64_t>, std::uint32_t> sig_ids;
    std::vector<std::uint32_t> next_cls(n);
    std::vector<std::uint64_t> key;
    for (std::size_t i = 0; i < n; ++i) {
      key.clear();
      key.push_back(cls[i]);
      for (const Trans& tr : trans[i]) {
        key.push_back((static_cast<std::uint64_t>(tr.table) << 8) | tr.kind);
        key.push_back(tr.lo);
        key.push_back(tr.hi);
        key.push_back(cls[tr.next]);
      }
      auto [it, ins] = sig_ids.emplace(key, sig_ids.size());
      next_cls[i] = it->second;
    }
    cls = std::move(next_cls);
    if (sig_ids.size() == n_classes) break;
    n_classes = sig_ids.size();
  }
  st.states_after = n_classes;

  // --- representative per class: the minimum original state id ----------
  std::vector<StateId> rep_state(n_classes, ~StateId{0});
  for (std::size_t i = 0; i < n; ++i)
    rep_state[cls[i]] = std::min(rep_state[cls[i]], state_of[i]);
  auto rep_of = [&](StateId s) { return rep_state[cls[dense.at(s)]]; };

  // --- rewrite: keep representative states' rows, remap targets ---------
  std::vector<Table> new_tables;
  for (const Table& t : pipeline.tables) {
    Table nt(t.name(), t.subject(), t.kind(), t.width_bits());
    nt.set_symbol(t.is_symbol());
    // Per-state simplification under miss-passes-through:
    //  - with a wildcard row whose target every sibling shares, the
    //    siblings are redundant;
    //  - without a wildcard row, a self-loop row equals a miss.
    std::map<StateId, std::vector<Entry>> per_state;
    for (const Entry& e : t.entries()) {
      if (rep_of(e.state) != e.state) continue;
      Entry ne = e;
      ne.next_state = rep_of(e.next_state);
      per_state[ne.state].push_back(ne);
    }
    for (auto& [s, rows] : per_state) {
      const Entry* any = nullptr;
      for (const Entry& e : rows)
        if (e.match.kind == ValueMatch::Kind::kAny) any = &e;
      if (any) {
        const StateId target = any->next_state;
        bool all_same = true;
        for (const Entry& e : rows) all_same &= e.next_state == target;
        if (all_same) {
          if (target != s) nt.add_entry(*any);  // self-loop wildcard == miss
          continue;
        }
        for (const Entry& e : rows) nt.add_entry(e);
      } else {
        for (const Entry& e : rows)
          if (e.next_state != s) nt.add_entry(e);
      }
    }
    if (!nt.entries().empty()) new_tables.push_back(std::move(nt));
  }
  pipeline.tables = std::move(new_tables);

  table::LeafTable new_leaf;
  for (const LeafEntry& e : pipeline.leaf.entries()) {
    if (rep_of(e.state) != e.state) continue;
    if (new_leaf.lookup(e.state)) continue;  // drop shadowed duplicates
    new_leaf.add_entry(e);
  }
  pipeline.leaf = std::move(new_leaf);
  pipeline.initial_state = rep_of(pipeline.initial_state);

  st.entries_after = pipeline.leaf.entries().size();
  for (const Table& t : pipeline.tables) st.entries_after += t.entries().size();
  return st;
}

}  // namespace camus::compiler
