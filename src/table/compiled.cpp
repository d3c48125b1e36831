#include "table/compiled.hpp"

#include <algorithm>
#include <map>

#include "util/flat_map.hpp"

namespace camus::table {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t exact_hash(StateId state, std::uint64_t value) noexcept {
  return util::mix64(value ^ (0x9e3779b97f4a7c15ULL * (state + 1)));
}

// Per-table layout computed in the sizing pass and replayed in the fill
// pass (the arena requires reserve/take calls to mirror each other).
struct TableCounts {
  std::size_t exact_cap = 0;  // power-of-two slot count, 0 = no exact
  std::size_t n_ranges = 0;
  std::uint32_t states = 0;   // dense state-domain size (max state + 1)
  bool has_any = false;
};

TableCounts count_table(const Table& t) {
  TableCounts c;
  std::size_t n_exact = 0;
  std::uint32_t max_state = 0;
  for (const Entry& e : t.entries()) {
    max_state = std::max(max_state, e.state);
    switch (e.match.kind) {
      case ValueMatch::Kind::kExact: ++n_exact; break;
      case ValueMatch::Kind::kRange: ++c.n_ranges; break;
      case ValueMatch::Kind::kAny: c.has_any = true; break;
    }
  }
  if (!t.entries().empty()) c.states = max_state + 1;
  if (n_exact > 0) c.exact_cap = next_pow2(std::max<std::size_t>(8, n_exact * 2));
  return c;
}

}  // namespace

CompiledPipeline::CompiledPipeline(const Pipeline& pipe) {
  initial_state_ = pipe.initial_state;

  // ---- sizing pass ---------------------------------------------------
  // Pipeline-wide dense state domain: every state a traversal can reach
  // (initial, any table's next_state) plus every leaf state.
  std::uint32_t max_state = pipe.initial_state;
  for (const Table& t : pipe.tables)
    for (const Entry& e : t.entries())
      max_state = std::max({max_state, e.state, e.next_state});
  for (const LeafEntry& e : pipe.leaf.entries())
    max_state = std::max(max_state, e.state);
  n_states_ = max_state + 1;
  if (n_states_ > kMaxDenseStates || n_states_ == 0) return;
  if (pipe.value_maps.size() > kMaxValueMaps) return;

  std::vector<TableCounts> map_counts, table_counts;
  map_counts.reserve(pipe.value_maps.size());
  table_counts.reserve(pipe.tables.size());
  for (const Table& t : pipe.value_maps) map_counts.push_back(count_table(t));
  for (const Table& t : pipe.tables) table_counts.push_back(count_table(t));
  for (const TableCounts& c : map_counts)
    if (c.states > kMaxDenseStates) return;

  auto reserve_table = [&](const TableCounts& c) {
    arena_.reserve<ExactSlot>(c.exact_cap);
    arena_.reserve<RangeEnt>(c.n_ranges);
    arena_.reserve<std::uint32_t>(c.n_ranges ? c.states + 1 : 0);
    arena_.reserve<std::uint32_t>(c.has_any ? c.states : 0);
  };
  for (const TableCounts& c : map_counts) reserve_table(c);
  for (const TableCounts& c : table_counts) reserve_table(c);
  arena_.reserve<std::uint32_t>(n_states_);  // leaf state -> entry index
  arena_.commit();

  // ---- fill pass -----------------------------------------------------
  auto fill_table = [&](const Table& t, const TableCounts& c) {
    FlatTable flat;
    flat.states = c.states;
    flat.exact = arena_.take<ExactSlot>(c.exact_cap);
    flat.exact_mask = c.exact_cap ? c.exact_cap - 1 : 0;
    for (ExactSlot& s : flat.exact) s.state = kEmptyState;
    flat.ranges = arena_.take<RangeEnt>(c.n_ranges);
    flat.range_off = arena_.take<std::uint32_t>(c.n_ranges ? c.states + 1 : 0);
    flat.any_next = arena_.take<std::uint32_t>(c.has_any ? c.states : 0);
    for (std::uint32_t& v : flat.any_next) v = kMiss;

    std::size_t n_ranges = 0;
    for (const Entry& e : t.entries()) {
      switch (e.match.kind) {
        case ValueMatch::Kind::kExact: {
          // Last entry wins for duplicate (state, value), mirroring
          // Table::finalize's map assignment.
          std::size_t i = exact_hash(e.state, e.match.lo) & flat.exact_mask;
          while (flat.exact[i].state != kEmptyState &&
                 !(flat.exact[i].state == e.state &&
                   flat.exact[i].value == e.match.lo))
            i = (i + 1) & flat.exact_mask;
          flat.exact[i] = {e.match.lo, e.state, e.next_state};
          break;
        }
        case ValueMatch::Kind::kRange:
          flat.ranges[n_ranges++] = {e.match.lo, e.match.hi, e.state,
                                     e.next_state};
          break;
        case ValueMatch::Kind::kAny:
          flat.any_next[e.state] = e.next_state;
          break;
      }
    }
    if (!flat.ranges.empty()) {
      std::stable_sort(flat.ranges.begin(), flat.ranges.end(),
                       [](const RangeEnt& a, const RangeEnt& b) {
                         return a.state != b.state ? a.state < b.state
                                                   : a.lo < b.lo;
                       });
      // Per-state slices as prefix sums over the sorted array.
      std::uint32_t pos = 0;
      for (std::uint32_t s = 0; s < c.states; ++s) {
        flat.range_off[s] = pos;
        while (pos < flat.ranges.size() && flat.ranges[pos].state == s) ++pos;
      }
      flat.range_off[c.states] = pos;
    }
    return flat;
  };

  maps_.reserve(pipe.value_maps.size());
  for (std::size_t i = 0; i < pipe.value_maps.size(); ++i) {
    MapStage m;
    m.flat = fill_table(pipe.value_maps[i], map_counts[i]);
    m.subject = pipe.value_maps[i].subject();
    // A map whose subject an earlier map already wrote reads that map's
    // code, mirroring Pipeline::evaluate's progressive env update.
    for (std::size_t j = i; j-- > 0;) {
      if (pipe.value_maps[j].subject() == m.subject) {
        m.input_code_idx = static_cast<std::int32_t>(j);
        break;
      }
    }
    maps_.push_back(m);
  }

  stages_.reserve(pipe.tables.size());
  prefix_stages_ = 0;
  bool in_prefix = true;
  for (std::size_t i = 0; i < pipe.tables.size(); ++i) {
    Stage s;
    s.flat = fill_table(pipe.tables[i], table_counts[i]);
    s.subject = pipe.tables[i].subject();
    // The table reads the last value map for its subject, if any.
    for (std::size_t j = pipe.value_maps.size(); j-- > 0;) {
      if (pipe.value_maps[j].subject() == s.subject) {
        s.code_idx = static_cast<std::int32_t>(j);
        break;
      }
    }
    // Hot-key memo prefix: leading exact-match stages on raw (unmapped)
    // subjects — low-cardinality keys like the ITCH symbol stage.
    if (in_prefix && pipe.tables[i].kind() == MatchKind::kExact &&
        s.code_idx < 0 && prefix_stages_ < kMaxPrefix) {
      ++prefix_stages_;
    } else {
      in_prefix = false;
    }
    stages_.push_back(s);
  }

  leaf_state_to_idx_ = arena_.take<std::uint32_t>(n_states_);
  for (std::uint32_t& v : leaf_state_to_idx_) v = kMiss;
  leaf_entries_.reserve(pipe.leaf.entries().size());
  leaf_action_idx_.reserve(pipe.leaf.entries().size());
  std::map<lang::ActionSet, std::uint32_t> interned;
  for (const LeafEntry& e : pipe.leaf.entries()) {
    const auto idx = static_cast<std::uint32_t>(leaf_entries_.size());
    // First entry wins for duplicate states (LeafTable::add_entry uses
    // emplace, which keeps the existing mapping).
    if (leaf_state_to_idx_[e.state] == kMiss) leaf_state_to_idx_[e.state] = idx;
    auto [it, inserted] = interned.emplace(
        e.actions, static_cast<std::uint32_t>(action_sets_.size()));
    if (inserted) action_sets_.push_back(e.actions);
    leaf_action_idx_.push_back(it->second);
    leaf_entries_.push_back(e);
  }
  valid_ = true;
}

std::uint32_t CompiledPipeline::flat_lookup(const FlatTable& t, StateId state,
                                            std::uint64_t value) noexcept {
  if (!t.exact.empty()) {
    std::size_t i = exact_hash(state, value) & t.exact_mask;
    while (t.exact[i].state != kEmptyState) {
      if (t.exact[i].state == state && t.exact[i].value == value)
        return t.exact[i].next;
      i = (i + 1) & t.exact_mask;
    }
  }
  if (!t.ranges.empty() && state < t.states) {
    const std::uint32_t begin = t.range_off[state];
    const std::uint32_t end = t.range_off[state + 1];
    // Branchless upper bound on lo over the state's slice: index of the
    // first range with lo > value (cmov-friendly loop).
    std::uint32_t idx = begin;
    std::uint32_t n = end - begin;
    while (n > 0) {
      const std::uint32_t half = n >> 1;
      const bool le = t.ranges[idx + half].lo <= value;
      idx = le ? idx + half + 1 : idx;
      n = le ? n - half - 1 : half;
    }
    if (idx > begin && value <= t.ranges[idx - 1].hi)
      return t.ranges[idx - 1].next;
  }
  if (state < t.any_next.size()) return t.any_next[state];
  return kMiss;
}

std::uint64_t CompiledPipeline::input_value(
    const Stage& s, std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states,
    const std::uint64_t* codes) const noexcept {
  if (s.code_idx >= 0) return codes[s.code_idx];
  const auto& src = s.subject.kind == lang::Subject::Kind::kField ? fields
                                                                  : states;
  return s.subject.id < src.size() ? src[s.subject.id] : 0;
}

std::uint32_t CompiledPipeline::traverse(
    std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  return finish(run_prefix(fields, states), fields, states);
}

std::uint64_t CompiledPipeline::prefix_signature() const noexcept {
  if (!valid_) return 0;
  std::uint64_t h = util::mix64(0x9e3779b97f4a7c15ULL ^ initial_state_);
  h = util::mix64(h ^ prefix_stages_);
  for (std::size_t i = 0; i < prefix_stages_; ++i) {
    const Stage& s = stages_[i];
    h = util::mix64(h ^ (static_cast<std::uint64_t>(s.subject.id) << 1 ^
                         static_cast<std::uint64_t>(s.subject.kind)));
    h = util::mix64(h ^ s.flat.states);
    // Empty slots hash too: identical entry sets in identical order give
    // identical open-addressed layouts, which is the case this signature
    // distinguishes (prefix untouched vs. patched by a delta).
    for (const ExactSlot& slot : s.flat.exact)
      h = util::mix64(h ^ slot.value ^ exact_hash(slot.state, slot.next));
    for (const RangeEnt& r : s.flat.ranges)
      h = util::mix64(h ^ r.lo ^ util::mix64(r.hi ^ r.next));
    for (const std::uint32_t off : s.flat.range_off) h = util::mix64(h ^ off);
    for (const std::uint32_t next : s.flat.any_next) h = util::mix64(h ^ next);
  }
  return h == 0 ? 1 : h;
}

void CompiledPipeline::prefix_key(std::span<const std::uint64_t> fields,
                                  std::span<const std::uint64_t> states,
                                  std::uint64_t* out) const noexcept {
  for (std::size_t i = 0; i < prefix_stages_; ++i) {
    const Stage& s = stages_[i];
    const auto& src = s.subject.kind == lang::Subject::Kind::kField ? fields
                                                                    : states;
    out[i] = s.subject.id < src.size() ? src[s.subject.id] : 0;
  }
}

std::uint32_t CompiledPipeline::run_prefix(
    std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  std::uint32_t state = initial_state_;
  // Prefix stages are never value-mapped, so no codes are needed here.
  for (std::size_t i = 0; i < prefix_stages_; ++i) {
    const std::uint32_t next =
        flat_lookup(stages_[i].flat, state,
                    input_value(stages_[i], fields, states, nullptr));
    if (next != kMiss) state = next;
  }
  return state;
}

std::uint32_t CompiledPipeline::finish(
    std::uint32_t state, std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  std::uint64_t codes[kMaxValueMaps];
  for (std::size_t i = 0; i < maps_.size(); ++i) {
    const MapStage& m = maps_[i];
    std::uint64_t raw;
    if (m.input_code_idx >= 0) {
      raw = codes[m.input_code_idx];
    } else {
      const auto& src =
          m.subject.kind == lang::Subject::Kind::kField ? fields : states;
      raw = m.subject.id < src.size() ? src[m.subject.id] : 0;
    }
    const std::uint32_t code = flat_lookup(m.flat, kInitialState, raw);
    // The mapping stage partitions the domain; a miss maps to code 0
    // defensively, as in Pipeline::evaluate.
    codes[i] = code == kMiss ? 0 : code;
  }
  for (std::size_t i = prefix_stages_; i < stages_.size(); ++i) {
    const std::uint32_t next = flat_lookup(
        stages_[i].flat, state, input_value(stages_[i], fields, states, codes));
    if (next != kMiss) state = next;
  }
  return state < n_states_ ? leaf_state_to_idx_[state] : kMiss;
}

}  // namespace camus::table
