#include "table/compiled.hpp"

#include <algorithm>

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

struct StateHash {
  std::size_t operator()(StateId s) const noexcept {
    return static_cast<std::size_t>(util::mix64(s));
  }
};

// Per-table layout computed in the sizing pass and replayed in the fill
// pass (the arena requires reserve/take calls to mirror each other).
struct TableCounts {
  std::size_t exact_cap = 0;  // power-of-two slot count, 0 = no exact
  std::size_t n_ranges = 0;
  std::uint32_t states = 0;   // dense state-domain size (max state + 1)
  bool has_any = false;
};

}  // namespace

CompiledPipeline::CompiledPipeline(const Pipeline& pipe) {
  // ---- value-map chains ----------------------------------------------
  // Each stage folds the maps of the subject it reads, in pipeline order,
  // as Pipeline::evaluate rewrites the env; a map no stage reads cannot
  // change a result and is not lowered. The compiler maps a subject only
  // when one stage reads it, so no chain is lowered twice.
  std::vector<std::size_t> map_order;
  stages_.resize(pipe.tables.size());
  for (std::size_t i = 0; i < pipe.tables.size(); ++i) {
    Stage& s = stages_[i];
    s.subject = pipe.tables[i].subject();
    s.map_begin = static_cast<std::uint32_t>(map_order.size());
    for (std::size_t j = 0; j < pipe.value_maps.size(); ++j)
      if (pipe.value_maps[j].subject() == s.subject) map_order.push_back(j);
    s.map_end = static_cast<std::uint32_t>(map_order.size());
  }

  // ---- dense states --------------------------------------------------
  // ids holds what the fill pass writes, in the order it writes it: per
  // lowered map entry and per table entry (state, next), then per leaf
  // entry its state. A map is looked up at state 0 and its next_state is a
  // code, so its entries keep their values and those off state 0, which no
  // lookup reaches, are marked kEmptyState and skipped. Table and leaf
  // states are renumbered by first appearance: initial state, tables in
  // stage order, leaf.
  std::size_t n_ids = pipe.leaf.entries().size();
  for (const std::size_t j : map_order)
    n_ids += 2 * pipe.value_maps[j].entries().size();
  for (const Table& t : pipe.tables) n_ids += 2 * t.entries().size();
  std::vector<StateId> ids;
  ids.reserve(n_ids);
  for (const std::size_t j : map_order) {
    for (const Entry& e : pipe.value_maps[j].entries()) {
      ids.push_back(e.state == kInitialState ? kInitialState : kEmptyState);
      ids.push_back(e.next_state);
    }
  }
  util::FlatMap<StateId, StateId, StateHash> dense;
  auto densify = [&](StateId raw) {
    if (const StateId* d = dense.find(raw)) return *d;
    const auto d = static_cast<StateId>(dense.size());
    dense.insert(raw, d);
    return d;
  };
  densify(pipe.initial_state);  // dense id 0 = kInitialState
  // A table's entries come grouped by state, so most repeat the previous
  // entry's state: remember the last pair instead of probing again.
  StateId last_raw = pipe.initial_state, last_dense = 0;
  for (const Table& t : pipe.tables) {
    for (const Entry& e : t.entries()) {
      if (e.state != last_raw) {
        last_raw = e.state;
        last_dense = densify(e.state);
      }
      ids.push_back(last_dense);
      ids.push_back(densify(e.next_state));
    }
  }
  for (const LeafEntry& e : pipe.leaf.entries()) ids.push_back(densify(e.state));
  n_states_ = static_cast<std::uint32_t>(dense.size());

  // ---- sizing pass ---------------------------------------------------
  const StateId* id = ids.data();
  auto count_table = [&](const Table& t) {
    TableCounts c;
    std::size_t n_exact = 0;
    for (const Entry& e : t.entries()) {
      const StateId state = *id;
      id += 2;
      if (state == kEmptyState) continue;
      c.states = std::max(c.states, state + 1);
      switch (e.match.kind) {
        case ValueMatch::Kind::kExact: ++n_exact; break;
        case ValueMatch::Kind::kRange: ++c.n_ranges; break;
        case ValueMatch::Kind::kAny: c.has_any = true; break;
      }
    }
    if (n_exact > 0)
      c.exact_cap = next_pow2(std::max<std::size_t>(8, n_exact * 2));
    return c;
  };
  std::vector<TableCounts> map_counts, table_counts;
  map_counts.reserve(map_order.size());
  table_counts.reserve(pipe.tables.size());
  for (const std::size_t j : map_order)
    map_counts.push_back(count_table(pipe.value_maps[j]));
  for (const Table& t : pipe.tables) table_counts.push_back(count_table(t));

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
      const StateId state = id[0];
      const StateId next = id[1];
      id += 2;
      if (state == kEmptyState) continue;
      switch (e.match.kind) {
        case ValueMatch::Kind::kExact: {
          // Last entry wins for duplicate (state, value), as in
          // Table::lookup's rule.
          std::size_t i = exact_hash(state, e.match.lo) & flat.exact_mask;
          while (flat.exact[i].state != kEmptyState &&
                 !(flat.exact[i].state == state &&
                   flat.exact[i].value == e.match.lo))
            i = (i + 1) & flat.exact_mask;
          flat.exact[i] = {e.match.lo, state, next};
          break;
        }
        case ValueMatch::Kind::kRange:
          flat.ranges[n_ranges++] = {e.match.lo, e.match.hi, state, next};
          break;
        case ValueMatch::Kind::kAny:
          flat.any_next[state] = next;
          break;
      }
    }
    if (!flat.ranges.empty()) {
      // Stable: among ranges of one state with equal lo the later entry
      // sorts last, so the upper-bound scan picks it (Table::lookup's rule).
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

  id = ids.data();
  maps_.reserve(map_order.size());
  for (std::size_t k = 0; k < map_order.size(); ++k)
    maps_.push_back(fill_table(pipe.value_maps[map_order[k]], map_counts[k]));

  prefix_stages_ = 0;
  bool in_prefix = true;
  for (std::size_t i = 0; i < pipe.tables.size(); ++i) {
    Stage& s = stages_[i];
    s.flat = fill_table(pipe.tables[i], table_counts[i]);
    // Hot-key memo prefix: leading exact-match stages on raw (unmapped)
    // subjects — low-cardinality keys like the ITCH symbol stage.
    if (in_prefix && pipe.tables[i].kind() == MatchKind::kExact &&
        s.map_begin == s.map_end && prefix_stages_ < kMaxPrefix) {
      ++prefix_stages_;
    } else {
      in_prefix = false;
    }
  }

  leaf_state_to_idx_ = arena_.take<std::uint32_t>(n_states_);
  for (std::uint32_t& v : leaf_state_to_idx_) v = kMiss;
  leaf_actions_.reserve(pipe.leaf.entries().size());
  for (const LeafEntry& e : pipe.leaf.entries()) {
    const auto idx = static_cast<std::uint32_t>(leaf_actions_.size());
    const StateId state = *id++;
    // First entry wins for duplicate states, as in LeafTable::add_entry.
    if (leaf_state_to_idx_[state] == kMiss) leaf_state_to_idx_[state] = idx;
    leaf_actions_.push_back(e.actions.get());
  }
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
    std::span<const std::uint64_t> states) const noexcept {
  const auto& src = s.subject.kind == lang::Subject::Kind::kField ? fields
                                                                  : states;
  std::uint64_t value = s.subject.id < src.size() ? src[s.subject.id] : 0;
  for (std::uint32_t m = s.map_begin; m < s.map_end; ++m) {
    const std::uint32_t code = flat_lookup(maps_[m], kInitialState, value);
    // The mapping stage partitions the domain; a miss maps to code 0
    // defensively, as in Pipeline::evaluate.
    value = code == kMiss ? 0 : code;
  }
  return value;
}

std::uint32_t CompiledPipeline::traverse(
    std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  return finish(run_prefix(fields, states), fields, states);
}

std::uint64_t CompiledPipeline::prefix_signature() const noexcept {
  if (!valid()) return 0;
  std::uint64_t h = util::mix64(0x9e3779b97f4a7c15ULL ^ prefix_stages_);
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
  for (std::size_t i = 0; i < prefix_stages_; ++i)
    out[i] = input_value(stages_[i], fields, states);
}

std::uint32_t CompiledPipeline::run_prefix(
    std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  std::uint32_t state = kInitialState;
  for (std::size_t i = 0; i < prefix_stages_; ++i) {
    const std::uint32_t next = flat_lookup(
        stages_[i].flat, state, input_value(stages_[i], fields, states));
    if (next != kMiss) state = next;
  }
  return state;
}

std::uint32_t CompiledPipeline::finish(
    std::uint32_t state, std::span<const std::uint64_t> fields,
    std::span<const std::uint64_t> states) const noexcept {
  for (std::size_t i = prefix_stages_; i < stages_.size(); ++i) {
    const std::uint32_t next = flat_lookup(
        stages_[i].flat, state, input_value(stages_[i], fields, states));
    if (next != kMiss) state = next;
  }
  return state < n_states_ ? leaf_state_to_idx_[state] : kMiss;
}

}  // namespace camus::table
