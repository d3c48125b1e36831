// Flattened data-plane lookup structure: a Pipeline lowered into dense,
// state-indexed contiguous arrays, the switch's one classification engine.
//
//  - states -> dense ids by first appearance (the initial state, then each
//    table's entries in stage order, then the leaf), so every per-state
//    array is sized by the states the pipeline references, whatever ids
//    the compiler's allocator handed out;
//  - exact entries -> one open-addressed flat table per stage keyed by
//    (state, value), linear probing, load factor <= 0.5;
//  - range entries -> one sorted array per stage with per-state offset
//    slices and a branchless upper-bound scan;
//  - wildcard entries -> a dense per-state fallback array;
//  - value maps -> flat tables of their state-0 entries (the only ones a
//    lookup at state 0 reaches; their next_state is a code, not a state),
//    folded in pipeline order by each stage that reads the mapped subject;
//  - leaf entries -> a dense state -> leaf-index array, and one pointer
//    per leaf index into the leaf's shared, immutable ActionSet.
//
// Every array lives in a single arena allocation, so a full traversal
// touches a handful of cache lines and performs zero heap allocation.
//
// Semantics are bit-identical to Pipeline::evaluate: each stage follows
// Table::lookup's rule (the last exact entry equal to the value, else the
// range with the largest lo <= value if it covers the value, the later one
// on a tie in lo, else the last wildcard, else a miss), a miss keeps the
// state, value-map misses code to 0, and duplicate leaf states resolve
// first-wins as in LeafTable::add_entry. This is the only indexed lookup;
// Pipeline::evaluate stays the semantic reference, a plain scan of the
// entries, and this structure is differential-tested against it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "table/pipeline.hpp"
#include "util/arena.hpp"

namespace camus::table {

class CompiledPipeline {
 public:
  // Leaf-index sentinel for "no leaf entry" (drop).
  static constexpr std::uint32_t kMiss = 0xffffffffu;
  // Longest hot-key memo prefix (stages / key words).
  static constexpr std::size_t kMaxPrefix = 4;

  CompiledPipeline() = default;

  // Lowers any pipeline. The source pipeline is only read. The leaf's
  // action sets are referenced, not copied: they must outlive this
  // structure, which any copy of the source pipeline's leaf guarantees
  // (switchsim keeps both in one program).
  explicit CompiledPipeline(const Pipeline& pipe);

  // Whether this holds a lowered pipeline: false only when
  // default-constructed.
  bool valid() const noexcept { return n_states_ != 0; }

  // Full traversal. `fields` / `states` are indexed by field id / state
  // variable id (the lang::Env layout). Returns the leaf entry index (the
  // position in the source LeafTable's entry order) or kMiss for drop.
  std::uint32_t traverse(std::span<const std::uint64_t> fields,
                         std::span<const std::uint64_t> states) const noexcept;

  // --- hot-key memo support ------------------------------------------
  // The memo prefix is the leading run of exact-match, non-value-mapped
  // table stages (for ITCH: the symbol stage). Their traversal outcome is
  // a pure function of the prefix subjects' input values, so callers can
  // memoize (key values) -> run_prefix() and then finish().
  std::size_t prefix_stages() const noexcept { return prefix_stages_; }
  // Writes prefix_stages() raw key values into out (size >= kMaxPrefix).
  void prefix_key(std::span<const std::uint64_t> fields,
                  std::span<const std::uint64_t> states,
                  std::uint64_t* out) const noexcept;
  // Dense state after the prefix stages, starting from the initial state.
  std::uint32_t run_prefix(
      std::span<const std::uint64_t> fields,
      std::span<const std::uint64_t> states) const noexcept;
  // Remaining stages + leaf lookup, from a dense prefix state.
  std::uint32_t finish(std::uint32_t state,
                       std::span<const std::uint64_t> fields,
                       std::span<const std::uint64_t> states) const noexcept;

  // --- leaf access ----------------------------------------------------
  // The leaf's shared ActionSet for a leaf index (nullptr for kMiss).
  const lang::ActionSet* actions(std::uint32_t leaf_idx) const noexcept {
    return leaf_idx == kMiss ? nullptr : leaf_actions_[leaf_idx];
  }

  // Fingerprint of the memo prefix: hashes the prefix stages' flattened
  // tables. Dense ids of the prefix states depend on the prefix tables
  // alone (they are numbered first), so equal signatures mean every prefix
  // key classifies to the same post-prefix state in both pipelines, and a
  // hot-key memo built against one remains valid for the other — the RCU
  // swap in switchsim::Switch keeps its memo warm across a reprogram that
  // leaves the prefix stages untouched. 0 when default-constructed.
  std::uint64_t prefix_signature() const noexcept;

  // --- layout telemetry ----------------------------------------------
  std::size_t arena_bytes() const noexcept { return arena_.bytes(); }
  // Distinct states the pipeline references: the initial state, every
  // table entry's state and next_state, and every leaf state.
  std::uint32_t n_states() const noexcept { return n_states_; }

 private:
  struct ExactSlot {
    std::uint64_t value = 0;
    StateId state = kEmptyState;
    StateId next = 0;
  };
  struct RangeEnt {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    StateId state = 0;  // build-time sort key; unused after
    StateId next = 0;
  };
  // Empty-slot marker for the open-addressed exact tables, and in lowering
  // the mark of a map entry no lookup reaches. Dense ids count referenced
  // states, so none reaches it.
  static constexpr StateId kEmptyState = 0xffffffffu;

  struct FlatTable {
    std::span<ExactSlot> exact;  // power-of-two capacity, or empty
    std::uint64_t exact_mask = 0;
    std::span<RangeEnt> ranges;             // sorted by (state, lo)
    std::span<std::uint32_t> range_off;     // states + 1 offsets, or empty
    std::span<std::uint32_t> any_next;      // per-state wildcard, or empty
    std::uint32_t states = 0;               // dense state-domain size
  };
  struct Stage {
    FlatTable flat;
    lang::Subject subject;
    // The subject's value-map chain, maps_[map_begin, map_end), in
    // pipeline order; empty for an unmapped subject.
    std::uint32_t map_begin = 0;
    std::uint32_t map_end = 0;
  };

  static std::uint32_t flat_lookup(const FlatTable& t, StateId state,
                                   std::uint64_t value) noexcept;
  // The value a stage matches: its subject's input, folded through the
  // subject's value maps.
  std::uint64_t input_value(
      const Stage& s, std::span<const std::uint64_t> fields,
      std::span<const std::uint64_t> states) const noexcept;

  util::Arena arena_;
  std::vector<FlatTable> maps_;  // each stage's chain, contiguous
  std::vector<Stage> stages_;
  std::span<std::uint32_t> leaf_state_to_idx_;  // dense; kMiss = no entry
  // Leaf index (source LeafTable order) -> the entry's shared set.
  std::vector<const lang::ActionSet*> leaf_actions_;
  std::uint32_t n_states_ = 0;
  std::size_t prefix_stages_ = 0;
};

}  // namespace camus::table
