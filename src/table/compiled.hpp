// Flattened data-plane lookup structure: a Pipeline lowered into dense,
// state-indexed contiguous arrays for the simulator's fast path.
//
//  - exact entries -> one open-addressed flat table per stage keyed by
//    (state, value), linear probing, load factor <= 0.5;
//  - range entries -> one sorted array per stage with per-state offset
//    slices and a branchless upper-bound scan;
//  - wildcard entries -> a dense per-state fallback array;
//  - leaf entries -> a dense state -> leaf-index array with the distinct
//    ActionSets interned and referenced by index.
//
// Every array lives in a single arena allocation, so a full traversal
// touches a handful of cache lines and performs zero heap allocation.
//
// Semantics are bit-identical to Pipeline::evaluate (exact beats range
// beats wildcard; a miss keeps the state; value-map misses code to 0;
// duplicate exact entries resolve last-wins and duplicate leaf states
// first-wins, mirroring Table::finalize / LeafTable::add_entry).
// Pipeline::evaluate stays the semantic reference; this structure is
// differential-tested against it.
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

  // Lowers a pipeline. The source pipeline is only read; it does not need
  // to be finalized. Degenerate inputs (sparse gigantic state ids, more
  // value maps than the traversal's stack buffer) leave the structure
  // invalid; callers fall back to Pipeline::evaluate.
  explicit CompiledPipeline(const Pipeline& pipe);

  bool valid() const noexcept { return valid_; }

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
  // State after the prefix stages, starting from the initial state.
  std::uint32_t run_prefix(
      std::span<const std::uint64_t> fields,
      std::span<const std::uint64_t> states) const noexcept;
  // Value maps + remaining stages + leaf lookup, from a prefix state.
  std::uint32_t finish(std::uint32_t state,
                       std::span<const std::uint64_t> fields,
                       std::span<const std::uint64_t> states) const noexcept;

  // --- leaf access ----------------------------------------------------
  const LeafEntry& leaf_entry(std::uint32_t leaf_idx) const {
    return leaf_entries_[leaf_idx];
  }
  // Interned ActionSet for a leaf index (nullptr for kMiss).
  const lang::ActionSet* actions(std::uint32_t leaf_idx) const noexcept {
    return leaf_idx == kMiss ? nullptr
                             : &action_sets_[leaf_action_idx_[leaf_idx]];
  }

  // Fingerprint of the memo prefix: hashes the prefix stages' flattened
  // tables plus the initial state. Equal signatures mean every prefix key
  // classifies to the same post-prefix state in both pipelines, so a
  // hot-key memo built against one remains valid for the other — the RCU
  // swap in switchsim::Switch keeps its memo warm across a reprogram that
  // leaves the prefix stages untouched. 0 for an invalid pipeline.
  std::uint64_t prefix_signature() const noexcept;

  // --- layout telemetry ----------------------------------------------
  std::size_t arena_bytes() const noexcept { return arena_.bytes(); }
  std::size_t stage_count() const noexcept {
    return maps_.size() + stages_.size();
  }
  std::uint32_t n_states() const noexcept { return n_states_; }
  std::size_t action_set_count() const noexcept { return action_sets_.size(); }

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
  // Empty-slot marker for the open-addressed exact tables. Dense state ids
  // are capped far below this by kMaxDenseStates.
  static constexpr StateId kEmptyState = 0xffffffffu;
  static constexpr std::uint32_t kMaxDenseStates = 1u << 24;
  static constexpr std::size_t kMaxValueMaps = 32;

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
    std::int32_t code_idx = -1;  // >= 0: input is value-map code [idx]
  };
  struct MapStage {
    FlatTable flat;
    lang::Subject subject;
    std::int32_t input_code_idx = -1;  // duplicate-subject map chains
  };

  static std::uint32_t flat_lookup(const FlatTable& t, StateId state,
                                   std::uint64_t value) noexcept;
  std::uint64_t input_value(
      const Stage& s, std::span<const std::uint64_t> fields,
      std::span<const std::uint64_t> states,
      const std::uint64_t* codes) const noexcept;

  util::Arena arena_;
  std::vector<MapStage> maps_;
  std::vector<Stage> stages_;
  std::span<std::uint32_t> leaf_state_to_idx_;  // dense; kMiss = no entry
  std::vector<LeafEntry> leaf_entries_;         // source LeafTable order
  std::vector<std::uint32_t> leaf_action_idx_;  // leaf idx -> interned set
  std::vector<lang::ActionSet> action_sets_;    // distinct ActionSets
  StateId initial_state_ = kInitialState;
  std::uint32_t n_states_ = 0;
  std::size_t prefix_stages_ = 0;
  bool valid_ = false;
};

}  // namespace camus::table
