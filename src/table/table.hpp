// Match-action table intermediate representation — the compiler's output
// and the switch simulator's input. Mirrors the paper's Figure 4: one table
// per field matching (entry state, field value) -> next state, plus a leaf
// table mapping the final state to the merged ActionSet / multicast group.
//
// A leaf's ActionSet is an immutable shared object (lang::ActionSetPtr):
// the BDD terminal's own set on a compiled program, one new set per entry
// an op or a parse adds. Leaf entries, multicast groups, pipeline copies
// and the lowered program all reference it, so copying, diffing or
// freeing a program moves pointers, not port lists.
//
// Miss semantics: a lookup miss leaves the state metadata unchanged. This
// is how packets "pass through" tables for fields their current BDD path
// does not predicate on; a packet whose state survives to the leaf table
// without a leaf entry is dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lang/bound.hpp"
#include "util/flat_map.hpp"
#include "util/result.hpp"

namespace camus::table {

using StateId = std::uint32_t;
inline constexpr StateId kInitialState = 0;

struct ResourceUsage;

// Declared match capability of a table (drives resource accounting:
// exact -> SRAM, range/ternary -> TCAM).
enum class MatchKind : std::uint8_t { kExact, kRange, kTernary };

std::string to_string(MatchKind k);

// Per-entry match on the field value.
struct ValueMatch {
  enum class Kind : std::uint8_t { kAny, kExact, kRange };
  Kind kind = Kind::kAny;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  // inclusive; kExact has lo == hi

  static ValueMatch any() { return {}; }
  static ValueMatch exact(std::uint64_t v) {
    return {Kind::kExact, v, v};
  }
  static ValueMatch range(std::uint64_t lo, std::uint64_t hi) {
    return {Kind::kRange, lo, hi};
  }

  bool matches(std::uint64_t v) const noexcept {
    return kind == Kind::kAny || (v >= lo && v <= hi);
  }

  std::string to_string() const;

  friend bool operator==(const ValueMatch&, const ValueMatch&) = default;
};

struct Entry {
  StateId state = kInitialState;
  ValueMatch match;
  StateId next_state = kInitialState;

  friend bool operator==(const Entry&, const Entry&) = default;
};

// A single match-action stage: its entries and nothing derived from them.
// lookup() reads the entries directly, so a table is a plain value that
// can be copied and shared without preparation. The switch classifies
// through the lowered CompiledPipeline; this lookup is its reference.
class Table {
 public:
  Table() = default;
  Table(std::string name, lang::Subject subject, MatchKind kind,
        std::uint32_t width_bits)
      : name_(std::move(name)),
        subject_(subject),
        kind_(kind),
        width_bits_(width_bits) {}

  const std::string& name() const noexcept { return name_; }
  lang::Subject subject() const noexcept { return subject_; }
  MatchKind kind() const noexcept { return kind_; }
  std::uint32_t width_bits() const noexcept { return width_bits_; }

  // Symbol-valued key: exact match values render as decoded tickers.
  bool is_symbol() const noexcept { return symbol_; }
  void set_symbol(bool v) noexcept { symbol_ = v; }

  // SRAM/TCAM cost of this table's entries under its match kind.
  ResourceUsage resources() const;

  void add_entry(Entry e) { entries_.push_back(e); }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  // Replaces entry i in place. Used by fault-injection tests and the lint
  // mutation check to corrupt a compiled pipeline deliberately.
  void set_entry(std::size_t i, Entry e) { entries_.at(i) = e; }

  // Removes entry i. The fault::Injector eviction experiments use this to
  // model control-plane entries lost to SRAM/TCAM faults.
  void remove_entry(std::size_t i) {
    entries_.at(i);  // same bounds behaviour as set_entry
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // Removes the entries at `ascending` (strictly increasing indices) in
  // one pass that keeps the survivors' order. The delta apply path
  // (table::apply_ops) batches a table's removes into one call.
  void remove_entries(std::span<const std::size_t> ascending);

  // Structural soundness check: range entries for one state must be
  // disjoint (overlaps indicate a compiler bug or a corrupt serialized
  // pipeline). Expected-failure path, so util::Result rather than a throw.
  util::Result<bool> validate() const;

  // The entry that matches `value` at `state`, or nullptr on a miss (the
  // caller keeps the state). One pass over the entries, under the rule the
  // lowered CompiledPipeline implements, so both agree on every table,
  // corrupt ones included. Among the state's entries:
  //   1. the last exact entry equal to the value;
  //   2. otherwise the range entry with the largest lo <= value (the later
  //      entry on a tie in lo), if its hi >= value;
  //   3. otherwise the last wildcard entry;
  //   4. otherwise a miss.
  const Entry* lookup(StateId state, std::uint64_t value) const;

 private:
  std::string name_;
  lang::Subject subject_{};
  MatchKind kind_ = MatchKind::kRange;
  std::uint32_t width_bits_ = 64;
  bool symbol_ = false;
  std::vector<Entry> entries_;
};

// Multicast group table: one group per distinct multi-port set. Unicast
// actions do not consume a group (matching how the paper counts "198
// multicast groups" separately from unicast forwards). A group holds the
// shared set of the first leaf that used its ports, not a copy of them,
// and is found by the ports' hash in a flat index.
class MulticastGroups {
 public:
  static constexpr std::uint32_t kDropped = util::FlatIndex::kNone;

  // Interns a set's port list and returns its group id: the existing
  // group with these ports, or a new one (the next id) holding `set`.
  std::uint32_t intern(const lang::ActionSetPtr& set);
  // Interns a port set (sorted unique), making a set for a new group.
  std::uint32_t intern(std::vector<std::uint16_t> ports);

  // Keeps group g as group remap[g], or drops it when remap[g] is
  // kDropped. `remap` has one slot per group, and the kept groups' new ids
  // are exactly 0..kept-1.
  void renumber(std::span<const std::uint32_t> remap, std::uint32_t kept);

  const std::vector<std::uint16_t>& ports(std::uint32_t group) const {
    return groups_.at(group)->ports;
  }
  // The set the group was interned from.
  const lang::ActionSetPtr& set(std::uint32_t group) const {
    return groups_.at(group);
  }
  std::size_t size() const noexcept { return groups_.size(); }

 private:
  std::vector<lang::ActionSetPtr> groups_;
  util::FlatIndex index_;  // ActionSet::ports_hash -> group id
};

struct LeafEntry {
  StateId state = kInitialState;
  // Immutable and shared; never null (the default is the shared drop set).
  lang::ActionSetPtr actions = lang::drop_actions();
  // Multicast group id when actions->ports.size() > 1; otherwise unused.
  std::optional<std::uint32_t> mcast_group;
};

class LeafTable {
 public:
  void add_entry(LeafEntry e);
  const std::vector<LeafEntry>& entries() const noexcept { return entries_; }

  // Miss -> nullptr (drop).
  const LeafEntry* lookup(StateId state) const;

  // --- runtime control-plane updates (live churn path) ----------------
  // Removes the entries at `ascending` (strictly increasing indices) in
  // one pass, then re-indexes once. First-wins duplicate semantics are
  // preserved: if a shadowed duplicate of a removed state survives it
  // becomes visible, exactly as a freshly built table would resolve.
  void remove_entries(std::span<const std::size_t> ascending);
  // Replaces the entry for `state` in place (ActionSet-only modify);
  // false when absent.
  bool replace_entry(StateId state, LeafEntry e);
  // Drops the groups no multi-port entry uses and renumbers the others
  // by first use in table order, pointing every multi-port entry at its
  // port set's new id: the groups and ids that interning each multi-port
  // entry's ports into an empty table would give, without re-interning
  // (an entry whose id does not name its port set is looked up).
  void compact_groups(MulticastGroups& groups);

 private:
  std::uint32_t find(StateId state) const;
  void reindex();

  std::vector<LeafEntry> entries_;
  util::FlatIndex index_;  // state hash -> first entry of that state
};

// Resource accounting for one pipeline (paper §3.2, "Resource
// Optimizations"). Exact entries live in SRAM; range entries expand to
// O(#bits) TCAM entries via prefix expansion; wildcard entries cost one
// TCAM entry.
struct ResourceUsage {
  std::uint64_t sram_entries = 0;
  std::uint64_t tcam_entries = 0;
  std::uint64_t logical_entries = 0;  // raw entry count across all tables
  std::uint64_t stages = 0;           // tables + leaf
  std::uint64_t multicast_groups = 0;

  void accumulate(const ResourceUsage& other);
  std::string to_string() const;
};

// Tofino-like per-device budget. The defaults are order-of-magnitude
// approximations of a 12-stage switching ASIC; they gate the "fits in
// switch memory" check, not any semantic behaviour.
struct ResourceBudget {
  std::uint64_t max_stages = 12;
  std::uint64_t sram_entries_per_stage = 100000;
  std::uint64_t tcam_entries_per_stage = 12000;
  std::uint64_t max_multicast_groups = 65536;

  bool fits(const ResourceUsage& u) const;
};

// Number of TCAM (prefix) entries needed to cover [lo, hi] on a
// width_bits-wide key. Exact minimal prefix cover.
std::uint64_t tcam_entries_for_range(std::uint64_t lo, std::uint64_t hi,
                                     std::uint32_t width_bits);

}  // namespace camus::table
