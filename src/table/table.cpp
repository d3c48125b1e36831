#include "table/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace camus::table {

std::string to_string(MatchKind k) {
  switch (k) {
    case MatchKind::kExact: return "exact";
    case MatchKind::kRange: return "range";
    case MatchKind::kTernary: return "ternary";
  }
  return "?";
}

std::string ValueMatch::to_string() const {
  switch (kind) {
    case Kind::kAny:
      return "*";
    case Kind::kExact:
      return std::to_string(lo);
    case Kind::kRange: {
      // Appended: gcc 12 at -O3 warns falsely (-Wrestrict) on an inlined
      // "literal" + std::string&&.
      std::string s = "[";
      s += std::to_string(lo);
      s += ',';
      s += std::to_string(hi);
      s += ']';
      return s;
    }
  }
  return "?";
}

namespace {
// Compacts `v` over the strictly increasing indices in `ascending`,
// keeping the survivors' order.
template <typename T>
void erase_at(std::vector<T>& v, std::span<const std::size_t> ascending) {
  if (ascending.empty()) return;
  std::size_t kept = ascending.front();
  auto next = ascending.begin();
  for (std::size_t i = kept; i < v.size(); ++i) {
    if (next != ascending.end() && *next == i) {
      ++next;
      continue;
    }
    v[kept++] = std::move(v[i]);
  }
  v.resize(kept);
}
}  // namespace

void Table::remove_entries(std::span<const std::size_t> ascending) {
  erase_at(entries_, ascending);
}

util::Result<bool> Table::validate() const {
  std::unordered_map<StateId, std::vector<ValueMatch>> ranges;
  for (const Entry& e : entries_)
    if (e.match.kind == ValueMatch::Kind::kRange)
      ranges[e.state].push_back(e.match);
  for (auto& [state, rs] : ranges) {
    std::sort(rs.begin(), rs.end(),
              [](const ValueMatch& a, const ValueMatch& b) {
                return a.lo < b.lo;
              });
    for (std::size_t i = 1; i < rs.size(); ++i) {
      if (rs[i].lo <= rs[i - 1].hi)
        return util::Error{"overlapping range entries in table '" + name_ +
                           "' state " + std::to_string(state) + ": " +
                           rs[i - 1].to_string() + " vs " +
                           rs[i].to_string()};
    }
  }
  return true;
}

const Entry* Table::lookup(StateId state, std::uint64_t value) const {
  const Entry* exact = nullptr;
  const Entry* range = nullptr;  // largest lo <= value so far
  const Entry* any = nullptr;
  for (const Entry& e : entries_) {
    if (e.state != state) continue;
    switch (e.match.kind) {
      case ValueMatch::Kind::kExact:
        if (e.match.lo == value) exact = &e;
        break;
      case ValueMatch::Kind::kRange:
        if (e.match.lo <= value && (!range || e.match.lo >= range->match.lo))
          range = &e;
        break;
      case ValueMatch::Kind::kAny:
        any = &e;
        break;
    }
  }
  if (exact) return exact;
  if (range && value <= range->match.hi) return range;
  return any;  // wildcard fallback, or miss
}

std::uint32_t MulticastGroups::intern(const lang::ActionSetPtr& set) {
  const std::uint64_t h = set->ports_hash();
  const std::uint32_t found = index_.find(h, [&](std::uint32_t g) {
    return groups_[g] == set || groups_[g]->ports == set->ports;
  });
  if (found != kDropped) return found;
  const auto id = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back(set);
  index_.insert(h, id);
  return id;
}

std::uint32_t MulticastGroups::intern(std::vector<std::uint16_t> ports) {
  lang::ActionSet set;
  set.ports = std::move(ports);
  return intern(std::make_shared<const lang::ActionSet>(std::move(set)));
}

void MulticastGroups::renumber(std::span<const std::uint32_t> remap,
                               std::uint32_t kept) {
  std::vector<lang::ActionSetPtr> groups(kept);
  for (std::uint32_t g = 0; g < groups_.size(); ++g)
    if (remap[g] != kDropped) groups[remap[g]] = std::move(groups_[g]);
  groups_ = std::move(groups);
  index_.renumber(remap);
}

std::uint32_t LeafTable::find(StateId state) const {
  return index_.find(util::mix64(state), [&](std::uint32_t i) {
    return entries_[i].state == state;
  });
}

void LeafTable::add_entry(LeafEntry e) {
  // First wins: a duplicate state stays shadowed by the earlier entry.
  if (find(e.state) == util::FlatIndex::kNone)
    index_.insert(util::mix64(e.state),
                  static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(std::move(e));
}

const LeafEntry* LeafTable::lookup(StateId state) const {
  const std::uint32_t i = find(state);
  return i == util::FlatIndex::kNone ? nullptr : &entries_[i];
}

void LeafTable::reindex() {
  index_.clear();
  for (std::uint32_t i = 0; i < entries_.size(); ++i)
    if (find(entries_[i].state) == util::FlatIndex::kNone)
      index_.insert(util::mix64(entries_[i].state), i);
}

void LeafTable::remove_entries(std::span<const std::size_t> ascending) {
  if (ascending.empty()) return;
  erase_at(entries_, ascending);
  reindex();
}

bool LeafTable::replace_entry(StateId state, LeafEntry e) {
  const std::uint32_t i = find(state);
  if (i == util::FlatIndex::kNone || e.state != state) return false;
  entries_[i] = std::move(e);
  return true;
}

void LeafTable::compact_groups(MulticastGroups& groups) {
  std::vector<std::uint32_t> remap(groups.size(), MulticastGroups::kDropped);
  std::uint32_t kept = 0;
  for (LeafEntry& e : entries_) {
    if (e.actions->ports.size() <= 1) continue;
    // Group ids are unique per port set (intern deduplicates), so ids
    // stand for port sets. An entry that interned its group shares the
    // group's set, so the pointer test settles most entries.
    const std::uint32_t g =
        e.mcast_group && *e.mcast_group < groups.size() &&
                (groups.set(*e.mcast_group) == e.actions ||
                 groups.ports(*e.mcast_group) == e.actions->ports)
            ? *e.mcast_group
            : groups.intern(e.actions);
    // intern may have appended g.
    remap.resize(groups.size(), MulticastGroups::kDropped);
    if (remap[g] == MulticastGroups::kDropped) remap[g] = kept++;
    e.mcast_group = remap[g];
  }
  groups.renumber(remap, kept);
}

void ResourceUsage::accumulate(const ResourceUsage& other) {
  sram_entries += other.sram_entries;
  tcam_entries += other.tcam_entries;
  logical_entries += other.logical_entries;
  stages += other.stages;
  multicast_groups += other.multicast_groups;
}

std::string ResourceUsage::to_string() const {
  std::ostringstream os;
  os << "entries=" << logical_entries << " (sram=" << sram_entries
     << ", tcam=" << tcam_entries << "), stages=" << stages
     << ", mcast_groups=" << multicast_groups;
  return os.str();
}

bool ResourceBudget::fits(const ResourceUsage& u) const {
  return u.stages <= max_stages &&
         u.sram_entries <= sram_entries_per_stage * max_stages &&
         u.tcam_entries <= tcam_entries_per_stage * max_stages &&
         u.multicast_groups <= max_multicast_groups;
}

std::uint64_t tcam_entries_for_range(std::uint64_t lo, std::uint64_t hi,
                                     std::uint32_t width_bits) {
  if (lo > hi) return 0;
  const std::uint64_t umax =
      width_bits >= 64 ? ~0ULL : ((1ULL << width_bits) - 1);
  hi = std::min(hi, umax);
  if (lo > hi) return 0;
  // Full domain: a single wildcard entry (the 2^64 block size would
  // overflow the doubling loop below).
  if (lo == 0 && hi == umax) return 1;

  // Greedy minimal prefix cover: repeatedly take the largest power-of-two
  // aligned block starting at lo that fits within [lo, hi].
  std::uint64_t count = 0;
  while (true) {
    std::uint64_t block = 1;
    // Largest block size that is aligned at lo and fits in the range.
    while (block <= hi - lo) {
      const std::uint64_t next = block << 1;
      if (next == 0) break;                 // 2^64 overflow
      if ((lo & (next - 1)) != 0) break;    // alignment
      if (next - 1 > hi - lo) break;        // size
      block = next;
    }
    ++count;
    const std::uint64_t end = lo + (block - 1);
    if (end >= hi) break;
    lo = end + 1;
  }
  return count;
}

}  // namespace camus::table
