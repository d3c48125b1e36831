#include "table/delta.hpp"

#include <algorithm>
#include <compare>
#include <cstring>
#include <functional>
#include <iterator>
#include <tuple>

namespace camus::table {

using util::Error;
using util::Result;

namespace {

const char* kind_name(EntryOp::Kind k) {
  switch (k) {
    case EntryOp::Kind::kAdd: return "add";
    case EntryOp::Kind::kRemove: return "del";
    case EntryOp::Kind::kModify: return "mod";
  }
  return "?";
}

Error err(std::string code, std::string msg) {
  return Error{std::move(msg), 0, 0, std::move(code)};
}

// An entry's canonical order: (state, match kind, lo, hi, next state).
// Diffs, digests and the delta apply all sort and compare by it.
struct EntryKey {
  StateId state = 0;
  std::uint8_t kind = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  StateId next = 0;

  friend auto operator<=>(const EntryKey&, const EntryKey&) = default;
};

EntryKey key_of(StateId state, const ValueMatch& m, StateId next) {
  return {state, static_cast<std::uint8_t>(m.kind), m.lo, m.hi, next};
}
EntryKey key_of(const Entry& e) {
  return key_of(e.state, e.match, e.next_state);
}
EntryKey key_of(const EntryOp& op) {
  return key_of(op.state, op.match, op.next_state);
}

// One op of a delta, resolved: its table (nullptr for the leaf table),
// its entry key (a leaf op keys on its state alone) and its position in
// the delta. `claimed` marks an op an entry was paired with.
struct OpRef {
  Table* table = nullptr;
  EntryKey key;
  std::uint32_t index = 0;
  bool claimed = false;

  // Groups a table's ops, then equal keys in delta order.
  friend bool operator<(const OpRef& a, const OpRef& b) {
    if (a.table != b.table) return std::less<const Table*>{}(a.table, b.table);
    return std::tie(a.key, a.index) < std::tie(b.key, b.index);
  }
};

// Pairs an entry of key k with the earliest unclaimed op of that key in
// `refs` (sorted) and returns it, or nullptr. Walking a table in order,
// the k-th entry of a key meets the k-th op of that key in delta order,
// as repeated first-match lookups would.
OpRef* claim(std::span<OpRef> refs, const EntryKey& k) {
  auto it = std::lower_bound(
      refs.begin(), refs.end(), k,
      [](const OpRef& r, const EntryKey& key) { return r.key < key; });
  while (it != refs.end() && it->key == k && it->claimed) ++it;
  if (it == refs.end() || it->key != k) return nullptr;
  it->claimed = true;
  return &*it;
}

// Calls f(table, ops) once per table, over its run of sorted field ops.
template <typename F>
void per_table(std::vector<OpRef>& refs, F f) {
  for (auto first = refs.begin(); first != refs.end();) {
    const auto last = std::find_if(first, refs.end(), [&](const OpRef& r) {
      return r.table != first->table;
    });
    f(*first->table, std::span<OpRef>(first, last));
    first = last;
  }
}

// The failure a per-op apply in delta order would meet first: among one
// pass's failing ops, the earliest. An op's outcome depends only on the
// pass's earlier ops on the same entry or state, so the earliest failure
// is the same whichever order the checks run in.
struct FirstError {
  std::size_t at = SIZE_MAX;
  Error error;

  void note(std::size_t i, Error e) {
    if (i < at) {
      at = i;
      error = std::move(e);
    }
  }
  bool failed() const noexcept { return at != SIZE_MAX; }
};

Error unknown_table(const EntryOp& op) {
  return err("U001", "delta op targets unknown table '" + op.table + "'");
}

// Leaf entry for a leaf add or modify: one new shared set, which a new
// multicast group then shares too. Groups are interned locally, so deltas
// are independent of group renumbering.
LeafEntry leaf_entry(Pipeline& pipe, const EntryOp& op) {
  LeafEntry e;
  e.state = op.state;
  e.actions = std::make_shared<const lang::ActionSet>(op.actions);
  if (e.actions->ports.size() > 1)
    e.mcast_group = pipe.mcast.intern(e.actions);
  return e;
}

}  // namespace

std::string EntryOp::to_string() const {
  std::string s = kind_name(kind);
  s += " ";
  s += table + " state=" + std::to_string(state);
  if (is_leaf()) {
    s += " => " + actions.to_string();
  } else {
    s += " match=" + match.to_string() +
         " => next=" + std::to_string(next_state);
  }
  return s;
}

Result<ApplyStats> apply_ops(Pipeline& pipe, std::span<const EntryOp> ops) {
  // Removes first, then modifies, then adds: a remove+add pair over the
  // same value region never transiently overlaps, and re-adding a just-
  // removed leaf state is legal within one delta. Each pass reports the
  // error a per-op apply in delta order would, but touches each table
  // once: the pass's ops are sorted per table (k log k) and probed in one
  // walk over the table's entries (N log k).
  ApplyStats stats;
  bool released = false;  // a multi-port leaf was dropped or replaced
  std::vector<OpRef> field_removes, field_adds, leaf_removes, leaf_adds;
  std::vector<Table*> table_of(ops.size(), nullptr);
  FirstError failed_remove, failed_add;
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const EntryOp& op = ops[i];
    if (op.kind == EntryOp::Kind::kModify) continue;  // modify pass
    const bool remove = op.kind == EntryOp::Kind::kRemove;
    if (op.is_leaf()) {
      (remove ? leaf_removes : leaf_adds)
          .push_back({nullptr, EntryKey{op.state}, i});
      continue;
    }
    table_of[i] = pipe.find_table(op.table);
    if (!table_of[i]) {
      (remove ? failed_remove : failed_add).note(i, unknown_table(op));
      continue;
    }
    (remove ? field_removes : field_adds)
        .push_back({table_of[i], key_of(op), i});
  }
  for (auto* refs : {&field_removes, &field_adds, &leaf_removes, &leaf_adds})
    std::sort(refs->begin(), refs->end());

  // --- removes: one compaction per touched table, then the leaf table.
  std::vector<std::size_t> drop;
  per_table(field_removes, [&](Table& t, std::span<OpRef> refs) {
    drop.clear();
    for (std::size_t i = 0; i < t.entries().size(); ++i)
      if (claim(refs, key_of(t.entries()[i]))) drop.push_back(i);
    t.remove_entries(drop);
  });
  for (const OpRef& r : field_removes)
    if (!r.claimed)
      failed_remove.note(r.index, err("U002", "remove: no entry in '" +
                                                  ops[r.index].table +
                                                  "' matches " +
                                                  ops[r.index].to_string()));
  drop.clear();
  const auto& leaves = pipe.leaf.entries();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const OpRef* r = claim(leaf_removes, EntryKey{leaves[i].state});
    if (!r) continue;
    const EntryOp& op = ops[r->index];
    if (!(*leaves[i].actions == op.actions)) {
      failed_remove.note(
          r->index,
          err("U005", "leaf remove: state " + std::to_string(op.state) +
                          " actions mismatch (have " +
                          leaves[i].actions->to_string() + ", delta says " +
                          op.actions.to_string() + ")"));
      continue;
    }
    if (leaves[i].actions->ports.size() > 1) released = true;
    drop.push_back(i);
  }
  for (const OpRef& r : leaf_removes)
    if (!r.claimed)
      failed_remove.note(r.index, err("U005", "leaf remove: state " +
                                                  std::to_string(r.key.state) +
                                                  " has no entry"));
  if (failed_remove.failed()) return failed_remove.error;
  pipe.leaf.remove_entries(drop);
  stats.removes = field_removes.size() + leaf_removes.size();

  // --- modifies, in delta order (leaf-only; a few per delta).
  for (const EntryOp& op : ops) {
    if (op.kind != EntryOp::Kind::kModify) continue;
    if (!op.is_leaf())
      return pipe.find_table(op.table)
                 ? err("U004",
                       "modify is leaf-only (field entry changes are "
                       "remove+add): " +
                           op.to_string())
                 : unknown_table(op);
    const LeafEntry* existing = pipe.leaf.lookup(op.state);
    if (!existing)
      return err("U005", "leaf modify: state " + std::to_string(op.state) +
                             " has no entry");
    if (existing->actions->ports.size() > 1) released = true;
    pipe.leaf.replace_entry(op.state, leaf_entry(pipe, op));
    ++stats.modifies;
  }

  // --- adds: an add fails when its entry or state is already installed,
  // or an earlier add of this delta installs it. Check all, then append
  // in delta order.
  auto present = [&](const OpRef& r) {
    const EntryOp& op = ops[r.index];
    failed_add.note(
        r.index, r.table ? err("U003", "add: entry already present in '" +
                                           op.table + "': " + op.to_string())
                         : err("U006", "leaf add: state " +
                                           std::to_string(op.state) +
                                           " already has an entry"));
  };
  per_table(field_adds, [&](Table& t, std::span<OpRef> refs) {
    for (const Entry& e : t.entries())
      if (const OpRef* r = claim(refs, key_of(e))) present(*r);
  });
  for (const OpRef& r : leaf_adds)
    if (pipe.leaf.lookup(r.key.state)) present(r);
  for (const auto* refs : {&field_adds, &leaf_adds})
    for (std::size_t r = 1; r < refs->size(); ++r)
      if ((*refs)[r].table == (*refs)[r - 1].table &&
          (*refs)[r].key == (*refs)[r - 1].key)
        present((*refs)[r]);
  if (failed_add.failed()) return failed_add.error;
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const EntryOp& op = ops[i];
    if (op.kind != EntryOp::Kind::kAdd) continue;
    if (op.is_leaf())
      pipe.leaf.add_entry(leaf_entry(pipe, op));
    else
      table_of[i]->add_entry({op.state, op.match, op.next_state});
  }
  stats.adds = field_adds.size() + leaf_adds.size();

  // Drop the groups no leaf uses any more. Renumbering the live leaves'
  // groups by first use in table order keeps the ids dense, as
  // deserialize_pipeline requires; ids are outside every digest and the
  // data plane never reads them.
  if (released) pipe.leaf.compact_groups(pipe.mcast);
  // Re-check structural soundness before the patch counts as committed.
  if (auto valid = pipe.validate(); !valid.ok())
    return err("U007",
               "patched pipeline failed validation: " + valid.error().message);
  return stats;
}

// --- wire format -----------------------------------------------------------

namespace {

constexpr char kDeltaMagic[4] = {'C', 'D', 'L', 'T'};
constexpr std::uint32_t kLeafStage = 0xffffffffU;  // the leaf's stage index
constexpr std::size_t kHeaderBytes = 12;  // magic, version, op count
constexpr std::size_t kOpBytes = 9;       // kind, stage, state
constexpr std::size_t kMatchBytes = 21;   // match kind, lo, hi, next state

// Little-endian stores into a buffer sized up front.
struct Writer {
  char* p;

  template <typename T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      *p++ = static_cast<char>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
  void bytes(std::string_view b) {
    std::memcpy(p, b.data(), b.size());
    p += b.size();
  }
};

// Little-endian loads; the caller checks left() before each one.
struct Reader {
  const unsigned char* p;
  const unsigned char* end;

  std::size_t left() const noexcept { return static_cast<std::size_t>(end - p); }
  std::size_t offset(std::string_view wire) const noexcept {
    return static_cast<std::size_t>(p - reinterpret_cast<const unsigned char*>(
                                            wire.data()));
  }
  template <typename T>
  T get() {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += sizeof(T);
    return static_cast<T>(v);
  }
};

bool canonical_match(const ValueMatch& m) {
  switch (m.kind) {
    case ValueMatch::Kind::kAny: return m.lo == 0 && m.hi == 0;
    case ValueMatch::Kind::kExact: return m.lo == m.hi;
    case ValueMatch::Kind::kRange: return m.lo <= m.hi;
  }
  return false;
}

// Reads a u32 count and that many T into `out`; false, before allocating,
// when they cannot fit in the bytes left.
template <typename T>
bool read_list(Reader& in, std::vector<T>& out) {
  if (in.left() < 4) return false;
  const std::uint32_t n = in.get<std::uint32_t>();
  if (n > in.left() / sizeof(T)) return false;
  out.resize(n);
  for (T& v : out) v = in.get<T>();
  return true;
}

template <typename T>
bool strictly_ascending(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<T>()) ==
         v.end();
}

}  // namespace

std::string serialize_ops(std::span<const EntryOp> ops) {
  // The stage names the field ops use, sorted and unique; an op refers to
  // its stage by index.
  std::vector<std::string_view> names;
  for (const EntryOp& op : ops)
    if (!op.is_leaf() &&
        std::find(names.begin(), names.end(), op.table) == names.end())
      names.push_back(op.table);
  std::sort(names.begin(), names.end());

  std::size_t bytes = kHeaderBytes + 4;
  for (const std::string_view name : names) bytes += 4 + name.size();
  for (const EntryOp& op : ops)
    bytes += kOpBytes + (op.is_leaf()
                             ? 8 + 2 * op.actions.ports.size() +
                                   4 * op.actions.state_updates.size()
                             : kMatchBytes);
  std::string out(bytes, '\0');
  Writer w{out.data()};
  w.bytes({kDeltaMagic, sizeof kDeltaMagic});
  w.put<std::uint32_t>(kDeltaFormatVersion);
  w.put(static_cast<std::uint32_t>(ops.size()));
  w.put(static_cast<std::uint32_t>(names.size()));
  for (const std::string_view name : names) {
    w.put(static_cast<std::uint32_t>(name.size()));
    w.bytes(name);
  }
  for (const EntryOp& op : ops) {
    w.put(static_cast<std::uint8_t>(op.kind));
    if (op.is_leaf()) {
      w.put(kLeafStage);
      w.put(op.state);
      w.put(static_cast<std::uint32_t>(op.actions.ports.size()));
      for (const std::uint16_t p : op.actions.ports) w.put(p);
      w.put(static_cast<std::uint32_t>(op.actions.state_updates.size()));
      for (const std::uint32_t u : op.actions.state_updates) w.put(u);
    } else {
      w.put(static_cast<std::uint32_t>(
          std::lower_bound(names.begin(), names.end(), op.table) -
          names.begin()));
      w.put(op.state);
      w.put(static_cast<std::uint8_t>(op.match.kind));
      w.put(op.match.lo);
      w.put(op.match.hi);
      w.put(op.next_state);
    }
  }
  return out;
}

Result<std::vector<EntryOp>> deserialize_ops(std::string_view wire) {
  Reader in{reinterpret_cast<const unsigned char*>(wire.data()),
            reinterpret_cast<const unsigned char*>(wire.data()) + wire.size()};
  auto fail = [&](const char* code, const std::string& what) {
    return err(code, "delta byte " + std::to_string(in.offset(wire)) + ": " +
                         what);
  };
  auto truncated = [&](const std::string& what) {
    return fail("D002", "truncated " + what);
  };

  if (in.left() < kHeaderBytes) return truncated("header");
  if (std::memcmp(in.p, kDeltaMagic, sizeof kDeltaMagic) != 0)
    return fail("D001", "not a delta (bad magic)");
  in.p += sizeof kDeltaMagic;
  if (const auto v = in.get<std::uint32_t>(); v != kDeltaFormatVersion)
    return fail("D001", "delta format version " + std::to_string(v) +
                            ", expected " +
                            std::to_string(kDeltaFormatVersion));
  const std::uint32_t n_ops = in.get<std::uint32_t>();
  if (n_ops > in.left() / kOpBytes) return truncated("op list");

  if (in.left() < 4) return truncated("stage list");
  const std::uint32_t n_names = in.get<std::uint32_t>();
  if (n_names > in.left() / 4) return truncated("stage list");
  std::vector<std::string_view> names(n_names);
  for (std::uint32_t i = 0; i < n_names; ++i) {
    if (in.left() < 4) return truncated("stage name");
    const std::uint32_t len = in.get<std::uint32_t>();
    if (len > in.left()) return truncated("stage name");
    names[i] = {reinterpret_cast<const char*>(in.p), len};
    in.p += len;
    if (names[i] == kLeafTableName)
      return fail("D005", "the leaf table in the stage list");
    if (i > 0 && !(names[i - 1] < names[i]))
      return fail("D005", "stage names not sorted and unique");
  }

  std::vector<bool> used(n_names, false);
  std::vector<EntryOp> ops(n_ops);
  for (EntryOp& op : ops) {
    if (in.left() < kOpBytes) return truncated("op");
    const auto kind = in.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(EntryOp::Kind::kModify))
      return fail("D003", "unknown op kind " + std::to_string(kind));
    op.kind = static_cast<EntryOp::Kind>(kind);
    const std::uint32_t stage = in.get<std::uint32_t>();
    op.state = in.get<StateId>();
    if (stage == kLeafStage) {
      op.table = kLeafTableName;
      if (!read_list(in, op.actions.ports)) return truncated("leaf ports");
      if (!read_list(in, op.actions.state_updates))
        return truncated("leaf state updates");
      if (!strictly_ascending(op.actions.ports) ||
          !strictly_ascending(op.actions.state_updates))
        return fail("D005", "leaf lists not sorted and unique");
      continue;
    }
    if (stage >= n_names)
      return fail("D004", "stage index " + std::to_string(stage) + " of " +
                              std::to_string(n_names));
    used[stage] = true;
    op.table = names[stage];
    if (in.left() < kMatchBytes) return truncated("field match");
    const auto match_kind = in.get<std::uint8_t>();
    if (match_kind > static_cast<std::uint8_t>(ValueMatch::Kind::kRange))
      return fail("D003", "unknown match kind " + std::to_string(match_kind));
    op.match.kind = static_cast<ValueMatch::Kind>(match_kind);
    op.match.lo = in.get<std::uint64_t>();
    op.match.hi = in.get<std::uint64_t>();
    op.next_state = in.get<StateId>();
    if (!canonical_match(op.match))
      return fail("D005", "non-canonical " + op.match.to_string());
  }
  if (std::find(used.begin(), used.end(), false) != used.end())
    return fail("D005", "a stage no op uses");
  if (in.left() != 0)
    return fail("D006", std::to_string(in.left()) + " trailing bytes");
  return ops;
}

// --- pipeline diffing & digests ------------------------------------------

namespace {

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
    v >>= 8;
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

void append_keys(const Table& t, std::vector<EntryKey>& out) {
  for (const auto& e : t.entries()) out.push_back(key_of(e));
}

// The leaf entries' (state, actions) in state order; a shadowed duplicate
// state is dropped (first wins, as LeafTable::lookup resolves). Keyed on
// the action set, not the multicast group id: ids are renumbered per
// compilation.
using LeafKey = std::pair<StateId, const lang::ActionSet*>;
std::vector<LeafKey> sorted_leaves(const LeafTable& leaf) {
  std::vector<LeafKey> out;
  out.reserve(leaf.entries().size());
  for (const auto& e : leaf.entries())
    out.emplace_back(e.state, e.actions.get());
  auto by_state = [](const LeafKey& a, const LeafKey& b) {
    return a.first < b.first;
  };
  std::stable_sort(out.begin(), out.end(), by_state);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const LeafKey& a, const LeafKey& b) {
                          return a.first == b.first;
                        }),
            out.end());
  return out;
}

std::uint64_t digest_table(const Table& t) {
  // Sorted keys, so insertion order cannot matter.
  std::vector<EntryKey> keys;
  keys.reserve(t.entries().size());
  append_keys(t, keys);
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = kFnvSeed;
  for (const EntryKey& k : keys) {
    h = fnv1a_mix(h, k.state);
    h = fnv1a_mix(h, k.kind);
    h = fnv1a_mix(h, k.lo);
    h = fnv1a_mix(h, k.hi);
    h = fnv1a_mix(h, k.next);
  }
  return h;
}

std::uint64_t digest_leaf(const LeafTable& leaf) {
  std::uint64_t h = kFnvSeed;
  for (const auto& [state, actions] : sorted_leaves(leaf)) {
    h = fnv1a_mix(h, state);
    h = fnv1a_mix(h, 0x1eafULL);
    for (const auto p : actions->ports) h = fnv1a_mix(h, p);
    h = fnv1a_mix(h, 0x5ca1eULL);
    for (const auto u : actions->state_updates) h = fnv1a_mix(h, u);
  }
  return h;
}

// A pipeline's match stages (value maps and field tables) in name order.
std::vector<const Table*> stages_by_name(const Pipeline* pipe) {
  std::vector<const Table*> out;
  if (!pipe) return out;
  out.reserve(pipe->value_maps.size() + pipe->tables.size());
  for (const auto& t : pipe->value_maps) out.push_back(&t);
  for (const auto& t : pipe->tables) out.push_back(&t);
  std::stable_sort(out.begin(), out.end(), [](const Table* a, const Table* b) {
    return a->name() < b->name();
  });
  return out;
}

EntryOp field_op(EntryOp::Kind kind, const std::string& table,
                 const EntryKey& k) {
  EntryOp op;
  op.kind = kind;
  op.table = table;
  op.state = k.state;
  op.match.kind = static_cast<ValueMatch::Kind>(k.kind);
  op.match.lo = k.lo;
  op.match.hi = k.hi;
  op.next_state = k.next;
  return op;
}

EntryOp leaf_op(EntryOp::Kind kind, StateId state,
                const lang::ActionSet& actions) {
  EntryOp op;
  op.kind = kind;
  op.table = std::string(kLeafTableName);
  op.state = state;
  op.actions = actions;
  return op;
}

}  // namespace

std::vector<StageDigest> stage_digests(const Pipeline& pipe) {
  std::vector<StageDigest> out;
  out.reserve(pipe.value_maps.size() + pipe.tables.size() + 1);
  auto add = [&](const Table& t) {
    out.push_back({t.name(), digest_table(t), t.entries().size()});
  };
  for (const auto& t : pipe.value_maps) add(t);
  for (const auto& t : pipe.tables) add(t);
  out.push_back({std::string(kLeafTableName), digest_leaf(pipe.leaf),
                 pipe.leaf.entries().size()});
  return out;
}

std::uint64_t pipeline_digest(const Pipeline& pipe) {
  // The initial state is as load-bearing as any entry: a program whose
  // entries all match but whose walk starts elsewhere classifies nothing.
  std::uint64_t h = fnv1a_mix(kFnvSeed, pipe.initial_state);
  for (const auto& s : stage_digests(pipe)) {
    for (const char c : s.table)
      h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    h = fnv1a_mix(h, s.digest);
  }
  return h;
}

PipelineDiff diff_pipelines(const Pipeline* have, const Pipeline& want) {
  PipelineDiff diff;

  // Field entries: per stage name, the sorted, de-duplicated entry keys
  // of both sides, merged in one walk. Names are visited in order, so the
  // ops come out by (table, entry): every field add, then every field
  // remove. A name several stages share pools their entries.
  const std::vector<const Table*> old_stages = stages_by_name(have);
  const std::vector<const Table*> new_stages = stages_by_name(&want);
  std::vector<EntryKey> old_keys, new_keys;
  std::vector<EntryOp> removes;
  auto o = old_stages.begin();
  auto n = new_stages.begin();
  while (o != old_stages.end() || n != new_stages.end()) {
    const std::string& name =
        n == new_stages.end() ||
                (o != old_stages.end() && (*o)->name() < (*n)->name())
            ? (*o)->name()
            : (*n)->name();
    auto gather = [&name](auto& it, auto end, std::vector<EntryKey>& keys) {
      keys.clear();
      for (; it != end && (*it)->name() == name; ++it) append_keys(**it, keys);
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    };
    gather(o, old_stages.end(), old_keys);
    gather(n, new_stages.end(), new_keys);
    std::size_t i = 0, j = 0;
    while (i < old_keys.size() || j < new_keys.size()) {
      if (i == old_keys.size() ||
          (j < new_keys.size() && new_keys[j] < old_keys[i])) {
        diff.ops.push_back(field_op(EntryOp::Kind::kAdd, name, new_keys[j++]));
      } else if (j == new_keys.size() || old_keys[i] < new_keys[j]) {
        removes.push_back(field_op(EntryOp::Kind::kRemove, name, old_keys[i++]));
      } else {
        ++diff.reused_entries;
        ++i;
        ++j;
      }
    }
    diff.total_entries += new_keys.size();
  }
  std::move(removes.begin(), removes.end(), std::back_inserter(diff.ops));
  removes.clear();

  // Leaf diff by state: a surviving state whose ActionSet changed is one
  // kModify op (one control-plane write), not a remove+add pair. Adds and
  // modifies come out in state order, then the removes.
  const std::vector<LeafKey> old_leaf =
      have ? sorted_leaves(have->leaf) : std::vector<LeafKey>{};
  const std::vector<LeafKey> new_leaf = sorted_leaves(want.leaf);
  std::size_t i = 0, j = 0;
  while (i < old_leaf.size() || j < new_leaf.size()) {
    if (i == old_leaf.size() ||
        (j < new_leaf.size() && new_leaf[j].first < old_leaf[i].first)) {
      diff.ops.push_back(leaf_op(EntryOp::Kind::kAdd, new_leaf[j].first,
                                 *new_leaf[j].second));
      ++j;
    } else if (j == new_leaf.size() || old_leaf[i].first < new_leaf[j].first) {
      removes.push_back(leaf_op(EntryOp::Kind::kRemove, old_leaf[i].first,
                                *old_leaf[i].second));
      ++i;
    } else {
      // Shared sets: equal pointers are equal sets, without a compare.
      if (old_leaf[i].second == new_leaf[j].second ||
          *old_leaf[i].second == *new_leaf[j].second)
        ++diff.reused_entries;
      else
        diff.ops.push_back(leaf_op(EntryOp::Kind::kModify, new_leaf[j].first,
                                   *new_leaf[j].second));
      ++i;
      ++j;
    }
  }
  std::move(removes.begin(), removes.end(), std::back_inserter(diff.ops));
  diff.total_entries += new_leaf.size();

  // Structural applicability against `have` (= what the switch runs):
  // entry ops can only patch a program whose stage layout already equals
  // the target's. Stage materialization keeps the layouts identical across
  // plain incremental commits; anything else — a cold start (no program to
  // patch), a stage appearing or retiring, a value-map change, or even an
  // EMPTY stage present on one side only — must ship the full image, or
  // the patched program would never digest-converge with the intended one
  // (an empty stage has no entries to diff, but it is still a stage). A
  // stage whose match kind changed (an exact table gaining a range entry)
  // is a layout change too: ops never touch a stage's kind, which decides
  // its memory (SRAM or TCAM) and its P4 match type.
  if (!have) {
    diff.requires_reprogram = true;
  } else {
    auto layout = [](const Pipeline& p) {
      std::vector<std::pair<std::string_view, MatchKind>> stages;
      stages.reserve(p.value_maps.size() + p.tables.size());
      for (const auto& m : p.value_maps) stages.emplace_back(m.name(), m.kind());
      for (const auto& t : p.tables) stages.emplace_back(t.name(), t.kind());
      return stages;
    };
    if (layout(*have) != layout(want) ||
        have->initial_state != want.initial_state)
      diff.requires_reprogram = true;
  }
  return diff;
}

}  // namespace camus::table
