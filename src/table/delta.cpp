#include "table/delta.hpp"

#include <algorithm>
#include <charconv>
#include <compare>
#include <functional>
#include <iterator>
#include <tuple>

#include "table/text_format.hpp"

namespace camus::table {

using textio::put_actions;
using textio::put_match;
using textio::put_u64;
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

namespace {

// An upper bound on an op's encoded line, so the output is sized once.
std::size_t max_line_bytes(const EntryOp& op) {
  return 96 + op.table.size() + 6 * op.actions.ports.size() +
         11 * op.actions.state_updates.size();
}

}  // namespace

std::string serialize_ops(std::span<const EntryOp> ops) {
  std::size_t bytes = 32;
  for (const EntryOp& op : ops) bytes += max_line_bytes(op);
  std::string out;
  out.reserve(bytes);
  out += "camus-delta v";
  put_u64(out, kDeltaFormatVersion);
  out += '\n';
  for (const EntryOp& op : ops) {
    out += "op ";
    out += kind_name(op.kind);
    out += ' ';
    out += op.table;
    out += ' ';
    put_u64(out, op.state);
    if (op.is_leaf())
      put_actions(out, op.actions);
    else
      put_match(out, op.match, op.next_state);
    out += '\n';
  }
  out += "end\n";
  return out;
}

Result<std::vector<EntryOp>> deserialize_ops(std::string_view text) {
  std::vector<EntryOp> ops;
  textio::Lines in(text);
  auto fail = [&](std::string msg) { return in.err(std::move(msg)); };

  if (!in.next() || in.n != 2 || in.tok[0] != "camus-delta" ||
      in.tok[1] != "v" + std::to_string(kDeltaFormatVersion))
    return fail("bad header (expected 'camus-delta v1')");

  bool done = false;
  while (in.next()) {
    const auto& toks = in.tok;
    if (toks[0] == "end") {
      done = true;
      break;
    }
    if (toks[0] != "op") return fail("expected 'op' or 'end'");
    if (in.n < 4) return fail("truncated op line");
    EntryOp op;
    if (toks[1] == "add") op.kind = EntryOp::Kind::kAdd;
    else if (toks[1] == "del") op.kind = EntryOp::Kind::kRemove;
    else if (toks[1] == "mod") op.kind = EntryOp::Kind::kModify;
    else return fail("bad op kind '" + std::string(toks[1]) + "'");
    op.table = std::string(toks[2]);
    std::uint64_t state = 0;
    if (!textio::parse_u64(toks[3], &state)) return fail("bad op state");
    op.state = static_cast<StateId>(state);
    if (op.is_leaf()) {
      if (in.n != 6) return fail("bad leaf op line");
      // Lists are read in wire order, then made sorted and unique as
      // ActionSet::add_port/add_update would.
      bool port_range = true;
      auto& ports = op.actions.ports;
      auto& updates = op.actions.state_updates;
      auto add_port = [&](std::uint64_t p) {
        port_range &= p <= 0xffff;
        ports.push_back(static_cast<std::uint16_t>(p));
      };
      auto add_update = [&](std::uint64_t u) {
        updates.push_back(static_cast<std::uint32_t>(u));
      };
      if (!textio::parse_list(textio::kv(toks[4], "ports"), add_port))
        return fail("bad leaf op ports");
      if (!textio::parse_list(textio::kv(toks[5], "updates"), add_update))
        return fail("bad leaf op updates");
      if (!port_range) return fail("leaf op port out of range");
      textio::sort_unique(ports);
      textio::sort_unique(updates);
    } else {
      if (in.n != 8) return fail("bad field op line");
      std::uint64_t lo = 0, hi = 0, next = 0;
      if (!textio::parse_u64(toks[5], &lo) ||
          !textio::parse_u64(toks[6], &hi) ||
          !textio::parse_u64(toks[7], &next))
        return fail("bad field op numbers");
      if (toks[4] == "any") op.match = ValueMatch::any();
      else if (toks[4] == "exact") op.match = ValueMatch::exact(lo);
      else if (toks[4] == "range") {
        if (lo > hi) return fail("inverted range in field op");
        op.match = ValueMatch::range(lo, hi);
      } else {
        return fail("bad field op match kind");
      }
      op.next_state = static_cast<StateId>(next);
    }
    ops.push_back(std::move(op));
  }
  if (!done) return fail("missing 'end'");
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
