#include "table/delta.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <sstream>
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

const char* value_kind_name(ValueMatch::Kind k) {
  switch (k) {
    case ValueMatch::Kind::kAny: return "any";
    case ValueMatch::Kind::kExact: return "exact";
    case ValueMatch::Kind::kRange: return "range";
  }
  return "?";
}

Error err(std::string code, std::string msg) {
  return Error{std::move(msg), 0, 0, std::move(code)};
}

// `released` is set when the op drops or replaces a multi-port leaf, whose
// multicast group may then be unused.
Result<ApplyStats> apply_one(Pipeline& pipe, const EntryOp& op,
                             ApplyStats& stats, bool& released) {
  if (op.is_leaf()) {
    const LeafEntry* existing = pipe.leaf.lookup(op.state);
    if (existing && op.kind != EntryOp::Kind::kAdd &&
        existing->actions.ports.size() > 1)
      released = true;
    switch (op.kind) {
      case EntryOp::Kind::kRemove:
        if (!existing || !(existing->actions == op.actions))
          return err("U005", "leaf remove: state " + std::to_string(op.state) +
                                 (existing ? " actions mismatch (have " +
                                                 existing->actions.to_string() +
                                                 ", delta says " +
                                                 op.actions.to_string() + ")"
                                           : " has no entry"));
        pipe.leaf.remove_entry(op.state);
        ++stats.removes;
        return stats;
      case EntryOp::Kind::kModify: {
        if (!existing)
          return err("U005", "leaf modify: state " + std::to_string(op.state) +
                                 " has no entry");
        LeafEntry e;
        e.state = op.state;
        e.actions = op.actions;
        if (e.actions.ports.size() > 1)
          e.mcast_group = pipe.mcast.intern(e.actions.ports);
        pipe.leaf.replace_entry(op.state, std::move(e));
        ++stats.modifies;
        return stats;
      }
      case EntryOp::Kind::kAdd: {
        if (existing)
          return err("U006", "leaf add: state " + std::to_string(op.state) +
                                 " already has an entry");
        LeafEntry e;
        e.state = op.state;
        e.actions = op.actions;
        if (e.actions.ports.size() > 1)
          e.mcast_group = pipe.mcast.intern(e.actions.ports);
        pipe.leaf.add_entry(std::move(e));
        ++stats.adds;
        return stats;
      }
    }
    return err("U004", "leaf op with unknown kind");
  }

  Table* t = pipe.find_table(op.table);
  if (!t)
    return err("U001", "delta op targets unknown table '" + op.table + "'");
  const Entry e{op.state, op.match, op.next_state};
  switch (op.kind) {
    case EntryOp::Kind::kRemove:
      if (!t->remove_matching(e))
        return err("U002", "remove: no entry in '" + op.table + "' matches " +
                               op.to_string());
      ++stats.removes;
      return stats;
    case EntryOp::Kind::kAdd:
      if (!t->insert_entry(e))
        return err("U003", "add: entry already present in '" + op.table +
                               "': " + op.to_string());
      ++stats.adds;
      return stats;
    case EntryOp::Kind::kModify:
      return err("U004",
                 "modify is leaf-only (field entry changes are remove+add): " +
                     op.to_string());
  }
  return err("U004", "field op with unknown kind");
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
  ApplyStats stats;
  bool released = false;
  // Removes first, then modifies, then adds: a remove+add pair over the
  // same value region never transiently overlaps, and re-adding a just-
  // removed leaf state is legal within one delta.
  for (auto pass : {EntryOp::Kind::kRemove, EntryOp::Kind::kModify,
                    EntryOp::Kind::kAdd}) {
    for (const EntryOp& op : ops) {
      if (op.kind != pass) continue;
      if (auto r = apply_one(pipe, op, stats, released); !r.ok())
        return r.error();
    }
  }
  // Drop the groups no leaf uses any more. Re-interning the live leaves'
  // groups in table order keeps the ids dense, as deserialize_pipeline
  // requires; ids are outside every digest and the data plane never
  // reads them.
  if (released) {
    pipe.mcast = MulticastGroups{};
    pipe.leaf.intern_groups(pipe.mcast);
  }
  // Rebuild lookup indices for the touched tables (idempotent: untouched
  // tables keep their index) and re-check structural soundness before the
  // patch counts as committed.
  pipe.finalize();
  if (auto valid = pipe.validate(); !valid.ok())
    return err("U007",
               "patched pipeline failed validation: " + valid.error().message);
  return stats;
}

std::string serialize_ops(std::span<const EntryOp> ops) {
  std::ostringstream os;
  os << "camus-delta v" << kDeltaFormatVersion << "\n";
  for (const EntryOp& op : ops) {
    os << "op " << kind_name(op.kind) << " " << op.table << " " << op.state;
    if (op.is_leaf()) {
      os << " ports=";
      if (op.actions.ports.empty()) {
        os << "-";
      } else {
        for (std::size_t i = 0; i < op.actions.ports.size(); ++i)
          os << (i ? "," : "") << op.actions.ports[i];
      }
      os << " updates=";
      if (op.actions.state_updates.empty()) {
        os << "-";
      } else {
        for (std::size_t i = 0; i < op.actions.state_updates.size(); ++i)
          os << (i ? "," : "") << op.actions.state_updates[i];
      }
    } else {
      os << " " << value_kind_name(op.match.kind) << " " << op.match.lo << " "
         << op.match.hi << " " << op.next_state;
    }
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

Result<std::vector<EntryOp>> deserialize_ops(std::string_view text) {
  std::vector<EntryOp> ops;
  std::size_t pos = 0;
  int line_no = 0;

  auto next_line = [&]() -> std::vector<std::string_view> {
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      std::string_view line = text.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;
      std::vector<std::string_view> toks;
      std::size_t i = 0;
      while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ') ++j;
        if (j > i) toks.push_back(line.substr(i, j - i));
        i = j;
      }
      if (!toks.empty()) return toks;
    }
    return {};
  };
  auto fail = [&](std::string msg) { return Error{std::move(msg), line_no}; };
  auto parse_u64 = [](std::string_view s, std::uint64_t* out) {
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    return ec == std::errc() && p == s.data() + s.size();
  };
  auto parse_list = [&](std::string_view v,
                        std::vector<std::uint64_t>* out) -> bool {
    if (v == "-") return true;
    std::size_t i = 0;
    while (i < v.size()) {
      std::size_t j = v.find(',', i);
      if (j == std::string_view::npos) j = v.size();
      std::uint64_t x = 0;
      if (!parse_u64(v.substr(i, j - i), &x)) return false;
      out->push_back(x);
      i = j + 1;
    }
    return true;
  };
  auto kv = [](std::string_view tok, std::string_view key) -> std::string_view {
    if (tok.size() <= key.size() + 1) return {};
    if (tok.substr(0, key.size()) != key || tok[key.size()] != '=') return {};
    return tok.substr(key.size() + 1);
  };

  auto toks = next_line();
  if (toks.size() != 2 || toks[0] != "camus-delta" ||
      toks[1] != "v" + std::to_string(kDeltaFormatVersion))
    return fail("bad header (expected 'camus-delta v1')");

  bool done = false;
  for (toks = next_line(); !toks.empty(); toks = next_line()) {
    if (toks[0] == "end") {
      done = true;
      break;
    }
    if (toks[0] != "op") return fail("expected 'op' or 'end'");
    if (toks.size() < 4) return fail("truncated op line");
    EntryOp op;
    if (toks[1] == "add") op.kind = EntryOp::Kind::kAdd;
    else if (toks[1] == "del") op.kind = EntryOp::Kind::kRemove;
    else if (toks[1] == "mod") op.kind = EntryOp::Kind::kModify;
    else return fail("bad op kind '" + std::string(toks[1]) + "'");
    op.table = std::string(toks[2]);
    std::uint64_t state = 0;
    if (!parse_u64(toks[3], &state)) return fail("bad op state");
    op.state = static_cast<StateId>(state);
    if (op.is_leaf()) {
      if (toks.size() != 6) return fail("bad leaf op line");
      std::vector<std::uint64_t> ports, updates;
      if (!parse_list(kv(toks[4], "ports"), &ports))
        return fail("bad leaf op ports");
      if (!parse_list(kv(toks[5], "updates"), &updates))
        return fail("bad leaf op updates");
      for (auto p : ports) {
        if (p > 0xffff) return fail("leaf op port out of range");
        op.actions.add_port(static_cast<std::uint16_t>(p));
      }
      for (auto u : updates)
        op.actions.add_update(static_cast<std::uint32_t>(u));
    } else {
      if (toks.size() != 8) return fail("bad field op line");
      std::uint64_t lo = 0, hi = 0, next = 0;
      if (!parse_u64(toks[5], &lo) || !parse_u64(toks[6], &hi) ||
          !parse_u64(toks[7], &next))
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

// Canonical field-entry key: (table, state, match kind, lo, hi, next).
// Sorted-set semantics make digests and diffs independent of entry order.
using FieldKey = std::tuple<std::string, StateId, std::uint8_t, std::uint64_t,
                            std::uint64_t, StateId>;
using LeafMap = std::map<StateId, lang::ActionSet>;

std::set<FieldKey> field_keys(const Pipeline& pipe) {
  std::set<FieldKey> keys;
  auto collect = [&](const Table& t) {
    for (const auto& e : t.entries())
      keys.emplace(t.name(), e.state,
                   static_cast<std::uint8_t>(e.match.kind), e.match.lo,
                   e.match.hi, e.next_state);
  };
  for (const auto& t : pipe.value_maps) collect(t);
  for (const auto& t : pipe.tables) collect(t);
  return keys;
}

LeafMap leaf_map(const Pipeline& pipe) {
  LeafMap m;
  // Multicast group ids are renumbered per compilation; keying on the
  // action set keeps renumbering from showing up as divergence.
  for (const auto& e : pipe.leaf.entries()) m.emplace(e.state, e.actions);
  return m;
}

std::uint64_t digest_table(const Table& t) {
  // Sort canonical entry tuples so insertion order cannot matter.
  std::vector<std::tuple<StateId, std::uint8_t, std::uint64_t, std::uint64_t,
                         StateId>>
      keys;
  keys.reserve(t.entries().size());
  for (const auto& e : t.entries())
    keys.emplace_back(e.state, static_cast<std::uint8_t>(e.match.kind),
                      e.match.lo, e.match.hi, e.next_state);
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = kFnvSeed;
  for (const auto& [state, kind, lo, hi, next] : keys) {
    h = fnv1a_mix(h, state);
    h = fnv1a_mix(h, kind);
    h = fnv1a_mix(h, lo);
    h = fnv1a_mix(h, hi);
    h = fnv1a_mix(h, next);
  }
  return h;
}

std::uint64_t digest_leaf(const LeafTable& leaf) {
  const LeafMap m = [&] {
    LeafMap out;
    for (const auto& e : leaf.entries()) out.emplace(e.state, e.actions);
    return out;
  }();
  std::uint64_t h = kFnvSeed;
  for (const auto& [state, actions] : m) {
    h = fnv1a_mix(h, state);
    h = fnv1a_mix(h, 0x1eafULL);
    for (const auto p : actions.ports) h = fnv1a_mix(h, p);
    h = fnv1a_mix(h, 0x5ca1eULL);
    for (const auto u : actions.state_updates) h = fnv1a_mix(h, u);
  }
  return h;
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

  const std::set<FieldKey> new_field = field_keys(want);
  const LeafMap new_leaf = leaf_map(want);
  const std::set<FieldKey> old_field =
      have ? field_keys(*have) : std::set<FieldKey>{};
  const LeafMap old_leaf = have ? leaf_map(*have) : LeafMap{};

  auto field_op = [](EntryOp::Kind kind, const FieldKey& k) {
    EntryOp op;
    op.kind = kind;
    op.table = std::get<0>(k);
    op.state = std::get<1>(k);
    op.match.kind = static_cast<ValueMatch::Kind>(std::get<2>(k));
    op.match.lo = std::get<3>(k);
    op.match.hi = std::get<4>(k);
    op.next_state = std::get<5>(k);
    return op;
  };
  for (const auto& k : new_field) {
    if (!old_field.count(k))
      diff.ops.push_back(field_op(EntryOp::Kind::kAdd, k));
    else
      ++diff.reused_entries;
  }
  for (const auto& k : old_field) {
    if (!new_field.count(k))
      diff.ops.push_back(field_op(EntryOp::Kind::kRemove, k));
  }

  auto leaf_op = [](EntryOp::Kind kind, StateId state,
                    const lang::ActionSet& actions) {
    EntryOp op;
    op.kind = kind;
    op.table = std::string(kLeafTableName);
    op.state = state;
    op.actions = actions;
    return op;
  };
  // Leaf diff by state: a surviving state whose ActionSet changed is one
  // kModify op (one control-plane write), not a remove+add pair.
  for (const auto& [state, actions] : new_leaf) {
    auto old_it = old_leaf.find(state);
    if (old_it == old_leaf.end())
      diff.ops.push_back(leaf_op(EntryOp::Kind::kAdd, state, actions));
    else if (!(old_it->second == actions))
      diff.ops.push_back(leaf_op(EntryOp::Kind::kModify, state, actions));
    else
      ++diff.reused_entries;
  }
  for (const auto& [state, actions] : old_leaf) {
    if (!new_leaf.count(state))
      diff.ops.push_back(leaf_op(EntryOp::Kind::kRemove, state, actions));
  }

  diff.total_entries = new_field.size() + new_leaf.size();

  // Structural applicability against `have` (= what the switch runs):
  // entry ops can only patch a program whose stage layout already equals
  // the target's. Stage materialization keeps the layouts identical across
  // plain incremental commits; anything else — a cold start (no program to
  // patch), a stage appearing or retiring, a value-map change, or even an
  // EMPTY stage present on one side only — must ship the full image, or
  // the patched program would never digest-converge with the intended one
  // (an empty stage has no entries to diff, but it is still a stage).
  if (!have) {
    diff.requires_reprogram = true;
  } else {
    auto stage_names = [](const Pipeline& p) {
      std::vector<std::string> names;
      names.reserve(p.value_maps.size() + p.tables.size());
      for (const auto& m : p.value_maps) names.push_back(m.name());
      for (const auto& t : p.tables) names.push_back(t.name());
      return names;
    };
    if (stage_names(*have) != stage_names(want) ||
        have->initial_state != want.initial_state)
      diff.requires_reprogram = true;
  }
  return diff;
}

}  // namespace camus::table
