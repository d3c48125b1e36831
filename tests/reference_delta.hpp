// Test oracles for the control-plane delta currency: the per-op
// table::apply_ops and the keyed-set table::diff_pipelines that the
// one-pass apply and the sorted-merge diff replaced. They are kept only to
// be differentiated against (test_delta.cpp): slow and obviously correct,
// every op is one linear find and one erase or append, and every diff is
// two std::set/std::map builds. They share no code with the engine under
// test beyond the Pipeline/Table/LeafTable containers and EntryOp.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "table/delta.hpp"
#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::oracle {

namespace detail {

inline util::Error delta_error(std::string code, std::string msg) {
  return util::Error{std::move(msg), 0, 0, std::move(code)};
}

// Index of the first entry identical to `e`, or entries().size().
inline std::size_t find_entry(const table::Table& t, const table::Entry& e) {
  std::size_t i = 0;
  while (i < t.entries().size() && !(t.entries()[i] == e)) ++i;
  return i;
}

// `released` is set when the op drops or replaces a multi-port leaf, whose
// multicast group may then be unused.
inline util::Result<bool> apply_one(table::Pipeline& pipe,
                                    const table::EntryOp& op,
                                    table::ApplyStats& stats,
                                    bool& released) {
  using Kind = table::EntryOp::Kind;
  if (op.is_leaf()) {
    const table::LeafEntry* existing = pipe.leaf.lookup(op.state);
    if (existing && op.kind != Kind::kAdd &&
        existing->actions->ports.size() > 1)
      released = true;
    table::LeafEntry e;
    e.state = op.state;
    e.actions = std::make_shared<const lang::ActionSet>(op.actions);
    switch (op.kind) {
      case Kind::kRemove: {
        if (!existing || !(*existing->actions == op.actions))
          return delta_error(
              "U005", "leaf remove: state " + std::to_string(op.state) +
                          (existing ? " actions mismatch (have " +
                                          existing->actions->to_string() +
                                          ", delta says " +
                                          op.actions.to_string() + ")"
                                    : " has no entry"));
        const std::size_t at = static_cast<std::size_t>(
            existing - pipe.leaf.entries().data());
        pipe.leaf.remove_entries(std::span<const std::size_t>(&at, 1));
        ++stats.removes;
        return true;
      }
      case Kind::kModify:
        if (!existing)
          return delta_error("U005", "leaf modify: state " +
                                         std::to_string(op.state) +
                                         " has no entry");
        if (e.actions->ports.size() > 1)
          e.mcast_group = pipe.mcast.intern(e.actions);
        pipe.leaf.replace_entry(op.state, std::move(e));
        ++stats.modifies;
        return true;
      case Kind::kAdd:
        if (existing)
          return delta_error("U006", "leaf add: state " +
                                         std::to_string(op.state) +
                                         " already has an entry");
        if (e.actions->ports.size() > 1)
          e.mcast_group = pipe.mcast.intern(e.actions);
        pipe.leaf.add_entry(std::move(e));
        ++stats.adds;
        return true;
    }
    return delta_error("U004", "leaf op with unknown kind");
  }

  table::Table* t = pipe.find_table(op.table);
  if (!t)
    return delta_error("U001",
                       "delta op targets unknown table '" + op.table + "'");
  const table::Entry e{op.state, op.match, op.next_state};
  const std::size_t at = find_entry(*t, e);
  switch (op.kind) {
    case Kind::kRemove:
      if (at == t->entries().size())
        return delta_error("U002", "remove: no entry in '" + op.table +
                                       "' matches " + op.to_string());
      t->remove_entry(at);
      ++stats.removes;
      return true;
    case Kind::kAdd:
      if (at != t->entries().size())
        return delta_error("U003", "add: entry already present in '" +
                                       op.table + "': " + op.to_string());
      t->add_entry(e);
      ++stats.adds;
      return true;
    case Kind::kModify:
      return delta_error(
          "U004", "modify is leaf-only (field entry changes are remove+add): " +
                      op.to_string());
  }
  return delta_error("U004", "field op with unknown kind");
}

}  // namespace detail

// table::apply_ops, one op at a time: all removes in delta order, then
// all modifies, then all adds, stopping at the first op that fails.
inline util::Result<table::ApplyStats> reference_apply_ops(
    table::Pipeline& pipe, std::span<const table::EntryOp> ops) {
  table::ApplyStats stats;
  bool released = false;
  for (auto pass : {table::EntryOp::Kind::kRemove,
                    table::EntryOp::Kind::kModify,
                    table::EntryOp::Kind::kAdd}) {
    for (const table::EntryOp& op : ops) {
      if (op.kind != pass) continue;
      if (auto r = detail::apply_one(pipe, op, stats, released); !r.ok())
        return r.error();
    }
  }
  // Drop unused groups: re-intern every multi-port leaf's ports, in table
  // order, into an empty group table.
  if (released) {
    pipe.mcast = table::MulticastGroups{};
    table::LeafTable leaf;
    for (table::LeafEntry e : pipe.leaf.entries()) {
      if (e.actions->ports.size() > 1)
        e.mcast_group = pipe.mcast.intern(e.actions);
      leaf.add_entry(std::move(e));
    }
    pipe.leaf = std::move(leaf);
  }
  if (auto valid = pipe.validate(); !valid.ok())
    return detail::delta_error(
        "U007", "patched pipeline failed validation: " +
                    valid.error().message);
  return stats;
}

// table::diff_pipelines over keyed sets: a std::set of (table, state,
// match kind, lo, hi, next) per side, and a std::map from leaf state to
// actions (first entry wins).
inline table::PipelineDiff reference_diff_pipelines(
    const table::Pipeline* have, const table::Pipeline& want) {
  using FieldKey = std::tuple<std::string, table::StateId, std::uint8_t,
                              std::uint64_t, std::uint64_t, table::StateId>;
  using LeafMap = std::map<table::StateId, lang::ActionSet>;
  auto field_keys = [](const table::Pipeline& pipe) {
    std::set<FieldKey> keys;
    auto collect = [&](const table::Table& t) {
      for (const auto& e : t.entries())
        keys.emplace(t.name(), e.state,
                     static_cast<std::uint8_t>(e.match.kind), e.match.lo,
                     e.match.hi, e.next_state);
    };
    for (const auto& t : pipe.value_maps) collect(t);
    for (const auto& t : pipe.tables) collect(t);
    return keys;
  };
  auto leaf_map = [](const table::Pipeline& pipe) {
    LeafMap m;
    for (const auto& e : pipe.leaf.entries()) m.emplace(e.state, *e.actions);
    return m;
  };

  table::PipelineDiff diff;
  const std::set<FieldKey> new_field = field_keys(want);
  const LeafMap new_leaf = leaf_map(want);
  const std::set<FieldKey> old_field =
      have ? field_keys(*have) : std::set<FieldKey>{};
  const LeafMap old_leaf = have ? leaf_map(*have) : LeafMap{};

  auto field_op = [](table::EntryOp::Kind kind, const FieldKey& k) {
    table::EntryOp op;
    op.kind = kind;
    op.table = std::get<0>(k);
    op.state = std::get<1>(k);
    op.match.kind = static_cast<table::ValueMatch::Kind>(std::get<2>(k));
    op.match.lo = std::get<3>(k);
    op.match.hi = std::get<4>(k);
    op.next_state = std::get<5>(k);
    return op;
  };
  for (const auto& k : new_field) {
    if (!old_field.count(k))
      diff.ops.push_back(field_op(table::EntryOp::Kind::kAdd, k));
    else
      ++diff.reused_entries;
  }
  for (const auto& k : old_field)
    if (!new_field.count(k))
      diff.ops.push_back(field_op(table::EntryOp::Kind::kRemove, k));

  auto leaf_op = [](table::EntryOp::Kind kind, table::StateId state,
                    const lang::ActionSet& actions) {
    table::EntryOp op;
    op.kind = kind;
    op.table = std::string(table::kLeafTableName);
    op.state = state;
    op.actions = actions;
    return op;
  };
  for (const auto& [state, actions] : new_leaf) {
    auto old_it = old_leaf.find(state);
    if (old_it == old_leaf.end())
      diff.ops.push_back(leaf_op(table::EntryOp::Kind::kAdd, state, actions));
    else if (!(old_it->second == actions))
      diff.ops.push_back(
          leaf_op(table::EntryOp::Kind::kModify, state, actions));
    else
      ++diff.reused_entries;
  }
  for (const auto& [state, actions] : old_leaf)
    if (!new_leaf.count(state))
      diff.ops.push_back(
          leaf_op(table::EntryOp::Kind::kRemove, state, actions));

  diff.total_entries = new_field.size() + new_leaf.size();

  if (!have) {
    diff.requires_reprogram = true;
  } else {
    auto stage_names = [](const table::Pipeline& p) {
      std::vector<std::string> names;
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

}  // namespace camus::oracle
