#include "compiler/incremental.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "compiler/compress.hpp"
#include "compiler/field_order.hpp"
#include "lang/parser.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace camus::compiler {

using util::Error;
using util::Result;

IncrementalCompiler::IncrementalCompiler(spec::Schema schema,
                                         CompileOptions opts)
    : schema_(std::move(schema)), opts_(opts) {
  // The variable order must be fixed for the manager's lifetime: nodes
  // hash-consed under one order cannot be reused under another. Orders
  // that depend on the rule set (selectivity) therefore use the declared
  // order here.
  auto heuristic = opts_.order;
  if (heuristic == bdd::OrderHeuristic::kSelectivityAsc ||
      heuristic == bdd::OrderHeuristic::kSelectivityDesc)
    heuristic = bdd::OrderHeuristic::kDeclared;
  manager_ = std::make_shared<bdd::BddManager>(
      choose_order(schema_, {}, heuristic), bdd::DomainMap(schema_));
}

IncrementalCompiler::SubscriptionId IncrementalCompiler::add(
    lang::BoundRule rule) {
  const SubscriptionId id = next_id_++;
  subs_.emplace(id, Subscription{std::move(rule), take_leaf()});
  unbuilt_.push_back(id);
  return id;
}

Result<IncrementalCompiler::SubscriptionId> IncrementalCompiler::add_source(
    std::string_view rule_text) {
  auto parsed = lang::parse_rule(rule_text);
  if (!parsed.ok()) return parsed.error();
  auto bound = lang::bind_rule(parsed.value(), schema_);
  if (!bound.ok()) return bound.error();
  return add(std::move(bound).take());
}

bool IncrementalCompiler::remove(SubscriptionId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  set_leaf(it->second.leaf, manager_->drop());
  free_leaves_.push_back(it->second.leaf);
  subs_.erase(it);
  return true;
}

std::uint32_t IncrementalCompiler::take_leaf() {
  if (!free_leaves_.empty()) {
    const std::uint32_t leaf = free_leaves_.back();
    free_leaves_.pop_back();
    return leaf;
  }
  if (levels_.empty()) {
    levels_.push_back({manager_->drop()});
  } else if (used_leaves_ == levels_[0].size()) {
    // Double: the old tree becomes the left half of the new root, and
    // every old pair keeps its place. The right half is all drop(), so
    // the new root is the old one until a right-half leaf is set.
    for (auto& level : levels_) level.resize(level.size() * 2, manager_->drop());
    levels_.push_back({levels_.back()[0]});
  }
  return used_leaves_++;
}

void IncrementalCompiler::set_leaf(std::uint32_t leaf, bdd::NodeRef root) {
  levels_[0][leaf] = root;
  changed_.push_back(leaf);
}

bdd::NodeRef IncrementalCompiler::unite_changed() {
  if (levels_.empty()) return manager_->drop();
  std::sort(changed_.begin(), changed_.end());
  changed_.erase(std::unique(changed_.begin(), changed_.end()),
                 changed_.end());
  for (std::size_t k = 1; k < levels_.size(); ++k) {
    // The parents of this level's changed nodes, still sorted.
    for (auto& j : changed_) j /= 2;
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
    const auto& below = levels_[k - 1];
    for (const std::uint32_t j : changed_) {
      const bdd::NodeRef lo = below[2 * j], hi = below[2 * j + 1];
      // A drop() child passes its sibling up unchanged, as unite_all
      // passes an odd last root: a tree whose live leaves form a prefix
      // unites exactly the pairs unite_all would.
      levels_[k][j] = lo == manager_->drop()   ? hi
                      : hi == manager_->drop() ? lo
                      : manager_->unite(lo, hi, opts_.semantic_prune);
    }
  }
  changed_.clear();
  return levels_.back()[0];
}

namespace {
std::size_t count_kind(const std::vector<table::EntryOp>& ops,
                       table::EntryOp::Kind k) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [k](const table::EntryOp& op) { return op.kind == k; }));
}
}  // namespace

std::size_t IncrementalCompiler::Delta::adds() const {
  return count_kind(ops, EntryOp::Kind::kAdd);
}

std::size_t IncrementalCompiler::Delta::removes() const {
  return count_kind(ops, EntryOp::Kind::kRemove);
}

std::size_t IncrementalCompiler::Delta::modifies() const {
  return count_kind(ops, EntryOp::Kind::kModify);
}

double IncrementalCompiler::Delta::reuse_fraction() const {
  return total_entries == 0
             ? 1.0
             : static_cast<double>(reused_entries) /
                   static_cast<double>(total_entries);
}

std::string IncrementalCompiler::Delta::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"ops\": " << ops.size() << ",\n"
     << "  \"adds\": " << adds() << ",\n"
     << "  \"removes\": " << removes() << ",\n"
     << "  \"modifies\": " << modifies() << ",\n"
     << "  \"reused_entries\": " << reused_entries << ",\n"
     << "  \"total_entries\": " << total_entries << ",\n"
     << "  \"reuse_fraction\": " << util::json::format_double(reuse_fraction())
     << ",\n"
     << "  \"requires_reprogram\": " << (requires_reprogram ? "true" : "false")
     << ",\n"
     << "  \"compile_seconds\": "
     << util::json::format_double(compile_seconds) << ",\n"
     << "  \"stats\": " << stats.to_json() << "\n"
     << "}";
  return os.str();
}

Result<IncrementalCompiler::Delta> IncrementalCompiler::commit() {
  util::Timer timer;
  Delta delta;
  delta.stats.rule_count = subs_.size();

  // The persistent-manager path has no partitioned variant: partitioning
  // rebuilds per-shard managers from scratch, which would forfeit the memo
  // caches and stable state ids this class exists to preserve. When the
  // options ask for partitioned output, say so instead of silently
  // diverging.
  const bool wants_partition =
      opts_.partition == PartitionMode::kForce ||
      (opts_.partition == PartitionMode::kAuto &&
       subs_.size() >= opts_.partition_min_rules);
  if (wants_partition) {
    delta.stats.partition_fallback =
        "I130: incremental commit compiles monolithically; requested "
        "partitioned output (mode=" +
        std::string(opts_.partition == PartitionMode::kForce ? "force"
                                                             : "auto") +
        ", rules=" + std::to_string(subs_.size()) +
        " >= min=" + std::to_string(opts_.partition_min_rules) +
        ") is not produced on this path";
  }

  // Build the rule BDDs of the subscriptions added since the last commit
  // (in id order) into their leaves. A rule that fails to flatten fails
  // the commit and stays unbuilt; the ones before it keep their BDDs.
  util::Timer phase;
  double t_flatten = 0;
  std::size_t built = 0;
  for (; built < unbuilt_.size(); ++built) {
    const SubscriptionId id = unbuilt_[built];
    const auto it = subs_.find(id);
    if (it == subs_.end()) continue;  // removed before its first commit
    phase.reset();
    auto flat =
        lang::flatten_rule(it->second.rule, schema_, opts_.max_dnf_terms);
    t_flatten += phase.seconds();
    if (!flat.ok()) {
      unbuilt_.erase(unbuilt_.begin(),
                     unbuilt_.begin() + static_cast<std::ptrdiff_t>(built));
      Error e = flat.error();
      e.message = "subscription " + std::to_string(id) + ": " + e.message;
      return e;
    }
    delta.stats.dnf_terms += flat.value().terms.size();
    set_leaf(it->second.leaf, manager_->build_rule(flat.value()));
  }
  unbuilt_.clear();
  delta.stats.t_flatten = t_flatten;
  delta.stats.t_build = timer.seconds() - t_flatten;

  // Union: only the changed leaves' paths to the root (the persistent
  // memo caches make most of those unions lookups).
  phase.reset();
  bdd::NodeRef root = unite_changed();
  delta.stats.t_union = phase.seconds();
  phase.reset();
  const bdd::NodeRef unpruned = root;
  if (opts_.semantic_prune) root = manager_->prune(root);
  delta.stats.t_prune = phase.seconds();

  // Tables: move the live graph to the new root, then emit the delta from
  // the In nodes that changed, or regenerate everything and diff.
  phase.reset();
  const bdd::NodeRef prev_root = last_root_;
  last_root_ = root;
  const LiveGraph::Moved moved = live_.move_to(*manager_, root);
  delta.stats.bdd_after_prune = live_.stats(*manager_);
  // The semantic union already prunes, so the root is usually unchanged
  // and needs no second walk.
  delta.stats.bdd_before_prune = root == unpruned ? delta.stats.bdd_after_prune
                                                  : manager_->stats(unpruned);
  const bool own_base = std::exchange(base_from_commit_, false);
  bool emitted = false;
  if (own_base && !opts_.domain_compression && !prev_root.is_terminal() &&
      !root.is_terminal()) {
    auto e = emit_delta(prev_root, root, moved, delta);
    if (!e.ok()) return e.error();
    emitted = e.value();
  }
  if (!emitted) {
    auto r = regenerate(root, delta);
    if (!r.ok()) return r.error();
  }
  base_from_commit_ = true;
  delta.stats.t_tables = phase.seconds();
  delta.stats.cache = manager_->cache_stats();
  delta.stats.total_entries = installed_->total_entries();
  delta.stats.multicast_groups = installed_->mcast.size();
  delta.compile_seconds = timer.seconds();
  delta.stats.t_total = delta.compile_seconds;
  return delta;
}

void IncrementalCompiler::pin_root(bdd::NodeRef root) {
  // Pin the root to the initial state id. The root node changes on almost
  // every commit, but its role — "pipeline entry" — does not; without
  // pinning, every first-table entry would be renumbered and show up as
  // churn. A terminal root is pinned too: it gives state 0 up when another
  // root takes it, so a packet that misses the new root's stage cannot
  // end at the old terminal's leaf entry.
  if (pinned_root_raw_ && *pinned_root_raw_ != root.raw())
    states_.ids.erase(*pinned_root_raw_);
  states_.ids.insert_or_assign(root.raw(), table::kInitialState);
  if (states_.next == table::kInitialState) ++states_.next;
  pinned_root_raw_ = root.raw();
}

Result<bool> IncrementalCompiler::regenerate(bdd::NodeRef root, Delta& delta) {
  pin_root(root);
  auto gen_result = bdd_to_tables(*manager_, root, schema_, opts_, &states_);
  if (!gen_result.ok()) return gen_result.error();
  TableGenResult gen = std::move(gen_result).take();
  if (opts_.domain_compression)
    compress_domains(gen.pipeline, opts_);
  materialize_stages(gen.pipeline, *manager_, schema_);
  delta.stats.tablegen = gen.stats;

  // The diff is the shared reconciliation currency in table/delta.hpp —
  // the controller's warm-boot anti-entropy pass computes repair deltas
  // with the same function, so churn deltas and recovery repairs cannot
  // drift apart.
  table::PipelineDiff diff = table::diff_pipelines(
      installed_ ? &*installed_ : nullptr, gen.pipeline);
  delta.ops = std::move(diff.ops);
  delta.reused_entries = diff.reused_entries;
  delta.total_entries = diff.total_entries;
  delta.requires_reprogram = diff.requires_reprogram;
  installed_ = std::move(gen.pipeline);
  return true;
}

namespace {

// diff_pipelines' entry order: (state, match kind, lo, hi, next state).
bool entry_less(const table::Entry& a, const table::Entry& b) {
  return std::tie(a.state, a.match.kind, a.match.lo, a.match.hi,
                  a.next_state) < std::tie(b.state, b.match.kind, b.match.lo,
                                           b.match.hi, b.next_state);
}

table::EntryOp field_op(table::EntryOp::Kind kind, const std::string& table,
                        const table::Entry& e) {
  table::EntryOp op;
  op.kind = kind;
  op.table = table;
  op.state = e.state;
  op.match = e.match;
  op.next_state = e.next_state;
  return op;
}

table::EntryOp leaf_op(table::EntryOp::Kind kind, table::StateId state,
                       const lang::ActionSet& actions) {
  table::EntryOp op;
  op.kind = kind;
  op.table = std::string(table::kLeafTableName);
  op.state = state;
  op.actions = actions;
  return op;
}

std::size_t range_entries(std::span<const table::Entry> entries) {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(), [](const table::Entry& e) {
        return e.match.kind == table::ValueMatch::Kind::kRange;
      }));
}

}  // namespace

Result<bool> IncrementalCompiler::emit_delta(bdd::NodeRef prev_root,
                                             bdd::NodeRef root,
                                             const LiveGraph::Moved& moved,
                                             Delta& delta) {
  const bdd::BddManager& mgr = *manager_;
  table::Pipeline& have = *installed_;
  const auto& subjects = mgr.order().subjects();
  if (!have.value_maps.empty() || have.tables.size() != subjects.size())
    return false;
  for (std::size_t r = 0; r < subjects.size(); ++r)
    if (!(have.tables[r].subject() == subjects[r])) return false;
  auto rank_of = [&](bdd::NodeRef n) {
    return mgr.order().rank(mgr.subject_of(n));
  };

  // The states whose installed entries this commit replaces, and the In
  // nodes whose entries it generates. A surviving In node keeps its id
  // and its entries. The departed ones' ids, and the id the new root held,
  // are read before pinning; the old root's entries are state 0.
  std::vector<table::StateId> replaced;
  std::vector<bool> scan(subjects.size(), false);
  auto replace_id_of = [&](bdd::NodeRef n) {
    const auto it = states_.ids.find(n.raw());
    if (it == states_.ids.end()) return;
    replaced.push_back(it->second);
    scan[rank_of(n)] = true;
  };
  for (const bdd::NodeRef d : moved.departed) replace_id_of(d);
  std::vector<bdd::NodeRef> regen;
  if (root != prev_root) {
    // The root is regenerated and diffed against state 0's installed
    // entries, which sit in the old root's stage. The new root's old id,
    // if it had one, is replaced; the old root, if it is still an In
    // node, gets a fresh id.
    replace_id_of(prev_root);
    replace_id_of(root);
    if (live_.is_in(prev_root)) regen.push_back(prev_root);
  }
  for (const bdd::NodeRef a : moved.arrived)
    if (a != root) regen.push_back(a);
  pin_root(root);

  // New ids in bdd_to_tables' order: In nodes by (rank, node index), then
  // terminals by index.
  std::sort(regen.begin(), regen.end(), [&](bdd::NodeRef a, bdd::NodeRef b) {
    return std::pair(rank_of(a), a.index()) < std::pair(rank_of(b), b.index());
  });
  for (const bdd::NodeRef n : regen) replaced.push_back(states_.assign(n));
  for (const bdd::NodeRef t : moved.terminals)
    if (live_.reachable_terminal(t)) states_.assign(t);
  if (root != prev_root) {
    regen.insert(regen.begin(), root);
    replaced.push_back(table::kInitialState);
  }
  std::sort(replaced.begin(), replaced.end());
  replaced.erase(std::unique(replaced.begin(), replaced.end()), replaced.end());

  // Algorithm 1 for the regenerated In nodes, per stage.
  std::vector<std::vector<table::Entry>> fresh(subjects.size());
  TableGenStats& tg = delta.stats.tablegen;
  for (const bdd::NodeRef u : regen) {
    const std::size_t r = rank_of(u);
    scan[r] = true;
    auto emitted = in_node_entries(mgr, u, schema_, opts_, states_,
                                   tg.paths_enumerated, fresh[r]);
    if (!emitted.ok()) return emitted.error();
  }
  tg.in_nodes_regenerated = regen.size();

  // Per stage, in name order: the replaced states' installed entries
  // against the regenerated ones. Field adds come first, then removes.
  std::vector<std::size_t> by_name(subjects.size());
  for (std::size_t r = 0; r < by_name.size(); ++r) by_name[r] = r;
  std::sort(by_name.begin(), by_name.end(), [&](std::size_t a, std::size_t b) {
    return have.tables[a].name() < have.tables[b].name();
  });
  std::vector<table::EntryOp> ops, removes;
  std::vector<table::Entry> old;
  std::vector<std::ptrdiff_t> range_delta(subjects.size(), 0);
  std::size_t adds = 0;
  for (const std::size_t r : by_name) {
    if (!scan[r]) continue;
    const table::Table& t = have.tables[r];
    std::vector<table::Entry>& now = fresh[r];
    if (!now.empty()) {
      // Range entries of one state must be disjoint, as bdd_to_tables
      // checks of the whole program.
      table::Table check(t.name(), t.subject(), t.kind(), t.width_bits());
      for (const table::Entry& e : now) check.add_entry(e);
      if (auto valid = check.validate(); !valid.ok())
        return Error{"Algorithm 1: generated pipeline failed validation: " +
                         valid.error().message,
                     0, 0, "E131"};
    }
    old.clear();
    for (const table::Entry& e : t.entries())
      if (std::binary_search(replaced.begin(), replaced.end(), e.state))
        old.push_back(e);
    for (auto* v : {&old, &now}) {
      std::sort(v->begin(), v->end(), entry_less);
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    std::size_t i = 0, j = 0;
    while (i < old.size() || j < now.size()) {
      if (i == old.size() || (j < now.size() && entry_less(now[j], old[i]))) {
        range_delta[r] += now[j].match.kind == table::ValueMatch::Kind::kRange;
        ops.push_back(field_op(table::EntryOp::Kind::kAdd, t.name(), now[j++]));
        ++adds;
      } else if (j == now.size() || entry_less(old[i], now[j])) {
        range_delta[r] -= old[i].match.kind == table::ValueMatch::Kind::kRange;
        removes.push_back(
            field_op(table::EntryOp::Kind::kRemove, t.name(), old[i++]));
      } else {
        ++i;
        ++j;
      }
    }
  }
  // A stage's match kind follows whether its component is empty and
  // whether it holds a range entry. One that would change needs a
  // reprogram, which entry ops cannot express: regenerate instead.
  for (std::size_t r = 0; r < subjects.size(); ++r) {
    const bool flipped = std::find(moved.flipped.begin(), moved.flipped.end(),
                                   r) != moved.flipped.end();
    if (range_delta[r] == 0 && !flipped) continue;
    const table::Table& t = have.tables[r];
    const bool has_range =
        static_cast<std::ptrdiff_t>(range_entries(t.entries())) +
            range_delta[r] > 0;
    if (stage_kind(schema_, subjects[r], opts_, live_.component(r),
                   has_range) != t.kind())
      return false;
  }
  std::move(removes.begin(), removes.end(), std::back_inserter(ops));
  removes.clear();

  // Leaf entries of the terminals that became reachable or unreachable:
  // adds and modifies by state, then removes.
  struct LeafWrite {
    table::StateId state;
    table::EntryOp::Kind kind;
    const lang::ActionSetPtr* set;  // the terminal's; null for a remove
  };
  std::vector<LeafWrite> leaf;
  for (const bdd::NodeRef t : moved.terminals) {
    const table::StateId state = states_.ids.at(t.raw());
    const lang::ActionSetPtr& set = mgr.terminal_set(t);
    const bool want = live_.reachable_terminal(t) &&
                      !(set->is_drop() && !opts_.emit_drop_entries);
    const table::LeafEntry* was = have.leaf.lookup(state);
    if (want && !was)
      leaf.push_back({state, table::EntryOp::Kind::kAdd, &set});
    else if (want && !(*was->actions == *set))
      leaf.push_back({state, table::EntryOp::Kind::kModify, &set});
    else if (!want && was)
      leaf.push_back({state, table::EntryOp::Kind::kRemove, nullptr});
  }
  std::sort(leaf.begin(), leaf.end(), [](const LeafWrite& a, const LeafWrite& b) {
    return std::pair(a.kind == table::EntryOp::Kind::kRemove, a.state) <
           std::pair(b.kind == table::EntryOp::Kind::kRemove, b.state);
  });
  const std::size_t field_ops = ops.size();
  for (const LeafWrite& w : leaf) {
    adds += w.kind != table::EntryOp::Kind::kRemove;
    ops.push_back(leaf_op(w.kind, w.state,
                          w.set ? **w.set : *have.leaf.lookup(w.state)->actions));
  }

  if (field_ops > 0) {
    auto applied =
        table::apply_ops(have, std::span(ops).first(field_ops));
    if (!applied.ok()) {
      Error e = applied.error();
      e.message = "incremental delta does not apply to its base: " + e.message;
      return e;
    }
  }
  // The leaf ops land as table::apply_ops lands them (removes, modifies,
  // adds in delta order, then group compaction), so the base stays what
  // the switch runs; but an entry takes its terminal's own set, as in a
  // generated program, rather than a copy of the op's.
  std::vector<table::StateId> removed;  // sorted: removes are last
  for (const LeafWrite& w : leaf)
    if (w.kind == table::EntryOp::Kind::kRemove) removed.push_back(w.state);
  bool released = false;
  std::vector<std::size_t> drop;
  for (std::size_t i = 0; i < have.leaf.entries().size(); ++i) {
    const table::LeafEntry& e = have.leaf.entries()[i];
    if (!std::binary_search(removed.begin(), removed.end(), e.state)) continue;
    released |= e.actions->ports.size() > 1;
    drop.push_back(i);
  }
  have.leaf.remove_entries(drop);
  for (const auto kind : {table::EntryOp::Kind::kModify, table::EntryOp::Kind::kAdd}) {
    for (const LeafWrite& w : leaf) {
      if (w.kind != kind) continue;
      table::LeafEntry e;
      e.state = w.state;
      e.actions = *w.set;
      if (e.actions->ports.size() > 1) e.mcast_group = have.mcast.intern(e.actions);
      if (kind == table::EntryOp::Kind::kAdd) {
        have.leaf.add_entry(std::move(e));
      } else {
        released |= have.leaf.lookup(w.state)->actions->ports.size() > 1;
        have.leaf.replace_entry(w.state, std::move(e));
      }
    }
  }
  if (released) have.leaf.compact_groups(have.mcast);
  delta.total_entries = have.total_entries();
  delta.reused_entries = delta.total_entries - adds;
  delta.ops = std::move(ops);

  // Whole-program telemetry, from the counts and the patched program.
  tg.in_nodes = live_.in_nodes();
  for (std::size_t r = 0; r < subjects.size(); ++r) {
    if (!live_.component(r)) continue;
    ++tg.components;
    tg.stage_entries.push_back(
        {have.tables[r].name(), have.tables[r].entries().size()});
  }
  tg.leaf_entries = have.leaf.entries().size();
  return true;
}

// --- live graph -------------------------------------------------------------

IncrementalCompiler::LiveGraph::Moved IncrementalCompiler::LiveGraph::move_to(
    const bdd::BddManager& mgr, bdd::NodeRef root) {
  Moved moved;
  if (root_ == root) return moved;
  const std::size_t n_nodes = mgr.node_table_size();
  if (refs_.size() < n_nodes) {
    refs_.resize(n_nodes);
    in_refs_.resize(n_nodes);
    is_in_.resize(n_nodes);
  }
  term_refs_.resize(std::max(term_refs_.size(), mgr.terminal_count()));
  var_nodes_.resize(std::max<std::size_t>(var_nodes_.size(), mgr.var_count()));
  rank_nodes_.resize(mgr.order().subjects().size());
  const std::vector<std::size_t> ranks_before = rank_nodes_;

  // Adds (or removes) the edge into the root, and every edge out of a node
  // that becomes reachable (or unreachable) on the way. The new root is
  // linked before the old one is unlinked, so shared nodes never drop to
  // zero. `in_edge` marks an edge from another subject's node (or the
  // root's own reference), which makes its target an In node.
  std::vector<std::uint32_t> touched;
  std::vector<std::pair<bdd::NodeRef, bool>> stack;
  auto walk = [&](bdd::NodeRef from, bool add) {
    stack.push_back({from, true});
    while (!stack.empty()) {
      const auto [r, in_edge] = stack.back();
      stack.pop_back();
      if (r.is_terminal()) {
        std::uint32_t& c = term_refs_[r.index()];
        if (add ? c++ == 0 : --c == 0) {
          moved.terminals.push_back(r);
          add ? ++terminals_ : --terminals_;
        }
        continue;
      }
      const std::uint32_t i = r.index();
      touched.push_back(i);
      if (in_edge) add ? ++in_refs_[i] : --in_refs_[i];
      if (add ? refs_[i]++ != 0 : --refs_[i] != 0) continue;
      const bdd::Node& n = mgr.node(r);
      const lang::Subject s = mgr.var_pred(n.var).subject;
      std::size_t& per_rank = rank_nodes_[mgr.order().rank(s)];
      std::uint32_t& per_var = var_nodes_[n.var];
      if (add) {
        ++nodes_;
        ++per_rank;
        vars_ += per_var++ == 0;
      } else {
        --nodes_;
        --per_rank;
        vars_ -= --per_var == 0;
      }
      for (const bdd::NodeRef c : {n.hi, n.lo})
        stack.push_back({c, !c.is_terminal() && mgr.subject_of(c) != s});
    }
  };
  walk(root, true);
  if (root_) walk(*root_, false);
  root_ = root;

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint32_t i : touched) {
    const bool now = refs_[i] != 0 && in_refs_[i] != 0;
    if (now == (is_in_[i] != 0)) continue;
    is_in_[i] = now;
    (now ? moved.arrived : moved.departed).push_back(bdd::NodeRef::node(i));
    now ? ++in_nodes_ : --in_nodes_;
  }
  std::sort(moved.terminals.begin(), moved.terminals.end(),
            [](bdd::NodeRef a, bdd::NodeRef b) { return a.index() < b.index(); });
  for (std::size_t r = 0; r < rank_nodes_.size(); ++r)
    if ((ranks_before[r] != 0) != (rank_nodes_[r] != 0))
      moved.flipped.push_back(r);
  return moved;
}

bdd::BddStats IncrementalCompiler::LiveGraph::stats(
    const bdd::BddManager& mgr) const {
  bdd::BddStats s;
  s.node_count = nodes_;
  s.terminal_count = terminals_;
  s.var_count = vars_;
  for (std::size_t r = 0; r < rank_nodes_.size(); ++r)
    if (rank_nodes_[r]) s.nodes_per_subject[mgr.order().subjects()[r]] =
        rank_nodes_[r];
  return s;
}

Result<const table::Pipeline*> IncrementalCompiler::pipeline() const {
  if (!installed_)
    return Error{"IncrementalCompiler::pipeline() before a successful "
                 "commit()",
                 0, 0, "E122"};
  return &*installed_;
}

void IncrementalCompiler::restore_installed(table::Pipeline last_good) {
  installed_ = std::move(last_good);
  base_from_commit_ = false;
}

}  // namespace camus::compiler
