#include "compiler/partition.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "compiler/compress.hpp"
#include "compiler/field_order.hpp"
#include "util/mem.hpp"
#include "util/timer.hpp"

namespace camus::compiler {

using bdd::NodeRef;
using lang::Conjunction;
using lang::FlatRule;
using lang::Subject;
using table::Entry;
using table::StateId;
using table::Table;
using table::ValueMatch;

std::optional<std::uint64_t> point_constrained_value(const FlatRule& r,
                                                     Subject s) {
  if (r.terms.empty()) return std::nullopt;
  std::optional<std::uint64_t> v;
  for (const auto& term : r.terms) {
    const auto it = term.constraints.find(s);
    if (it == term.constraints.end()) return std::nullopt;
    const auto& ivs = it->second.intervals();
    if (ivs.size() != 1 || ivs[0].lo != ivs[0].hi) return std::nullopt;
    if (v && *v != ivs[0].lo) return std::nullopt;
    v = ivs[0].lo;
  }
  return v;
}

namespace {

// CompileOptions::threads, with 0 resolved to the hardware concurrency
// (1 if unknown).
std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

// Restricts a rule that does not pin `subject` to the slice subject == v:
// terms whose constraint excludes v are dropped; terms admitting v lose
// the constraint (the dispatch hit already established subject == v).
// Returns a rule with no terms when the slice is empty.
FlatRule specialize(const FlatRule& r, Subject subject, std::uint64_t v) {
  FlatRule out;
  out.actions = r.actions;
  for (const Conjunction& term : r.terms) {
    const auto it = term.constraints.find(subject);
    if (it == term.constraints.end()) {
      out.terms.push_back(term);
      continue;
    }
    if (!it->second.contains(v)) continue;
    Conjunction t = term;
    t.constraints.erase(subject);
    out.terms.push_back(std::move(t));
  }
  return out;
}

// Strips the pinned subject constraint from every term.
FlatRule strip(const FlatRule& r, Subject subject) {
  FlatRule out;
  out.actions = r.actions;
  for (const Conjunction& term : r.terms) {
    Conjunction t = term;
    t.constraints.erase(subject);
    out.terms.push_back(std::move(t));
  }
  return out;
}

// Display name, width, and symbol flag for the dispatch table.
struct DispatchInfo {
  std::string name;
  std::uint32_t width_bits = 64;
  bool symbol = false;
};

DispatchInfo dispatch_info(Subject s, const spec::Schema& schema) {
  DispatchInfo info;
  if (s.kind == Subject::Kind::kField) {
    const auto& f = schema.field(s.id);
    info.name = f.path();
    info.width_bits = f.width_bits;
    info.symbol = f.kind == spec::FieldKind::kSymbol;
  } else {
    const auto& v = schema.state_var(s.id);
    info.name = v.name;
    info.width_bits = v.width_bits;
  }
  return info;
}

// Highest pipeline state id used anywhere in a shard pipeline. Shard
// state ranges [base, base + max + 1) are packed back to back, so the
// stitched state space stays dense.
StateId max_state(const table::Pipeline& p) {
  StateId m = p.initial_state;
  for (const Table& t : p.tables) {
    for (const Entry& e : t.entries()) {
      m = std::max({m, e.state, e.next_state});
    }
  }
  for (const auto& e : p.leaf.entries()) m = std::max(m, e.state);
  return m;
}

}  // namespace

PartitionPlan plan_partition(const std::vector<FlatRule>& rules,
                             const bdd::VarOrder& order) {
  PartitionPlan plan;
  if (rules.empty()) return plan;

  // The dispatch attribute: the highest-ranked subject pinned by at least
  // half the rules.
  for (Subject s : order.subjects()) {
    std::size_t covered = 0;
    for (const auto& r : rules)
      if (point_constrained_value(r, s)) ++covered;
    if (covered * 2 >= rules.size()) {
      plan.subject = s;
      plan.pinned_rules = covered;
      break;
    }
  }
  if (!plan.subject) return plan;

  std::map<std::uint64_t, std::vector<FlatRule>> by_value;
  for (const auto& r : rules) {
    if (auto v = point_constrained_value(r, *plan.subject))
      by_value[*v].push_back(strip(r, *plan.subject));
    else
      plan.catch_all.push_back(r);
  }
  if (by_value.size() < 2) {
    plan.subject.reset();
    plan.catch_all.clear();
    plan.pinned_rules = 0;
    return plan;
  }

  for (auto& [v, group] : by_value) {
    // Catch-all rules apply to every slice they intersect; the dispatch
    // wildcard cannot reach them for packets that hit a value entry, so
    // they are replicated (specialized) into each value shard.
    for (const FlatRule& r : plan.catch_all) {
      FlatRule sp = specialize(r, *plan.subject, v);
      if (!sp.terms.empty()) group.push_back(std::move(sp));
    }
    plan.values.push_back(v);
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

bool partition_applies(const PartitionPlan& plan, const CompileOptions& opts,
                       std::size_t n_rules) {
  if (!plan.subject) return false;
  switch (opts.partition) {
    case PartitionMode::kOff: return false;
    case PartitionMode::kForce: return true;
    case PartitionMode::kAuto: return n_rules >= opts.partition_min_rules;
  }
  return false;
}

util::Result<Compiled> compile_partitioned(const spec::Schema& schema,
                                           const std::vector<FlatRule>& flat,
                                           const PartitionPlan& plan,
                                           const CompileOptions& opts) {
  util::Timer total;
  Compiled out;
  out.stats.rule_count = flat.size();
  for (const auto& r : flat) out.stats.dnf_terms += r.terms.size();
  out.stats.mem.rss_before = util::current_rss_bytes();

  // One total order for every shard and the reference: the base heuristic
  // order with the partition attribute moved to the front, so the
  // dispatch stage (rank 0) plus the stitched stages follow it.
  bdd::VarOrder base = choose_order(schema, flat, opts.order);
  std::vector<Subject> subjects{*plan.subject};
  for (Subject s : base.subjects())
    if (!(s == *plan.subject)) subjects.push_back(s);
  const bdd::VarOrder porder(std::move(subjects));
  const bdd::DomainMap domains(schema);

  // Shard task list in canonical order: value groups ascending, default
  // last. Stitch output is a pure function of this order, so it is
  // identical at every thread count.
  struct ShardTask {
    const std::vector<FlatRule>* rules;
    table::Pipeline pipeline;
    ShardStats stats;
    std::size_t components = 0, in_nodes = 0, paths = 0;
    bdd::BddStats before_prune, after_prune;
    bdd::CacheStats cache;
    std::string error;
  };
  std::vector<ShardTask> tasks(plan.groups.size() +
                               (plan.catch_all.empty() ? 0 : 1));
  for (std::size_t i = 0; i < plan.groups.size(); ++i)
    tasks[i].rules = &plan.groups[i];
  if (!plan.catch_all.empty()) tasks.back().rules = &plan.catch_all;

  CompileOptions shard_opts = opts;
  shard_opts.domain_compression = false;  // runs post-stitch, globally
  shard_opts.partition = PartitionMode::kOff;

  std::atomic<std::size_t> next{0};
  util::Timer build_timer;
  auto work = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      ShardTask& task = tasks[i];
      util::Timer t;
      try {
        bdd::BddManager mgr(porder, domains);
        std::vector<NodeRef> roots;
        roots.reserve(task.rules->size());
        for (const FlatRule& r : *task.rules) roots.push_back(mgr.build_rule(r));
        NodeRef root = mgr.unite_all(std::move(roots), opts.semantic_prune);
        task.before_prune = mgr.stats(root);
        const NodeRef unpruned = root;
        if (opts.semantic_prune) root = mgr.prune(root);
        task.after_prune =
            root == unpruned ? task.before_prune : mgr.stats(root);
        auto gen = bdd_to_tables(mgr, root, schema, shard_opts);
        if (!gen.ok()) {
          task.error = gen.error().message;
          continue;
        }
        task.pipeline = std::move(gen.value().pipeline);
        task.components = gen.value().stats.components;
        task.in_nodes = gen.value().stats.in_nodes;
        task.paths = gen.value().stats.paths_enumerated;
        task.stats.rules = task.rules->size();
        task.stats.bdd_nodes = mgr.node_table_size();
        task.stats.manager_bytes = mgr.memory_bytes();
        task.cache = mgr.cache_stats();
      } catch (const std::exception& e) {
        task.error = e.what();
        continue;
      }
      task.stats.t_seconds = t.seconds();
    }
  };
  const std::size_t n_workers =
      std::min(resolve_threads(opts.threads), tasks.size());
  std::vector<std::thread> pool;
  pool.reserve(n_workers > 0 ? n_workers - 1 : 0);
  for (std::size_t i = 1; i < n_workers; ++i) pool.emplace_back(work);
  work();
  for (auto& th : pool) th.join();
  out.stats.t_build = build_timer.seconds();
  out.stats.mem.rss_after_build = util::current_rss_bytes();

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].error.empty())
      return util::Error{"partition shard " + std::to_string(i) + ": " +
                         tasks[i].error};
  }

  // --- stitch -----------------------------------------------------------
  util::Timer stitch_timer;
  table::Pipeline& merged = out.pipeline;
  merged.initial_state = table::kInitialState;  // reserved dispatch state

  const DispatchInfo dinfo = dispatch_info(*plan.subject, schema);
  Table dispatch(dinfo.name + "_dispatch", *plan.subject,
                 table::MatchKind::kExact, dinfo.width_bits);
  dispatch.set_symbol(dinfo.symbol);

  // Merged per-subject tables keyed by pipeline rank under porder. Shard
  // entries can never collide across shards: their state ranges are
  // disjoint and a miss passes the state through untouched.
  std::map<std::size_t, Table> by_rank;
  StateId state_base = 1;  // state 0 is the dispatch state
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    table::Pipeline& sp = tasks[i].pipeline;
    const StateId base = state_base;
    state_base += max_state(sp) + 1;

    const bool is_default = !plan.catch_all.empty() && i + 1 == tasks.size();
    Entry d;
    d.state = table::kInitialState;
    d.match = is_default ? ValueMatch::any() : ValueMatch::exact(plan.values[i]);
    d.next_state = base + sp.initial_state;
    dispatch.add_entry(d);

    for (Table& t : sp.tables) {
      const std::size_t rank = porder.rank(t.subject());
      auto it = by_rank.find(rank);
      if (it == by_rank.end()) {
        Table nt(t.name(), t.subject(), t.kind(), t.width_bits());
        nt.set_symbol(t.is_symbol());
        it = by_rank.emplace(rank, std::move(nt)).first;
      } else if (it->second.kind() != t.kind()) {
        // Shards may disagree on exact-vs-range; range admits both.
        Table nt(it->second.name(), it->second.subject(),
                 table::MatchKind::kRange, it->second.width_bits());
        nt.set_symbol(it->second.is_symbol());
        for (const Entry& e : it->second.entries()) nt.add_entry(e);
        it->second = std::move(nt);
      }
      for (const Entry& e : t.entries()) {
        Entry ne = e;
        ne.state += base;
        ne.next_state += base;
        it->second.add_entry(ne);
      }
    }
    for (const auto& le : sp.leaf.entries()) {
      table::LeafEntry ne;
      ne.state = le.state + base;
      ne.actions = le.actions;  // the shard's set, shared
      if (ne.actions->ports.size() > 1)
        ne.mcast_group = merged.mcast.intern(ne.actions);
      merged.leaf.add_entry(std::move(ne));
    }
    sp = table::Pipeline{};  // release shard storage as we go
  }

  merged.tables.push_back(std::move(dispatch));
  for (auto& [rank, t] : by_rank) merged.tables.push_back(std::move(t));
  out.stats.t_stitch = stitch_timer.seconds();

  // --- post-stitch rewrites --------------------------------------------
  util::Timer tables_timer;
  if (opts.intern_entries) {
    out.stats.intern = intern_entries(merged);
    out.stats.interned = true;
  }
  if (opts.domain_compression) compress_domains(merged, opts);
  out.stats.t_tables = tables_timer.seconds();
  out.stats.mem.rss_after_tables = util::current_rss_bytes();

  // --- optional monolithic reference (equivalence-checker anchor) -------
  if (opts.partition_reference) {
    util::Timer ref_timer;
    out.manager = std::make_shared<bdd::BddManager>(porder, domains);
    std::vector<NodeRef> roots;
    roots.reserve(flat.size());
    for (const FlatRule& r : flat) roots.push_back(out.manager->build_rule(r));
    out.root = out.manager->unite_all(std::move(roots), opts.semantic_prune);
    if (opts.semantic_prune) out.root = out.manager->prune(out.root);
    out.stats.t_union = ref_timer.seconds();
  }

  // --- telemetry --------------------------------------------------------
  // The BDD work is the shards': node, terminal and variable counts and
  // cache totals sum over the shard managers (the optional reference is
  // not part of the compile).
  auto fold = [](bdd::BddStats& into, const bdd::BddStats& s) {
    into.node_count += s.node_count;
    into.terminal_count += s.terminal_count;
    into.var_count += s.var_count;
  };
  out.stats.threads_used = n_workers;
  out.stats.partition_groups = tasks.size();
  out.stats.partition_subject = dinfo.name;
  for (const ShardTask& task : tasks) {
    out.stats.shards.push_back(task.stats);
    fold(out.stats.bdd_before_prune, task.before_prune);
    fold(out.stats.bdd_after_prune, task.after_prune);
    out.stats.cache.accumulate(task.cache);
    out.stats.tablegen.components += task.components;
    out.stats.tablegen.in_nodes += task.in_nodes;
    out.stats.tablegen.in_nodes_regenerated += task.in_nodes;
    out.stats.tablegen.paths_enumerated += task.paths;
    out.stats.mem.bdd_bytes =
        std::max<std::uint64_t>(out.stats.mem.bdd_bytes,
                                task.stats.manager_bytes);
  }
  for (const Table& t : merged.tables)
    out.stats.tablegen.stage_entries.push_back(
        {t.name(), t.entries().size()});
  out.stats.tablegen.leaf_entries = merged.leaf.entries().size();
  out.stats.total_entries = merged.total_entries();
  out.stats.multicast_groups = merged.mcast.size();
  out.stats.mem.peak_rss = util::peak_rss_bytes();
  out.stats.t_total = total.seconds();
  return out;
}

}  // namespace camus::compiler
