#include "compiler/incremental.hpp"

#include <algorithm>

#include <sstream>

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
  // memo caches make most of those unions lookups); then regenerate
  // tables with stable state ids.
  phase.reset();
  bdd::NodeRef root = unite_changed();
  delta.stats.t_union = phase.seconds();
  delta.stats.bdd_before_prune = manager_->stats(root);
  phase.reset();
  const bdd::NodeRef unpruned = root;
  if (opts_.semantic_prune) root = manager_->prune(root);
  delta.stats.t_prune = phase.seconds();
  // The semantic union already prunes, so the root is usually unchanged
  // and its statistics need no second walk.
  delta.stats.bdd_after_prune = root == unpruned
                                    ? delta.stats.bdd_before_prune
                                    : manager_->stats(root);
  last_root_ = root;

  // Pin the (non-terminal) root to the initial state id. The root node
  // changes on almost every commit, but its role — "pipeline entry" — does
  // not; without pinning, every first-table entry would be renumbered and
  // show up as churn.
  if (!root.is_terminal()) {
    if (pinned_root_raw_ && *pinned_root_raw_ != root.raw())
      states_.ids.erase(*pinned_root_raw_);
    states_.ids.insert_or_assign(root.raw(), table::kInitialState);
    if (states_.next == table::kInitialState) ++states_.next;
    pinned_root_raw_ = root.raw();
  }

  phase.reset();
  auto gen_result = bdd_to_tables(*manager_, root, schema_, opts_, &states_);
  if (!gen_result.ok()) return gen_result.error();
  TableGenResult gen = std::move(gen_result).take();
  if (opts_.domain_compression)
    compress_domains(gen.pipeline, opts_);
  materialize_stages(gen.pipeline, *manager_, schema_);
  delta.stats.t_tables = phase.seconds();
  delta.stats.tablegen = gen.stats;
  delta.stats.cache = manager_->cache_stats();
  delta.stats.total_entries = gen.pipeline.total_entries();
  delta.stats.multicast_groups = gen.pipeline.mcast.size();

  // Diff against the installed pipeline. The diff itself is the shared
  // reconciliation currency in table/delta.hpp — the controller's
  // warm-boot anti-entropy pass computes repair deltas with the same
  // function, so churn deltas and recovery repairs cannot drift apart.
  table::PipelineDiff diff = table::diff_pipelines(
      installed_ ? &*installed_ : nullptr, gen.pipeline);
  delta.ops = std::move(diff.ops);
  delta.reused_entries = diff.reused_entries;
  delta.total_entries = diff.total_entries;
  delta.requires_reprogram = diff.requires_reprogram;

  installed_ = std::move(gen.pipeline);
  delta.compile_seconds = timer.seconds();
  delta.stats.t_total = delta.compile_seconds;
  return delta;
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
}

}  // namespace camus::compiler
