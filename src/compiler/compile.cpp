#include "compiler/compile.hpp"

#include <sstream>

#include "compiler/compress.hpp"
#include "compiler/field_order.hpp"
#include "compiler/partition.hpp"
#include "lang/dnf.hpp"
#include "lang/parser.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/timer.hpp"

namespace camus::compiler {

using util::Result;
using util::Timer;

std::string CompileStats::to_string() const {
  std::ostringstream os;
  os << "rules=" << rule_count << " dnf_terms=" << dnf_terms
     << " bdd_nodes=" << bdd_before_prune.node_count << "->"
     << bdd_after_prune.node_count
     << " entries=" << total_entries
     << " mcast_groups=" << multicast_groups
     << " time=" << t_total << "s"
     << " (flatten=" << t_flatten << " build=" << t_build
     << " union=" << t_union << " prune=" << t_prune
     << " tables=" << t_tables << ")";
  if (partition_groups > 0) {
    os << " partition=" << partition_subject << "/" << partition_groups
       << " stitch=" << t_stitch << "s";
  }
  if (!partition_fallback.empty())
    os << " partition_fallback=\"" << partition_fallback << "\"";
  if (interned) {
    os << " intern=" << intern.entries_before << "->" << intern.entries_after
       << " (states " << intern.states_before << "->" << intern.states_after
       << ", " << intern.iterations << " rounds)";
  }
  if (threads_used > 1) {
    os << " threads=" << threads_used << " shards=[";
    for (std::size_t i = 0; i < shards.size(); ++i)
      os << (i ? "," : "") << shards[i].rules;
    os << "]";
  }
  if (mem.peak_rss > 0)
    os << " peak_rss_mb=" << (mem.peak_rss >> 20)
       << " bdd_mb=" << (mem.bdd_bytes >> 20);
  const std::uint64_t probes = cache.unite_probes + cache.unite_res_probes;
  if (probes > 0) os << " memo_hit_rate=" << cache.memo_hit_rate();
  return os.str();
}

std::string CompileStats::to_json() const {
  using util::json::format_double;
  std::ostringstream os;
  os << "{";
  os << "\"rules\":" << rule_count << ",\"dnf_terms\":" << dnf_terms;
  os << ",\"threads\":" << threads_used;
  os << ",\"phases\":{"
     << "\"flatten\":" << format_double(t_flatten)
     << ",\"build\":" << format_double(t_build)
     << ",\"union\":" << format_double(t_union)
     << ",\"prune\":" << format_double(t_prune)
     << ",\"stitch\":" << format_double(t_stitch)
     << ",\"tables\":" << format_double(t_tables)
     << ",\"total\":" << format_double(t_total) << "}";
  os << ",\"partition\":{"
     << "\"groups\":" << partition_groups
     << ",\"subject\":\"" << util::json::escape(partition_subject)
     << "\",\"fallback\":\"" << util::json::escape(partition_fallback)
     << "\"}";
  os << ",\"intern\":{"
     << "\"applied\":" << (interned ? "true" : "false")
     << ",\"states_before\":" << intern.states_before
     << ",\"states_after\":" << intern.states_after
     << ",\"entries_before\":" << intern.entries_before
     << ",\"entries_after\":" << intern.entries_after
     << ",\"iterations\":" << intern.iterations << "}";
  os << ",\"mem\":{"
     << "\"rss_before\":" << mem.rss_before
     << ",\"rss_after_build\":" << mem.rss_after_build
     << ",\"rss_after_tables\":" << mem.rss_after_tables
     << ",\"peak_rss\":" << mem.peak_rss
     << ",\"bdd_bytes\":" << mem.bdd_bytes << "}";
  os << ",\"bdd\":{"
     << "\"nodes_before_prune\":" << bdd_before_prune.node_count
     << ",\"nodes_after_prune\":" << bdd_after_prune.node_count
     << ",\"terminals\":" << bdd_after_prune.terminal_count
     << ",\"vars\":" << bdd_after_prune.var_count << "}";
  os << ",\"cache\":{"
     << "\"unique_nodes\":" << cache.unique_nodes
     << ",\"terminals\":" << cache.terminals
     << ",\"vars\":" << cache.vars
     << ",\"unite_probes\":" << cache.unite_probes
     << ",\"unite_hits\":" << cache.unite_hits
     << ",\"unite_res_probes\":" << cache.unite_res_probes
     << ",\"unite_res_hits\":" << cache.unite_res_hits
     << ",\"split_probes\":" << cache.split_probes
     << ",\"split_hits\":" << cache.split_hits
     << ",\"memo_hit_rate\":" << format_double(cache.memo_hit_rate()) << "}";
  os << ",\"tablegen\":{"
     << "\"components\":" << tablegen.components
     << ",\"in_nodes\":" << tablegen.in_nodes
     << ",\"in_nodes_regenerated\":" << tablegen.in_nodes_regenerated
     << ",\"paths_enumerated\":" << tablegen.paths_enumerated << "}";
  os << ",\"stages\":[";
  for (std::size_t i = 0; i < tablegen.stage_entries.size(); ++i) {
    const auto& s = tablegen.stage_entries[i];
    os << (i ? "," : "") << "{\"table\":\"" << util::json::escape(s.table)
       << "\",\"entries\":" << s.entries << "}";
  }
  if (!tablegen.stage_entries.empty() || tablegen.leaf_entries > 0 ||
      total_entries > 0) {
    os << (tablegen.stage_entries.empty() ? "" : ",")
       << "{\"table\":\"leaf\",\"entries\":" << tablegen.leaf_entries << "}";
  }
  os << "]";
  os << ",\"entries\":" << total_entries
     << ",\"multicast_groups\":" << multicast_groups;
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& s = shards[i];
    os << (i ? "," : "") << "{\"rules\":" << s.rules
       << ",\"bdd_nodes\":" << s.bdd_nodes
       << ",\"manager_bytes\":" << s.manager_bytes
       << ",\"seconds\":" << format_double(s.t_seconds) << "}";
  }
  os << "]}";
  return os.str();
}

Result<Compiled> compile_rules(const spec::Schema& schema,
                               const std::vector<lang::BoundRule>& rules,
                               const CompileOptions& opts) {
  Timer total;
  Compiled out;
  out.stats.rule_count = rules.size();
  out.stats.mem.rss_before = util::current_rss_bytes();

  // 1. Normalize every rule into disjunctive form.
  Timer t;
  auto flat = lang::flatten_rules(rules, schema, opts.max_dnf_terms);
  if (!flat.ok()) return flat.error();
  for (const auto& r : flat.value()) out.stats.dnf_terms += r.terms.size();
  out.stats.t_flatten = t.seconds();

  // 1.5. Partitioned-output path: when a dominant point-constrained
  // attribute exists and the mode/threshold gate passes, compile each
  // value slice to an independent sub-pipeline and stitch behind a
  // dispatch stage (compiler/partition.*). Peak BDD size and memory then
  // scale with the largest shard, not the union.
  if (opts.partition != PartitionMode::kOff) {
    bdd::VarOrder probe_order = choose_order(schema, flat.value(), opts.order);
    PartitionPlan plan = plan_partition(flat.value(), probe_order);
    if (partition_applies(plan, opts, flat.value().size())) {
      auto part = compile_partitioned(schema, flat.value(), plan, opts);
      if (!part.ok()) return part.error();
      part.value().stats.t_flatten = out.stats.t_flatten;
      part.value().stats.mem.rss_before = out.stats.mem.rss_before;
      part.value().stats.t_total = total.seconds();
      return part;
    }
  }

  // 2+3. Build one BDD per rule under the chosen variable order and union
  // them all (overlapping rules merge their ActionSets at the terminals).
  // This path is serial at every opts.threads, so the program is a
  // function of the rules and options alone.
  bdd::VarOrder order = choose_order(schema, flat.value(), opts.order);
  out.manager = std::make_shared<bdd::BddManager>(std::move(order),
                                                  bdd::DomainMap(schema));
  bdd::BddManager& mgr = *out.manager;

  t.reset();
  std::vector<bdd::NodeRef> roots;
  roots.reserve(flat.value().size());
  for (const auto& r : flat.value()) roots.push_back(mgr.build_rule(r));
  out.stats.t_build = t.seconds();

  t.reset();
  out.root = mgr.unite_all(std::move(roots), opts.semantic_prune);
  out.stats.t_union = t.seconds();
  out.stats.bdd_before_prune = mgr.stats(out.root);
  out.stats.mem.rss_after_build = util::current_rss_bytes();

  // 4. Reduction (iii): remove predicates implied by ancestors.
  t.reset();
  const bdd::NodeRef unpruned = out.root;
  if (opts.semantic_prune) out.root = mgr.prune(out.root);
  out.stats.t_prune = t.seconds();
  // A prune that changed nothing needs no second walk.
  out.stats.bdd_after_prune = out.root == unpruned
                                  ? out.stats.bdd_before_prune
                                  : mgr.stats(out.root);

  // 5. Algorithm 1: slice into per-field tables.
  t.reset();
  auto gen = bdd_to_tables(mgr, out.root, schema, opts);
  if (!gen.ok()) return gen.error();
  out.pipeline = std::move(gen.value().pipeline);
  out.stats.tablegen = gen.value().stats;

  // 6. Optional table-level rewrites: entry interning (state-machine
  // minimization), then domain compression.
  if (opts.intern_entries) {
    out.stats.intern = intern_entries(out.pipeline);
    out.stats.interned = true;
  }
  if (opts.domain_compression) compress_domains(out.pipeline, opts);
  out.stats.t_tables = t.seconds();

  out.stats.cache = mgr.cache_stats();
  out.stats.total_entries = out.pipeline.total_entries();
  out.stats.multicast_groups = out.pipeline.mcast.size();
  out.stats.mem.rss_after_tables = util::current_rss_bytes();
  out.stats.mem.peak_rss = util::peak_rss_bytes();
  out.stats.mem.bdd_bytes = mgr.memory_bytes();
  out.stats.t_total = total.seconds();
  return out;
}

Result<Compiled> compile_source(const spec::Schema& schema,
                                std::string_view rules_text,
                                const CompileOptions& opts) {
  auto parsed = lang::parse_rules(rules_text);
  if (!parsed.ok()) return parsed.error();
  auto bound = lang::bind_rules(parsed.value(), schema);
  if (!bound.ok()) return bound.error();
  return compile_rules(schema, bound.value(), opts);
}

}  // namespace camus::compiler
