// camusc — the Camus compiler driver. The command-line face of the whole
// system: reads a message-format spec and a subscription file, runs
// analysis + both compilation steps, and writes the artifacts.
//
//   camusc --spec spec.p4 --rules subs.txt [options]
//
// Options:
//   --p4 FILE          write the P4-16 program
//   --p4-14 FILE       write the P4_14 program
//   --rules-out FILE   write the control-plane entry dump
//   --pipeline FILE    write the serialized pipeline (switch exchange format)
//   --dot FILE         write the BDD in GraphViz format
//   --tables           print the compiled tables (Figure 4 style)
//   --analyze          print the rule-set analysis report
//   --order H          declared | exact-first | selectivity-asc | selectivity-desc
//   --no-prune         disable reduction (iii) (ablation)
//   --compress         enable domain compression
//   --emit-drop        emit explicit drop entries
//   --stats            print compile statistics
//   --stats-json FILE  write the compile-stats JSON profile ("-" = stdout)
//   --threads N        workers of the partitioned compile (0 = hardware
//                      threads); the program is the same at every count
//   --partition M      partitioned compilation: auto | force | off.
//                      Shards the rule set by its dominant exact-match
//                      attribute, compiles each shard independently, and
//                      stitches the sub-pipelines behind a dispatch stage
//   --intern           minimize the stitched/monolithic pipeline by
//                      interning behaviorally equivalent states
//   --explore          run the cost-model layout search on a sample of the
//                      rule set and compile the full set with the winner
//   --explore-json F   write the explore candidate scores as JSON
//                      ("-" = stdout); implies --explore
//   --lint             run the static verifier (camus::verify) on the rules
//                      and the compiled pipeline; exit 1 on error-severity
//                      findings
//   --lint-json FILE   write the lint diagnostics as JSON ("-" = stdout);
//                      implies --lint
//   --explain ASSIGN   trace one message through the pipeline, e.g.
//                      --explain "stock=GOOGL,price=120,shares=5"
//   --base FILE        previously installed subscription set: --rules is
//                      treated as the new set and the update is compiled
//                      incrementally as a delta against FILE
//   --delta-json FILE  write the per-commit delta telemetry JSON
//                      (ops/adds/removes/modifies/reuse_fraction plus the
//                      compile profile; "-" = stdout). Without --base the
//                      commit is a cold start and every entry is an add.
// With no --spec, uses the built-in ITCH schema; with no --rules, reads
// subscriptions from stdin.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "compiler/analysis.hpp"
#include "compiler/compile.hpp"
#include "compiler/explore.hpp"
#include "compiler/incremental.hpp"
#include "compiler/p4gen.hpp"
#include "table/serialize.hpp"
#include "lang/parser.hpp"
#include "spec/itch_spec.hpp"
#include "spec/spec_parser.hpp"
#include "table/table.hpp"
#include "util/intern.hpp"
#include "verify/verify.hpp"

using namespace camus;

namespace {

int usage() {
  std::cerr << "usage: camusc [--spec FILE] [--rules FILE] [--p4 FILE] "
               "[--p4-14 FILE]\n              [--rules-out FILE] [--dot "
               "FILE] [--tables] [--analyze]\n              [--order H] "
               "[--no-prune] [--compress] [--emit-drop] [--stats]\n"
               "              [--stats-json FILE|-] [--threads N] [--lint] "
               "[--lint-json FILE|-]\n              [--base FILE] "
               "[--delta-json FILE|-] [--partition auto|force|off]\n"
               "              [--intern] [--explore] "
               "[--explore-json FILE|-]\n";
  return 2;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool spill(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> files;
  bool want_tables = false, want_analyze = false, want_stats = false;
  bool want_lint = false;
  bool want_explore = false;
  std::string explain_assign;
  std::string stats_json_path;
  std::string lint_json_path;
  std::string delta_json_path;
  std::string explore_json_path;
  compiler::CompileOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tables") {
      want_tables = true;
    } else if (arg == "--analyze") {
      want_analyze = true;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--no-prune") {
      opts.semantic_prune = false;
    } else if (arg == "--compress") {
      opts.domain_compression = true;
    } else if (arg == "--emit-drop") {
      opts.emit_drop_entries = true;
    } else if (arg == "--explain") {
      const char* v = next();
      if (!v) return usage();
      explain_assign = v;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (!v) return usage();
      stats_json_path = v;
    } else if (arg == "--lint") {
      want_lint = true;
    } else if (arg == "--delta-json") {
      const char* v = next();
      if (!v) return usage();
      delta_json_path = v;
    } else if (arg == "--lint-json") {
      const char* v = next();
      if (!v) return usage();
      lint_json_path = v;
      want_lint = true;
    } else if (arg == "--partition") {
      const char* v = next();
      if (!v) return usage();
      const std::string mode = v;
      if (mode == "auto") opts.partition = compiler::PartitionMode::kAuto;
      else if (mode == "force")
        opts.partition = compiler::PartitionMode::kForce;
      else if (mode == "off")
        opts.partition = compiler::PartitionMode::kOff;
      else return usage();
    } else if (arg == "--intern") {
      opts.intern_entries = true;
    } else if (arg == "--explore") {
      want_explore = true;
    } else if (arg == "--explore-json") {
      const char* v = next();
      if (!v) return usage();
      explore_json_path = v;
      want_explore = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage();
      opts.threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--order") {
      const char* h = next();
      if (!h) return usage();
      const std::string name = h;
      if (name == "declared") opts.order = bdd::OrderHeuristic::kDeclared;
      else if (name == "exact-first")
        opts.order = bdd::OrderHeuristic::kExactFirst;
      else if (name == "selectivity-asc")
        opts.order = bdd::OrderHeuristic::kSelectivityAsc;
      else if (name == "selectivity-desc")
        opts.order = bdd::OrderHeuristic::kSelectivityDesc;
      else return usage();
    } else if (arg == "--spec" || arg == "--rules" || arg == "--p4" ||
               arg == "--p4-14" || arg == "--rules-out" || arg == "--dot" ||
               arg == "--pipeline" || arg == "--base") {
      const char* v = next();
      if (!v) return usage();
      files[arg] = v;
    } else {
      return usage();
    }
  }

  // Schema.
  spec::Schema schema;
  if (files.count("--spec")) {
    auto text = slurp(files["--spec"]);
    if (!text) {
      std::cerr << "camusc: cannot read " << files["--spec"] << "\n";
      return 1;
    }
    auto parsed = spec::parse_spec(*text);
    if (!parsed.ok()) {
      std::cerr << "camusc: spec: " << parsed.error().to_string() << "\n";
      return 1;
    }
    schema = std::move(parsed).take();
  } else {
    schema = spec::make_itch_schema();
  }

  // Rules.
  std::string rules_text;
  if (files.count("--rules")) {
    auto text = slurp(files["--rules"]);
    if (!text) {
      std::cerr << "camusc: cannot read " << files["--rules"] << "\n";
      return 1;
    }
    rules_text = std::move(*text);
  } else {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    rules_text = ss.str();
  }

  auto parsed = lang::parse_rules(rules_text);
  if (!parsed.ok()) {
    std::cerr << "camusc: rules: " << parsed.error().to_string() << "\n";
    return 1;
  }
  auto bound = lang::bind_rules(parsed.value(), schema);
  if (!bound.ok()) {
    std::cerr << "camusc: rules: " << bound.error().to_string() << "\n";
    return 1;
  }

  if (want_analyze) {
    auto report = compiler::analyze_rules(schema, bound.value());
    if (!report.ok()) {
      std::cerr << "camusc: analysis: " << report.error().to_string() << "\n";
      return 1;
    }
    std::cout << report.value().to_string(schema);
  }

  // Cost-model layout search: score candidate layouts on a sample, then
  // compile the full set with the winner. User-chosen flags seed the
  // search (threads, guard rails) but the winner owns order/partition/
  // intern/compression.
  if (want_explore) {
    compiler::ExploreParams ep;
    ep.base = opts;
    auto searched = compiler::explore(schema, bound.value(), ep);
    if (!searched.ok()) {
      std::cerr << "camusc: explore: " << searched.error().to_string() << "\n";
      return 1;
    }
    if (!explore_json_path.empty()) {
      if (explore_json_path == "-") {
        std::cout << searched.value().to_json() << "\n";
      } else if (!spill(explore_json_path,
                        searched.value().to_json() + "\n")) {
        std::cerr << "camusc: cannot write " << explore_json_path << "\n";
        return 1;
      }
    }
    if (want_stats)
      std::cout << "explore: best=" << searched.value().best_label
                << " cost=" << searched.value().best_cost << " ("
                << searched.value().candidates.size() << " candidates, "
                << searched.value().sampled << "/"
                << searched.value().total_rules << " rules sampled)\n";
    opts = searched.value().best;
  }

  // The partitioned path normally skips the monolithic union BDD; --dot
  // and --lint need it (to draw, and for the checker's reference side).
  if (opts.partition != compiler::PartitionMode::kOff &&
      (files.count("--dot") || want_lint))
    opts.partition_reference = true;

  auto compiled = compiler::compile_rules(schema, bound.value(), opts);
  if (!compiled.ok()) {
    std::cerr << "camusc: compile: " << compiled.error().to_string() << "\n";
    return 1;
  }
  const auto& c = compiled.value();

  // Static verification: both layers of camus::verify over the input rules
  // and the artifact just produced. Error-severity findings fail the run
  // (after the requested artifacts are still written, so they can be
  // inspected).
  int lint_exit = 0;
  if (want_lint) {
    verify::Report report;
    auto verified =
        verify::verify_compiled(schema, bound.value(), c, report);
    if (!verified.ok()) {
      std::cerr << "camusc: lint: " << verified.error().to_string() << "\n";
      return 1;
    }
    if (!report.empty() || lint_json_path.empty()) {
      // With --lint-json -, stdout is the machine-readable channel: the
      // human-readable report moves to stderr.
      (lint_json_path == "-" ? std::cerr : std::cout) << report.to_text();
    }
    if (!lint_json_path.empty()) {
      if (lint_json_path == "-") {
        std::cout << report.to_json() << "\n";
      } else if (!spill(lint_json_path, report.to_json() + "\n")) {
        std::cerr << "camusc: cannot write " << lint_json_path << "\n";
        return 1;
      }
    }
    lint_exit = report.exit_code();
  }

  // Incremental update telemetry: commit the base set (the previously
  // installed subscriptions), then transition to --rules and report the
  // second commit's delta — the exact op stream an installer would ship.
  // The persistent compiler's rule-BDD cache and stable state ids keep
  // the delta minimal for rules shared between the two sets.
  if (!delta_json_path.empty()) {
    compiler::IncrementalCompiler inc(schema, opts);
    std::vector<compiler::IncrementalCompiler::SubscriptionId> base_ids;
    if (files.count("--base")) {
      auto base_text = slurp(files["--base"]);
      if (!base_text) {
        std::cerr << "camusc: cannot read " << files["--base"] << "\n";
        return 1;
      }
      auto base_parsed = lang::parse_rules(*base_text);
      if (!base_parsed.ok()) {
        std::cerr << "camusc: base: " << base_parsed.error().to_string()
                  << "\n";
        return 1;
      }
      auto base_bound = lang::bind_rules(base_parsed.value(), schema);
      if (!base_bound.ok()) {
        std::cerr << "camusc: base: " << base_bound.error().to_string()
                  << "\n";
        return 1;
      }
      for (const auto& r : base_bound.value())
        base_ids.push_back(inc.add(r));
      if (auto cold = inc.commit(); !cold.ok()) {
        std::cerr << "camusc: base commit: " << cold.error().to_string()
                  << "\n";
        return 1;
      }
    }
    for (const auto id : base_ids) inc.remove(id);
    for (const auto& r : bound.value()) inc.add(r);
    auto delta = inc.commit();
    if (!delta.ok()) {
      std::cerr << "camusc: delta commit: " << delta.error().to_string()
                << "\n";
      return 1;
    }
    if (delta_json_path == "-") {
      std::cout << delta.value().to_json() << "\n";
    } else if (!spill(delta_json_path, delta.value().to_json() + "\n")) {
      std::cerr << "camusc: cannot write " << delta_json_path << "\n";
      return 1;
    }
  }

  if (files.count("--p4") &&
      !spill(files["--p4"], compiler::generate_p4(schema, &c.pipeline))) {
    std::cerr << "camusc: cannot write " << files["--p4"] << "\n";
    return 1;
  }
  if (files.count("--p4-14") &&
      !spill(files["--p4-14"],
             compiler::generate_p4_14(schema, &c.pipeline))) {
    std::cerr << "camusc: cannot write " << files["--p4-14"] << "\n";
    return 1;
  }
  if (files.count("--rules-out") &&
      !spill(files["--rules-out"],
             compiler::generate_control_plane_rules(c.pipeline))) {
    std::cerr << "camusc: cannot write " << files["--rules-out"] << "\n";
    return 1;
  }
  if (files.count("--pipeline") &&
      !spill(files["--pipeline"],
             table::serialize_pipeline(c.pipeline))) {
    std::cerr << "camusc: cannot write " << files["--pipeline"] << "\n";
    return 1;
  }
  if (files.count("--dot")) {
    if (!c.manager) {
      std::cerr << "camusc: --dot: no BDD available on the partitioned "
                   "path\n";
      return 1;
    }
    if (!spill(files["--dot"], c.manager->to_dot(c.root, &schema))) {
      std::cerr << "camusc: cannot write " << files["--dot"] << "\n";
      return 1;
    }
  }
  if (!explain_assign.empty()) {
    // Parse "field=value,field=value" against the schema.
    lang::Env env;
    env.fields.assign(schema.fields().size(), 0);
    env.states.assign(schema.state_vars().size(), 0);
    std::size_t i = 0;
    bool ok = true;
    while (i < explain_assign.size()) {
      std::size_t eq = explain_assign.find('=', i);
      std::size_t comma = explain_assign.find(',', i);
      if (comma == std::string::npos) comma = explain_assign.size();
      if (eq == std::string::npos || eq > comma) { ok = false; break; }
      const std::string name = explain_assign.substr(i, eq - i);
      const std::string value = explain_assign.substr(eq + 1, comma - eq - 1);
      std::uint64_t v = 0;
      if (auto fid = schema.resolve_field(name)) {
        if (schema.field(*fid).kind == spec::FieldKind::kSymbol)
          v = util::encode_symbol(value);
        else
          v = std::strtoull(value.c_str(), nullptr, 0);
        env.fields[*fid] = v;
      } else if (auto sid = schema.resolve_state_var(name)) {
        env.states[*sid] = std::strtoull(value.c_str(), nullptr, 0);
      } else {
        std::cerr << "camusc: --explain: unknown field '" << name << "'\n";
        return 1;
      }
      i = comma + 1;
    }
    if (!ok) {
      std::cerr << "camusc: --explain expects field=value[,field=value...]\n";
      return 1;
    }
    std::cout << "explain " << explain_assign << ":\n"
              << c.pipeline.explain(env).to_string();
  }
  if (!stats_json_path.empty()) {
    if (stats_json_path == "-") {
      std::cout << c.stats.to_json() << "\n";
    } else if (!spill(stats_json_path, c.stats.to_json() + "\n")) {
      std::cerr << "camusc: cannot write " << stats_json_path << "\n";
      return 1;
    }
  }
  if (want_tables) std::cout << c.pipeline.to_string();
  if (want_stats || (!want_tables && !want_lint && files.empty() &&
                     stats_json_path.empty() && delta_json_path.empty())) {
    std::cout << c.stats.to_string() << "\n"
              << "resources: " << c.pipeline.resources().to_string() << "\n"
              << "fits Tofino-like budget: "
              << (table::ResourceBudget{}.fits(c.pipeline.resources())
                      ? "yes"
                      : "NO")
              << "\n";
  }
  return lint_exit;
}
