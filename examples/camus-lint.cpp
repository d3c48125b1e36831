// camus-lint — static verifier CLI for subscription sets and compiled
// pipelines. Runs both layers of camus::verify: the BDD-exact subscription
// linter (S0xx) and the compiled-artifact checks including the symbolic
// equivalence proof against the reference MTBDD (P0xx).
//
//   camus-lint [--spec FILE] (--rules FILE | --itch N)  [options]
//
// Options:
//   --spec FILE          message-format spec (default: built-in ITCH)
//   --rules FILE         subscription file ("-" or absent: stdin)
//   --itch N             generate N ITCH subscriptions instead of --rules
//   --json FILE|-        write diagnostics as JSON (in addition to text)
//   --quiet              suppress the text report on stdout
//   --warnings-as-errors exit 1 on warnings too
//   --no-bdd             DNF pre-filter only (skip BDD-exact subsumption)
//   --no-overlaps        skip S005 overlap notes
//   --no-coverage        skip the S006 coverage-hole check
//   --no-equivalence     skip the symbolic equivalence proof
//   --mutate K           corrupt one table entry (index seed K) after
//                        compiling — the equivalence checker must catch it
//   --compress           compile with domain compression (value maps)
//   --max-pairs N        pair budget for subsumption + equivalence
//   --budget-sram N      per-stage SRAM entry budget
//   --budget-tcam N      per-stage TCAM entry budget
//   --budget-stages N    device stage budget
//   --budget-mcast N     device multicast-group budget
//
// Exit codes: 0 clean (notes/warnings only), 1 error-severity findings
// (or warnings with --warnings-as-errors), 2 usage or I/O failure.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "compiler/compile.hpp"
#include "lang/parser.hpp"
#include "spec/itch_spec.hpp"
#include "spec/spec_parser.hpp"
#include "verify/verify.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

namespace {

int usage() {
  std::cerr
      << "usage: camus-lint [--spec FILE] (--rules FILE | --itch N)\n"
         "                  [--json FILE|-] [--quiet] [--warnings-as-errors]\n"
         "                  [--no-bdd] [--no-overlaps] [--no-coverage]\n"
         "                  [--no-equivalence] [--mutate K] [--compress]\n"
         "                  [--max-pairs N] [--budget-sram N] "
         "[--budget-tcam N]\n"
         "                  [--budget-stages N] [--budget-mcast N]\n";
  return 2;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Deterministically corrupts one table entry: redirects entry (seed mod
// size) of the first table with at least two distinct successor states to
// a different successor. Distinct nodes of a reduced MTBDD compute
// distinct functions, so the redirect is a real semantic fault — exactly
// what the equivalence checker must report as P007.
bool mutate_pipeline(table::Pipeline& pipe, std::size_t seed) {
  for (auto& t : pipe.tables) {
    const auto& es = t.entries();
    if (es.empty()) continue;
    const std::size_t pick = seed % es.size();
    for (const auto& other : es) {
      if (other.next_state == es[pick].next_state) continue;
      table::Entry e = es[pick];
      e.next_state = other.next_state;
      t.set_entry(pick, e);
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, rules_path, json_path;
  std::size_t itch_n = 0;
  bool quiet = false, warnings_as_errors = false, compress = false;
  std::optional<std::size_t> mutate_seed;
  verify::VerifyOptions vopts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_u64 = [&](std::uint64_t& out) {
      const char* v = next();
      if (!v) return false;
      out = std::strtoull(v, nullptr, 10);
      return true;
    };
    std::uint64_t n = 0;
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--warnings-as-errors") {
      warnings_as_errors = true;
    } else if (arg == "--no-bdd") {
      vopts.subscriptions.bdd_exact = false;
    } else if (arg == "--no-overlaps") {
      vopts.subscriptions.check_overlaps = false;
    } else if (arg == "--no-coverage") {
      vopts.coverage = false;
    } else if (arg == "--no-equivalence") {
      vopts.equivalence_check = false;
    } else if (arg == "--compress") {
      compress = true;
    } else if (arg == "--spec") {
      const char* v = next();
      if (!v) return usage();
      spec_path = v;
    } else if (arg == "--rules") {
      const char* v = next();
      if (!v) return usage();
      rules_path = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return usage();
      json_path = v;
    } else if (arg == "--itch") {
      if (!next_u64(n)) return usage();
      itch_n = n;
    } else if (arg == "--mutate") {
      if (!next_u64(n)) return usage();
      mutate_seed = n;
    } else if (arg == "--max-pairs") {
      if (!next_u64(n)) return usage();
      vopts.subscriptions.max_pairs = n;
      vopts.equivalence.max_pairs = n;
    } else if (arg == "--budget-sram") {
      if (!next_u64(vopts.pipeline.budget.sram_entries_per_stage))
        return usage();
    } else if (arg == "--budget-tcam") {
      if (!next_u64(vopts.pipeline.budget.tcam_entries_per_stage))
        return usage();
    } else if (arg == "--budget-stages") {
      if (!next_u64(vopts.pipeline.budget.max_stages)) return usage();
    } else if (arg == "--budget-mcast") {
      if (!next_u64(vopts.pipeline.budget.max_multicast_groups))
        return usage();
    } else {
      return usage();
    }
  }

  // Schema.
  spec::Schema schema;
  if (!spec_path.empty()) {
    auto text = slurp(spec_path);
    if (!text) {
      std::cerr << "camus-lint: cannot read " << spec_path << "\n";
      return 2;
    }
    auto parsed = spec::parse_spec(*text);
    if (!parsed.ok()) {
      std::cerr << "camus-lint: spec: " << parsed.error().to_string() << "\n";
      return 2;
    }
    schema = std::move(parsed).take();
  } else {
    schema = spec::make_itch_schema();
  }

  // Rules: generated workload or parsed text.
  std::vector<lang::BoundRule> rules;
  if (itch_n > 0) {
    workload::ItchSubsParams params;
    params.n_subscriptions = itch_n;
    rules = workload::generate_itch_subscriptions(schema, params).rules;
  } else {
    std::string rules_text;
    if (!rules_path.empty() && rules_path != "-") {
      auto text = slurp(rules_path);
      if (!text) {
        std::cerr << "camus-lint: cannot read " << rules_path << "\n";
        return 2;
      }
      rules_text = std::move(*text);
    } else {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      rules_text = ss.str();
    }
    auto parsed = lang::parse_rules(rules_text);
    if (!parsed.ok()) {
      std::cerr << "camus-lint: rules: " << parsed.error().to_string()
                << "\n";
      return 2;
    }
    auto bound = lang::bind_rules(parsed.value(), schema);
    if (!bound.ok()) {
      std::cerr << "camus-lint: rules: " << bound.error().to_string() << "\n";
      return 2;
    }
    rules = std::move(bound).take();
  }

  compiler::CompileOptions copts;
  copts.domain_compression = compress;
  auto compiled = compiler::compile_rules(schema, rules, copts);
  if (!compiled.ok()) {
    std::cerr << "camus-lint: compile: " << compiled.error().to_string()
              << "\n";
    return 2;
  }
  compiler::Compiled c = std::move(compiled).take();

  if (mutate_seed && !mutate_pipeline(c.pipeline, *mutate_seed)) {
    std::cerr << "camus-lint: --mutate: pipeline has no redirectable entry\n";
    return 2;
  }

  verify::Report report;
  auto result = verify::verify_compiled(schema, rules, c, report, vopts);
  if (!result.ok()) {
    std::cerr << "camus-lint: " << result.error().to_string() << "\n";
    return 2;
  }

  if (!quiet) {
    // With --json -, stdout is the machine-readable channel: keep it
    // clean and put the human-readable report on stderr.
    std::ostream& hout = json_path == "-" ? std::cerr : std::cout;
    hout << report.to_text();
    const auto& v = result.value();
    hout << "checked " << rules.size() << " rules ("
         << v.subscription_stats.pairs_considered << " pairs, "
         << v.subscription_stats.bdd_checks << " BDD-exact), "
         << v.pipeline_stats.entries_checked << " table entries";
    if (vopts.equivalence_check) {
      hout << "; equivalence "
           << (v.equivalence.proven_equivalent()
                   ? "PROVEN"
                   : (v.equivalence.completed ? "REFUTED" : "UNDECIDED"))
           << " (" << v.equivalence.regions_checked << " regions)";
    }
    hout << "\n";
  }

  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << report.to_json() << "\n";
    } else {
      std::ofstream out(json_path);
      out << report.to_json() << "\n";
      if (!out) {
        std::cerr << "camus-lint: cannot write " << json_path << "\n";
        return 2;
      }
    }
  }

  return report.exit_code(warnings_as_errors);
}
