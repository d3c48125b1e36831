// Fabric fan-out: how many subscribers a spine–leaf fabric serves versus
// one switch, with the semantics proven, in one self-gating binary.
//
// Baseline: a single switch carrying N0 subscriptions (the Fig-5-style
// pinned ITCH workload). Fabric: 8 leaves x 2 spines carrying 10x / 30x /
// 100x that subscriber count (--quick stops at 10x). For every scale it
//   * derives the placement (partition_for_fabric) and compiles every
//     node program (compile_fabric) with the PR-8 partitioned per-leaf
//     path, plus the monolithic compile of the same rule set as the
//     single-switch comparison point;
//   * at 10x runs the camus::verify fabric equivalence proof (the four
//     obligations: recombination, per-leaf restriction, no-starvation,
//     spine program) so the bench proves the placement sound before
//     measuring it;
//   * replays seeded probe messages through the netsim fabric
//     (deliver_env) against the monolithic oracle and records the
//     matched fraction — the delivered_fraction the CI gate pins at 1.0.
//
// Gates (any violation exits non-zero, for CI):
//   * the 10x equivalence proof must complete and hold;
//   * delivered_fraction must be exactly 1.0 at every scale;
//   * max_leaf_entries < monolithic entries at every scale — each leaf
//     must fit strictly below the single-switch budget for the same set;
//   * the largest scale must serve >= 10x the baseline subscriber count.
//
// Every compile gives the same program at any thread count, so the
// emitted fabric_digest at 10x is deterministic and the committed
// BENCH_fabric.json pins the exact node programs a --quick CI run must
// reproduce.
//
// Flags: --quick, --json, --out FILE, --baseline N, --probes N.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bdd/order.hpp"
#include "compiler/compile.hpp"
#include "compiler/fabric.hpp"
#include "lang/bound.hpp"
#include "lang/parser.hpp"
#include "netsim/fabric.hpp"
#include "spec/itch_spec.hpp"
#include "util/intern.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "verify/fabric.hpp"

using namespace camus;

namespace {

constexpr std::size_t kSymbolPool = 1024;

// Appended: gcc 12 at -O3 warns falsely (-Wrestrict) on an inlined
// "literal" + std::string&&.
std::string symbol_name(std::size_t k) {
  std::string name = "S";
  name += std::to_string(k);
  return name;
}

// Deterministic pinned-heavy workload: rule i forwards to port i (the
// subscriber). Subscribers cluster on their leaf's slice of the symbol
// pool (a 10% stray tail crosses slices), so spine steering is selective
// rather than broadcast; leaf 0 additionally carries a small unpinned
// (shares-only) tail to keep the spine catch-all path honest. Range
// thresholds are drawn from quantized grids — per-rule distinct constants
// would cross-product the monolithic comparison table out of memory at
// 100x without changing what the bench measures. Ports stay < 60000 so
// 100x fits uint16.
std::vector<lang::BoundRule> make_rules(const spec::Schema& schema,
                                        const compiler::FabricSpec& spec,
                                        std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t slice = kSymbolPool / spec.leaves;
  std::vector<lang::BoundRule> rules;
  rules.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t port = static_cast<std::uint16_t>(i);
    const std::size_t leaf = spec.leaf_of(port);
    const std::size_t sym_k =
        rng.chance(0.10) ? rng.uniform(0, kSymbolPool - 1)
                         : leaf * slice + rng.uniform(0, slice - 1);
    const std::string sym = symbol_name(sym_k);
    std::string text;
    if (leaf == 0 && rng.chance(0.08)) {
      text = "shares > " + std::to_string(1000 * rng.uniform(5, 9));
    } else {
      const double roll = rng.uniform01();
      if (roll < 0.10) {
        text = "stock == " + sym;
      } else if (roll < 0.30) {
        text = "stock == " + sym +
               " and shares >= " + std::to_string(500 * rng.uniform(1, 10));
      } else {
        text = "stock == " + sym +
               " and price > " + std::to_string(100 * rng.uniform(1, 20));
      }
    }
    text += " : fwd(" + std::to_string(port) + ")";
    auto parsed = lang::parse_rule(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "fabric_fanout: bad generated rule: %s\n",
                   parsed.error().message.c_str());
      std::exit(2);
    }
    auto bound = lang::bind_rule(parsed.value(), schema);
    if (!bound.ok()) {
      std::fprintf(stderr, "fabric_fanout: bind failed: %s\n",
                   bound.error().message.c_str());
      std::exit(2);
    }
    rules.push_back(std::move(bound.value()));
  }
  return rules;
}

lang::Env make_probe(const spec::Schema& schema, util::Rng& rng) {
  lang::Env env;
  env.fields.resize(schema.fields().size(), 0);
  env.states.resize(schema.state_vars().size(), 0);
  env.fields[0] = rng.uniform(1, 10000);  // shares
  // 1-in-16 probes carry a symbol outside the subscribed pool so the
  // no-match path is exercised fabric-wide.
  const std::size_t k = rng.uniform(0, kSymbolPool + kSymbolPool / 16 - 1);
  env.fields[1] = util::encode_symbol(symbol_name(k));
  env.fields[2] = rng.uniform(1, 2500);  // price
  return env;
}

struct ScaleRow {
  std::size_t multiplier = 0;
  std::size_t subscribers = 0;
  double fabric_compile_s = 0;
  double mono_compile_s = 0;
  std::uint64_t spine_entries = 0;
  std::uint64_t max_leaf_entries = 0;
  std::uint64_t total_leaf_entries = 0;
  std::uint64_t mono_entries = 0;
  double leaf_over_mono = 0;
  std::size_t populated_leaves = 0;
  std::size_t probes = 0;
  std::size_t matched = 0;
  double delivered_fraction = 0;
  double avg_leaves_per_probe = 0;  // spine steering selectivity
  double classify_env_per_s = 0;  // probes over deliver_env time alone
  std::uint64_t fabric_digest = 0;
  bool proof_ran = false;
  bool proven = false;
  bool budget_ok = false;
};

void print_row(const ScaleRow& r) {
  std::printf(
      "fabric_fanout %3zux  subs=%-6zu  fabric=%.2fs mono=%.2fs  "
      "spine=%llu max_leaf=%llu mono=%llu (leaf/mono=%.3f)  "
      "delivered=%zu/%zu  proof=%s  digest=%016llx\n",
      r.multiplier, r.subscribers, r.fabric_compile_s, r.mono_compile_s,
      static_cast<unsigned long long>(r.spine_entries),
      static_cast<unsigned long long>(r.max_leaf_entries),
      static_cast<unsigned long long>(r.mono_entries), r.leaf_over_mono,
      r.matched, r.probes,
      r.proof_ran ? (r.proven ? "proven" : "FAILED") : "skipped",
      static_cast<unsigned long long>(r.fabric_digest));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string out_path;
  std::size_t baseline_n = 600;
  std::size_t probes_per_scale = 400;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fabric_fanout: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--quick") {
      quick = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--out") {
      out_path = next("--out");
    } else if (a == "--baseline") {
      baseline_n = static_cast<std::size_t>(std::stoul(next("--baseline")));
    } else if (a == "--probes") {
      probes_per_scale =
          static_cast<std::size_t>(std::stoul(next("--probes")));
    } else {
      std::fprintf(stderr, "fabric_fanout: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const std::uint64_t seed = 20260808;
  const spec::Schema schema = spec::make_itch_schema();
  const compiler::FabricSpec spec{.leaves = 8, .spines = 2};

  compiler::CompileOptions copts;
  // The PR-8 scale layout (partition + interning) on every node: it is
  // both the realistic single-switch comparison point and the only
  // layout that compiles this symbol-heavy workload monolithically.
  copts.partition = compiler::PartitionMode::kForce;
  copts.intern_entries = true;
  // Symbol-first variable order: matches the partitioned layout's
  // dispatch-first stage sequence (the equivalence co-traversal walks the
  // reference order) and keeps the union MTBDD symbol-partitioned instead
  // of exploding on per-rule shares/price thresholds.
  copts.order = bdd::OrderHeuristic::kExactFirst;

  // Single-switch baseline at N0.
  const auto base_rules = make_rules(schema, spec, baseline_n, seed);
  util::Timer t_base;
  auto base = compiler::compile_rules(schema, base_rules, copts);
  const double base_s = t_base.seconds();
  if (!base.ok()) {
    std::fprintf(stderr, "fabric_fanout: baseline compile failed: %s\n",
                 base.error().message.c_str());
    return 1;
  }
  const std::uint64_t base_entries = base.value().pipeline.total_entries();
  if (!json) {
    std::printf("fabric_fanout baseline  subs=%zu entries=%llu compile=%.3fs\n",
                baseline_n, static_cast<unsigned long long>(base_entries),
                base_s);
  }

  std::vector<std::size_t> multipliers = quick
                                             ? std::vector<std::size_t>{10}
                                             : std::vector<std::size_t>{10, 30,
                                                                        100};
  std::vector<ScaleRow> rows;
  bool all_ok = true;

  for (const std::size_t m : multipliers) {
    ScaleRow row;
    row.multiplier = m;
    row.subscribers = baseline_n * m;
    // Seed depends on the multiplier only, so --quick and the full run
    // generate the identical 10x rule set (and digest).
    const auto rules = make_rules(schema, spec, row.subscribers,
                                  seed ^ (0x9e3779b97f4a7c15ULL * m));

    auto placement = compiler::partition_for_fabric(schema, rules, spec, copts);
    if (!placement.ok()) {
      std::fprintf(stderr, "fabric_fanout: placement failed at %zux: %s\n", m,
                   placement.error().message.c_str());
      return 1;
    }
    util::Timer t_fab;
    auto program = compiler::compile_fabric(schema, placement.value(), copts);
    row.fabric_compile_s = t_fab.seconds();
    if (!program.ok()) {
      std::fprintf(stderr, "fabric_fanout: fabric compile failed at %zux: %s\n",
                   m, program.error().message.c_str());
      return 1;
    }
    util::Timer t_mono;
    auto mono = compiler::compile_rules(schema, rules, copts);
    row.mono_compile_s = t_mono.seconds();
    if (!mono.ok()) {
      std::fprintf(stderr, "fabric_fanout: mono compile failed at %zux: %s\n",
                   m, mono.error().message.c_str());
      return 1;
    }

    const auto& prog = program.value();
    row.spine_entries = prog.spine.total_entries();
    row.max_leaf_entries = prog.max_leaf_entries();
    row.total_leaf_entries = prog.total_leaf_entries();
    row.mono_entries = mono.value().pipeline.total_entries();
    row.leaf_over_mono =
        row.mono_entries == 0
            ? 0
            : static_cast<double>(row.max_leaf_entries) /
                  static_cast<double>(row.mono_entries);
    row.populated_leaves = placement.value().populated_leaves();
    row.fabric_digest = prog.fabric_digest;
    row.budget_ok = row.max_leaf_entries < row.mono_entries;

    // Symbolic proof at the 10x probe scale (every CI run covers it).
    if (m == 10) {
      row.proof_ran = true;
      verify::FabricCheckOptions vopts;
      vopts.order = copts.order;
      auto check = verify::check_fabric_equivalence(
          schema, rules, placement.value(), prog, vopts);
      row.proven = check.proven();
      if (!row.proven) {
        std::fprintf(stderr,
                     "fabric_fanout: equivalence proof FAILED (%s): %s\n",
                     check.failed_check.c_str(), check.detail.c_str());
      }
    }

    // Probe differential: netsim fabric vs the monolithic oracle.
    netsim::FabricTopologyOptions topo;
    topo.spec = spec;
    netsim::Fabric fabric(schema, topo);
    fabric.program(prog);
    util::Rng prng(seed * 977 + m);
    row.probes = probes_per_scale;
    std::size_t leaf_touches = 0;
    // Only the fabric's own work is timed: probe generation and the
    // monolithic oracle's evaluation stay outside the rate.
    double deliver_s = 0;
    for (std::size_t p = 0; p < probes_per_scale; ++p) {
      const lang::Env env = make_probe(schema, prng);
      const util::Timer t_deliver;
      auto got = fabric.deliver_env(env.fields, 1000 + p);
      deliver_s += t_deliver.seconds();
      std::size_t distinct_leaves = 0;
      for (std::size_t g = 0; g < got.size(); ++g) {
        if (g == 0 || got[g].first != got[g - 1].first) ++distinct_leaves;
      }
      leaf_touches += distinct_leaves;
      const auto& acts = mono.value().pipeline.evaluate_actions(env);
      std::vector<std::pair<std::size_t, std::uint16_t>> want;
      want.reserve(acts.ports.size());
      for (const std::uint16_t port : acts.ports) {
        want.emplace_back(spec.leaf_of(port), port);
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      if (got == want) ++row.matched;
    }
    row.classify_env_per_s =
        deliver_s > 0 ? static_cast<double>(probes_per_scale) / deliver_s : 0;
    row.delivered_fraction =
        row.probes == 0
            ? 1.0
            : static_cast<double>(row.matched) / static_cast<double>(row.probes);
    row.avg_leaves_per_probe =
        row.probes == 0 ? 0
                        : static_cast<double>(leaf_touches) /
                              static_cast<double>(row.probes);

    if (!json) print_row(row);
    if (row.delivered_fraction != 1.0) {
      std::fprintf(stderr,
                   "fabric_fanout: GATE delivered_fraction %.4f != 1.0 at "
                   "%zux\n",
                   row.delivered_fraction, m);
      all_ok = false;
    }
    if (!row.budget_ok) {
      std::fprintf(stderr,
                   "fabric_fanout: GATE max_leaf_entries %llu !< mono %llu "
                   "at %zux\n",
                   static_cast<unsigned long long>(row.max_leaf_entries),
                   static_cast<unsigned long long>(row.mono_entries), m);
      all_ok = false;
    }
    if (row.proof_ran && !row.proven) all_ok = false;
    rows.push_back(row);
  }

  if (rows.empty() || rows.back().subscribers < 10 * baseline_n) {
    std::fprintf(stderr, "fabric_fanout: GATE largest scale below 10x\n");
    all_ok = false;
  }

  if (json || !out_path.empty()) {
    std::ostringstream os;
    os << "{\n";
    os << "  \"workload\": \"fabric-fanout\",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"topology\": {\"leaves\": " << spec.leaves
       << ", \"spines\": " << spec.spines << "},\n";
    os << "  \"baseline\": {\"subscribers\": " << baseline_n
       << ", \"entries\": " << base_entries << ", \"compile_s\": "
       << util::json::format_double(base_s) << "},\n";
    os << "  \"proof_scale\": 10,\n";
    os << "  \"scales\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScaleRow& r = rows[i];
      os << "    {\"multiplier\": " << r.multiplier
         << ", \"subscribers\": " << r.subscribers
         << ", \"fabric_compile_s\": "
         << util::json::format_double(r.fabric_compile_s)
         << ", \"mono_compile_s\": "
         << util::json::format_double(r.mono_compile_s)
         << ",\n     \"spine_entries\": " << r.spine_entries
         << ", \"max_leaf_entries\": " << r.max_leaf_entries
         << ", \"total_leaf_entries\": " << r.total_leaf_entries
         << ", \"mono_entries\": " << r.mono_entries
         << ", \"leaf_over_mono\": "
         << util::json::format_double(r.leaf_over_mono)
         << ",\n     \"populated_leaves\": " << r.populated_leaves
         << ", \"probes\": " << r.probes << ", \"matched\": " << r.matched
         << ", \"delivered_fraction\": "
         << util::json::format_double(r.delivered_fraction)
         << ", \"avg_leaves_per_probe\": "
         << util::json::format_double(r.avg_leaves_per_probe)
         << ", \"classify_env_per_s\": "
         << util::json::format_double(r.classify_env_per_s)
         << ",\n     \"proof_ran\": " << (r.proof_ran ? "true" : "false")
         << ", \"proven\": " << (r.proven ? "true" : "false")
         << ", \"budget_ok\": " << (r.budget_ok ? "true" : "false")
         << ", \"fabric_digest\": \"" << std::hex << r.fabric_digest
         << std::dec << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"all_checks_pass\": " << (all_ok ? "true" : "false") << "\n";
    os << "}\n";
    if (json) std::fputs(os.str().c_str(), stdout);
    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << os.str();
    }
  }

  return all_ok ? 0 : 1;
}
