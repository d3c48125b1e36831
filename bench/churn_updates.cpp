// Live-churn update benchmark: a seeded stream of subscribe/unsubscribe
// operations is committed through the incremental compiler and installed
// as entry deltas (TwoPhaseInstaller::apply_delta ships the ops;
// Switch::stage applies them to one copy of the running pipeline and
// lowers it; Switch::commit publishes it with an RCU swap). Measures, per
// commit:
//
//   - commit latency (incremental recompile + diff),
//   - delta install latency (serialize, ship, verify, stage, commit),
//   - control-plane ops per commit vs the installed entry count,
//   - entry reuse fraction (entries carried over unchanged),
//
// and, per op kind (an unsubscribe and a subscribe cost differently, so a
// median over both would fall between two modes), the commit and install
// latency, the commit's union and tables phases, and four deterministic
// counts per commit: BDD nodes created, union memo misses (both memos),
// In nodes whose entries Algorithm 1 regenerated, and the delta's wire
// bytes (serialize_ops, taken outside the timed install).
//
// A dedicated single-subscription probe (one add commit, one remove
// commit) is reported separately — that is the paper's headline claim for
// incremental updates ("state updates can benefit from table entry
// re-use") and what CI gates on: --gate-reuse F exits non-zero when
// either probe's reuse fraction drops below F.
//
// CI runs this with --quick --gate-reuse 0.8 and also gates the
// unsubscribe medians of union misses, regenerated In nodes and wire
// bytes; the
// committed BENCH_churn.json is the full run. Seeds are explicit and
// recorded.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "compiler/incremental.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/churn.hpp"

using namespace camus;

namespace {

constexpr std::uint64_t kChurnSeed = 20260806;

struct Summary {
  util::CdfSampler commit_ms;
  util::CdfSampler install_ms;
  util::CdfSampler ops_per_commit;
  util::CdfSampler reuse_fraction;
  double commit_ms_sum = 0;
  double ops_sum = 0;
  double entries_sum = 0;
};

// One op kind's commits.
struct KindSummary {
  util::CdfSampler commit_ms;
  util::CdfSampler install_ms;
  util::CdfSampler union_ms;
  util::CdfSampler tables_ms;
  util::CdfSampler bdd_nodes;     // nodes the commit added to the manager
  util::CdfSampler union_misses;  // syntactic + semantic union memo misses
  util::CdfSampler regenerated;   // In nodes whose entries were generated
  util::CdfSampler wire_bytes;    // serialize_ops bytes of the delta
};

double sum_of(const util::CdfSampler& s) {
  double t = 0;
  for (double v : s.samples()) t += v;
  return t;
}

double mean_of(const util::CdfSampler& s) {
  return s.count() ? sum_of(s) / static_cast<double>(s.count()) : 0.0;
}

std::string cdf_json(const util::CdfSampler& s, double sum) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"mean\": %.4f, \"p50\": %.4f, \"p99\": %.4f, "
                "\"max\": %.4f}",
                s.count() ? sum / static_cast<double>(s.count()) : 0.0,
                s.median(), s.p99(), s.max());
  return buf;
}

std::string cdf_json(const util::CdfSampler& s) {
  return cdf_json(s, sum_of(s));
}

std::string kind_json(const KindSummary& k) {
  char counts[512];
  std::snprintf(counts, sizeof counts,
                "\"bdd_nodes_created\": {\"mean\": %.1f, \"p50\": %.1f}, "
                "\"union_memo_misses\": {\"mean\": %.1f, \"p50\": %.1f}, "
                "\"in_nodes_regenerated\": {\"mean\": %.1f, \"p50\": %.1f}, "
                "\"wire_bytes\": {\"mean\": %.1f, \"p50\": %.1f}",
                mean_of(k.bdd_nodes), k.bdd_nodes.median(),
                mean_of(k.union_misses), k.union_misses.median(),
                mean_of(k.regenerated), k.regenerated.median(),
                mean_of(k.wire_bytes), k.wire_bytes.median());
  return "{\"commits\": " + std::to_string(k.commit_ms.count()) +
         ", \"commit_ms\": " + cdf_json(k.commit_ms) +
         ", \"install_ms\": " + cdf_json(k.install_ms) +
         ", \"union_ms\": " + cdf_json(k.union_ms) +
         ", \"tables_ms\": " + cdf_json(k.tables_ms) + ", " + counts + "}";
}

std::uint64_t union_misses(const bdd::CacheStats& c) {
  return (c.unite_probes - c.unite_hits) +
         (c.unite_res_probes - c.unite_res_hits);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_churn.json";
  double gate_reuse = -1;
  std::uint64_t seed = kChurnSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") quick = true;
    else if (a == "--json") json = true;
    else if (a == "--out" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--seed" && i + 1 < argc) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--gate-reuse" && i + 1 < argc) gate_reuse = std::strtod(argv[++i], nullptr);
    else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--out FILE] [--seed N] "
                   "[--gate-reuse F]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t n_base = quick ? 500 : 2000;
  const std::size_t n_ops = quick ? 60 : 500;

  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  // Exact-match field first keeps single-symbol changes local (see
  // EXPERIMENTS.md): the symbol stage absorbs the new predicate and the
  // suffix chains for untouched symbols keep their state ids.
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = seed;
  cp.subs.seed = seed ^ 0x5eedULL;
  cp.subs.n_subscriptions = n_base;
  cp.subs.n_symbols = 100;
  cp.subs.n_hosts = 200;
  workload::ChurnGenerator churn(schema, cp);

  // Base commit: cold start, every entry is an add.
  compiler::IncrementalCompiler inc(schema, opts);
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  {
    std::size_t slot = 0;
    for (const auto& r : churn.base()) ids[slot++] = inc.add(r);
  }
  util::Timer t0;
  auto first = inc.commit();
  if (!first.ok()) {
    std::fprintf(stderr, "initial commit failed: %s\n",
                 first.error().to_string().c_str());
    return 1;
  }
  const double initial_ms = t0.seconds() * 1e3;
  const std::size_t initial_entries = first.value().total_entries;
  bdd::CacheStats cache = first.value().stats.cache;

  switchsim::Switch sw(schema, *inc.pipeline().value());
  pubsub::TwoPhaseInstaller installer(sw);

  // Churn loop: one commit + delta install per op.
  Summary s;
  KindSummary by_kind[2];  // index: subscribe
  std::size_t commits = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    auto op = churn.next();
    KindSummary& kind = by_kind[op.subscribe];
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      inc.remove(ids.at(op.slot));
      ids.erase(op.slot);
    }

    util::Timer tc;
    auto delta = inc.commit();
    if (!delta.ok()) {
      std::fprintf(stderr, "commit %zu failed: %s\n", i,
                   delta.error().to_string().c_str());
      return 1;
    }
    const double commit_ms = tc.seconds() * 1e3;

    util::Timer ti;
    auto report = installer.apply_delta(delta.value().ops);
    if (!report.committed) {
      std::fprintf(stderr, "delta install %zu failed: %s\n", i,
                   report.error.c_str());
      return 1;
    }
    const double install_ms = ti.seconds() * 1e3;

    ++commits;
    s.commit_ms.add(commit_ms);
    s.commit_ms_sum += commit_ms;
    s.install_ms.add(install_ms);
    s.ops_per_commit.add(static_cast<double>(delta.value().ops.size()));
    s.ops_sum += static_cast<double>(delta.value().ops.size());
    s.entries_sum += static_cast<double>(delta.value().total_entries);
    s.reuse_fraction.add(delta.value().reuse_fraction());
    const bdd::CacheStats& now = delta.value().stats.cache;
    kind.commit_ms.add(commit_ms);
    kind.install_ms.add(install_ms);
    kind.union_ms.add(delta.value().stats.t_union * 1e3);
    kind.tables_ms.add(delta.value().stats.t_tables * 1e3);
    kind.bdd_nodes.add(static_cast<double>(now.unique_nodes - cache.unique_nodes));
    kind.union_misses.add(static_cast<double>(union_misses(now) - union_misses(cache)));
    kind.regenerated.add(static_cast<double>(
        delta.value().stats.tablegen.in_nodes_regenerated));
    kind.wire_bytes.add(
        static_cast<double>(table::serialize_ops(delta.value().ops).size()));
    cache = now;
  }

  // Single-subscription probe: the headline reuse claim, measured on a
  // quiet pipeline (one add commit, then its removal).
  auto probe_rule = churn.next();
  while (!probe_rule.subscribe) probe_rule = churn.next();
  auto probe_id = inc.add(probe_rule.rule);
  auto add_delta = inc.commit();
  if (!add_delta.ok() ||
      !installer.apply_delta(add_delta.value().ops).committed)
    return 1;
  inc.remove(probe_id);
  auto del_delta = inc.commit();
  if (!del_delta.ok() ||
      !installer.apply_delta(del_delta.value().ops).committed)
    return 1;
  const double probe_add_reuse = add_delta.value().reuse_fraction();
  const double probe_del_reuse = del_delta.value().reuse_fraction();

  const double install_ms_sum = sum_of(s.install_ms);

  std::printf("Live-churn updates: base=%zu subs, %zu churn ops (seed %llu)\n",
              n_base, n_ops,
              static_cast<unsigned long long>(seed));
  std::printf("  initial commit: %.1f ms, %zu entries\n", initial_ms,
              initial_entries);
  util::TextTable table({"metric", "mean", "p50", "p99", "max"});
  auto row = [&](const char* name, const util::CdfSampler& c, double sum) {
    table.add_row({name,
                   util::TextTable::fmt(
                       c.count() ? sum / static_cast<double>(c.count()) : 0, 3),
                   util::TextTable::fmt(c.median(), 3),
                   util::TextTable::fmt(c.p99(), 3),
                   util::TextTable::fmt(c.max(), 3)});
  };
  row("commit latency (ms)", s.commit_ms, s.commit_ms_sum);
  row("delta install (ms)", s.install_ms, install_ms_sum);
  row("ops per commit", s.ops_per_commit, s.ops_sum);
  for (const bool subscribe : {true, false}) {
    const KindSummary& k = by_kind[subscribe];
    const std::string tag = subscribe ? "subscribe " : "unsubscribe ";
    row((tag + "commit (ms)").c_str(), k.commit_ms, sum_of(k.commit_ms));
    row((tag + "install (ms)").c_str(), k.install_ms, sum_of(k.install_ms));
    row((tag + "union (ms)").c_str(), k.union_ms, sum_of(k.union_ms));
    row((tag + "tables (ms)").c_str(), k.tables_ms, sum_of(k.tables_ms));
    row((tag + "BDD nodes created").c_str(), k.bdd_nodes, sum_of(k.bdd_nodes));
    row((tag + "union memo misses").c_str(), k.union_misses,
        sum_of(k.union_misses));
    row((tag + "In nodes regenerated").c_str(), k.regenerated,
        sum_of(k.regenerated));
    row((tag + "wire bytes").c_str(), k.wire_bytes, sum_of(k.wire_bytes));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("  entries (mean): %.0f   ops/entries: %.4f   reuse: mean %.4f "
              "min %.4f\n",
              s.entries_sum / static_cast<double>(commits),
              s.ops_sum / s.entries_sum,
              mean_of(s.reuse_fraction), s.reuse_fraction.quantile(0.0));
  std::printf("  single-subscription probe: add reuse %.4f, remove reuse "
              "%.4f\n",
              probe_add_reuse, probe_del_reuse);
  std::printf("  switch program version: %llu (base + %zu deltas + probe)\n",
              static_cast<unsigned long long>(sw.program_version()), commits);

  if (json) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workload\": \"itch-churn\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"base_subscriptions\": " << n_base << ",\n"
        << "  \"churn_ops\": " << n_ops << ",\n"
        << "  \"p_subscribe\": " << cp.p_subscribe << ",\n"
        << "  \"hw_cores\": " << std::thread::hardware_concurrency() << ",\n"
        << "  \"initial\": {\"entries\": " << initial_entries
        << ", \"commit_ms\": " << util::json::format_double(initial_ms)
        << "},\n"
        << "  \"commit_ms\": " << cdf_json(s.commit_ms, s.commit_ms_sum)
        << ",\n"
        << "  \"install_ms\": " << cdf_json(s.install_ms, install_ms_sum)
        << ",\n"
        << "  \"ops_per_commit\": " << cdf_json(s.ops_per_commit, s.ops_sum)
        << ",\n"
        << "  \"entries_mean\": "
        << util::json::format_double(s.entries_sum /
                                     static_cast<double>(commits))
        << ",\n"
        << "  \"ops_vs_entries\": "
        << util::json::format_double(s.ops_sum / s.entries_sum) << ",\n"
        << "  \"reuse_fraction\": {\"mean\": "
        << util::json::format_double(mean_of(s.reuse_fraction))
        << ", \"min\": "
        << util::json::format_double(s.reuse_fraction.quantile(0.0))
        << "},\n"
        << "  \"by_kind\": {\n"
        << "    \"subscribe\": " << kind_json(by_kind[1]) << ",\n"
        << "    \"unsubscribe\": " << kind_json(by_kind[0]) << "\n"
        << "  },\n"
        << "  \"single_subscription_probe\": {\n"
        << "    \"add\": {\"ops\": " << add_delta.value().ops.size()
        << ", \"reuse_fraction\": "
        << util::json::format_double(probe_add_reuse) << "},\n"
        << "    \"remove\": {\"ops\": " << del_delta.value().ops.size()
        << ", \"reuse_fraction\": "
        << util::json::format_double(probe_del_reuse) << "}\n"
        << "  },\n"
        << "  \"final\": {\"subscriptions\": " << inc.subscription_count()
        << ", \"entries\": " << inc.pipeline().value()->total_entries()
        << ", \"switch_program_version\": " << sw.program_version()
        << "}\n"
        << "}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (gate_reuse >= 0 &&
      (probe_add_reuse < gate_reuse || probe_del_reuse < gate_reuse)) {
    std::fprintf(stderr,
                 "REGRESSION: single-subscription reuse (add %.4f, remove "
                 "%.4f) below gate %.2f\n",
                 probe_add_reuse, probe_del_reuse, gate_reuse);
    return 1;
  }
  return 0;
}
