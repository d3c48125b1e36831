// Compile-at-scale smoke: the 10^5-subscription regime the partitioned
// compiler exists for, in one self-gating binary.
//
// For each size it compiles the Figure-5c ITCH workload twice — the
// monolithic baseline and the scale layout (partition kForce + entry
// interning) — and records compile seconds, pipeline entries,
// entries-per-subscription, peak RSS, and the largest per-shard BDD
// arena. At the smallest size it additionally keeps the monolithic
// reference MTBDD and runs the camus::verify equivalence checker over
// the stitched pipeline, so the bench itself proves the scale layout
// sound before timing it.
//
// Gates (any violation exits non-zero, for CI):
//   * equivalence must be proven at the probe size;
//   * sublinear entry growth — entries-per-subscription of the scale
//     layout at the largest size must be <= --gate-ratio (default 0.5)
//     times the ratio at the smallest size;
//   * --gate-seconds S: scale-layout compile time cap at every size;
//   * --gate-rss-mb M: peak-RSS cap recorded right after the largest
//     scale-layout compile (the monolithic baseline runs *after* it at
//     each size, so the cap measures the partitioned path, not the
//     baseline's union BDD).
//
// The emitted JSON carries an FNV-1a digest of the serialized scale
// pipeline per size. The compile is deterministic at any thread count
// (canonical shard stitch order), so the committed BENCH_compile.json
// digest pins the exact table layout CI must reproduce.
//
// Flags: --quick (2K/20K), --full (adds 10^6), --threads N (workers of
// the partitioned compile; 0 = hw), --json, --out FILE, --gate-seconds S,
// --gate-rss-mb M, --gate-ratio R.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "compiler/compile.hpp"
#include "spec/itch_spec.hpp"
#include "table/serialize.hpp"
#include "table/table.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Row {
  std::size_t n = 0;
  bool has_mono = false;
  double mono_seconds = 0;
  std::uint64_t mono_entries = 0;
  double scale_seconds = 0;
  std::uint64_t scale_entries = 0;
  double scale_ratio = 0;  // entries per subscription
  std::size_t partition_groups = 0;
  std::size_t threads_used = 0;  // workers the partitioned compile ran
  std::size_t peak_rss_mb = 0;
  std::size_t shard_bdd_mb = 0;
  std::uint64_t digest = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, full = false, want_json = false;
  std::size_t threads = 0;
  double gate_seconds = 0, gate_ratio = 0.5;
  std::size_t gate_rss_mb = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
      want_json = true;
    } else if (arg == "--gate-seconds" && i + 1 < argc) {
      gate_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--gate-rss-mb" && i + 1 < argc) {
      gate_rss_mb =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--gate-ratio" && i + 1 < argc) {
      gate_ratio = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--full] [--threads N] [--json] "
                   "[--out FILE]\n          [--gate-seconds S] "
                   "[--gate-rss-mb M] [--gate-ratio R]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {2000, 100000};
  if (quick) sizes = {2000, 20000};
  if (full) sizes.push_back(1000000);
  // The monolithic baseline is informative, not load-bearing; skip it
  // where its union BDD would dominate the wall clock (10^6 takes ~7min
  // vs ~45s partitioned).
  const std::size_t mono_cap = 200000;

  auto schema = spec::make_itch_schema();
  std::printf("compile-at-scale: fig5c ITCH workload, scale layout = "
              "partition(force) + intern, threads=%zu\n\n",
              threads);
  util::TextTable table({"#subs", "mono (s)", "mono entries", "scale (s)",
                         "scale entries", "entries/sub", "shards",
                         "peak rss (MB)", "shard bdd (MB)"});

  std::vector<Row> rows;
  bool equivalence_verified = false;
  std::string failure;

  for (std::size_t n : sizes) {
    workload::ItchSubsParams p;
    p.seed = 42;
    p.n_subscriptions = n;
    p.n_symbols = 100;
    p.n_hosts = 200;
    p.price_max = 1000;
    auto subs = workload::generate_itch_subscriptions(schema, p);

    Row row;
    row.n = n;

    compiler::CompileOptions sopts;
    sopts.threads = threads;
    sopts.partition = compiler::PartitionMode::kForce;
    sopts.partition_min_rules = 0;
    sopts.intern_entries = true;
    // Smallest size doubles as the soundness probe: keep the monolithic
    // reference MTBDD and prove the stitched pipeline equivalent.
    const bool probe = n == sizes.front();
    sopts.partition_reference = probe;

    util::Timer ts;
    auto sc = compiler::compile_rules(schema, subs.rules, sopts);
    row.scale_seconds = ts.seconds();
    if (!sc.ok()) {
      std::fprintf(stderr, "scale compile failed at %zu: %s\n", n,
                   sc.error().to_string().c_str());
      return 1;
    }
    const auto& sstats = sc.value().stats;
    row.scale_entries = sstats.total_entries;
    row.scale_ratio =
        static_cast<double>(sstats.total_entries) / static_cast<double>(n);
    row.partition_groups = sstats.partition_groups;
    row.threads_used = sstats.threads_used;
    row.peak_rss_mb = sstats.mem.peak_rss >> 20;
    row.shard_bdd_mb = sstats.mem.bdd_bytes >> 20;
    row.digest = fnv1a(table::serialize_pipeline(sc.value().pipeline));

    if (probe) {
      const auto eq = verify::check_equivalence(
          *sc.value().manager, sc.value().root, sc.value().pipeline, schema);
      equivalence_verified = eq.proven_equivalent();
      if (!equivalence_verified)
        failure = "equivalence not proven at n=" + std::to_string(n) + ": " +
                  eq.detail;
    }

    if (n <= mono_cap) {
      util::Timer tm;
      auto mc = compiler::compile_rules(schema, subs.rules, {});
      row.mono_seconds = tm.seconds();
      if (!mc.ok()) {
        std::fprintf(stderr, "monolithic compile failed at %zu: %s\n", n,
                     mc.error().to_string().c_str());
        return 1;
      }
      row.has_mono = true;
      row.mono_entries = mc.value().stats.total_entries;
    }

    table.add_row({std::to_string(n),
                   row.has_mono ? util::TextTable::fmt(row.mono_seconds, 2)
                                : "-",
                   row.has_mono ? std::to_string(row.mono_entries) : "-",
                   util::TextTable::fmt(row.scale_seconds, 2),
                   std::to_string(row.scale_entries),
                   util::TextTable::fmt(row.scale_ratio, 4),
                   std::to_string(row.partition_groups),
                   std::to_string(row.peak_rss_mb),
                   std::to_string(row.shard_bdd_mb)});
    rows.push_back(row);

    if (gate_seconds > 0 && row.scale_seconds > gate_seconds && failure.empty())
      failure = "scale compile at n=" + std::to_string(n) + " took " +
                std::to_string(row.scale_seconds) + "s > gate " +
                std::to_string(gate_seconds) + "s";
  }
  std::printf("%s", table.to_string().c_str());

  const Row& small = rows.front();
  const Row& large = rows.back();
  const bool sublinear =
      large.scale_ratio <= gate_ratio * small.scale_ratio;
  std::printf("\nentries/sub: %0.4f @ %zu -> %0.4f @ %zu (gate: <= %0.2fx)\n",
              small.scale_ratio, small.n, large.scale_ratio, large.n,
              gate_ratio);
  std::printf("equivalence @ %zu: %s\n", small.n,
              equivalence_verified ? "proven" : "NOT PROVEN");
  if (!sublinear && failure.empty())
    failure = "entry growth not sublinear: " +
              std::to_string(large.scale_ratio) + " > " +
              std::to_string(gate_ratio) + " * " +
              std::to_string(small.scale_ratio);
  if (gate_rss_mb > 0 && large.peak_rss_mb > gate_rss_mb && failure.empty())
    failure = "peak RSS " + std::to_string(large.peak_rss_mb) + " MB > gate " +
              std::to_string(gate_rss_mb) + " MB";

  if (want_json) {
    std::FILE* out =
        out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"workload\": \"itch-fig5c\",\n  \"seed\": 42,\n"
                 "  \"threads\": %zu,\n  \"hw_cores\": %u,\n"
                 "  \"equivalence_verified\": %s,\n"
                 "  \"gate_ratio\": %g,\n  \"sublinear_ok\": %s,\n"
                 "  \"sizes\": [\n",
                 threads, std::thread::hardware_concurrency(),
                 equivalence_verified ? "true" : "false", gate_ratio,
                 sublinear ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "    {\"n\": %zu, \"scale_seconds\": %.4f, "
                   "\"scale_entries\": %" PRIu64
                   ", \"entries_per_sub\": %.6f, \"partition_groups\": %zu, "
                   "\"threads_used\": %zu, "
                   "\"peak_rss_mb\": %zu, \"shard_bdd_mb\": %zu, "
                   "\"digest\": \"%016" PRIx64 "\"",
                   r.n, r.scale_seconds, r.scale_entries, r.scale_ratio,
                   r.partition_groups, r.threads_used, r.peak_rss_mb,
                   r.shard_bdd_mb, r.digest);
      if (r.has_mono)
        std::fprintf(out,
                     ", \"mono_seconds\": %.4f, \"mono_entries\": %" PRIu64,
                     r.mono_seconds, r.mono_entries);
      std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout) std::fclose(out);
  }

  if (!failure.empty()) {
    std::fprintf(stderr, "\nGATE FAILED: %s\n", failure.c_str());
    return 1;
  }
  return 0;
}
