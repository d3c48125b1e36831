// Crash-recovery benchmark (ISSUE 9 satellite): quantifies the durable
// control plane's recovery story on a seeded churn history.
//
//   1. Recovery time vs history length: the journal of an N-commit churn
//      run on the single-switch topology is truncated at milestone
//      fractions and a fresh DurableController open()s each prefix (exact
//      replay — every commit boundary recompiled and digest-checked). The
//      full-depth replay must reproduce the pre-crash intended pipeline
//      bit-identically.
//   2. Checkpoint recovery: the same history compacted to one snapshot
//      record, then reopened — O(live state) instead of O(history).
//   3. Repair delta vs full reprogram: a switch that missed exactly one
//      install is reconciled (entry ops; --gate-reuse exits non-zero when
//      entry reuse drops below the floor — the paper's re-use claim
//      carried over to crash repair), and a cold-rebooted switch is
//      reconciled (full re-image), with wire bytes for both.
//
// --storage selects the StableStorage backend: "mem" (default) runs on
// MemStorage as before, "file" runs the same history and probes on
// FileStorage (real write()+fsync per journal append — the durability
// cost a deployment actually pays), "both" runs mem and nests the file
// results under a "file" key so the two are directly comparable in one
// JSON document. The top-level JSON schema is unchanged from the mem-only
// version; CI's --gate-reuse path gates the top-level (mem) run.
//
// Hard assertions (exit status) regardless of flags: exact replay is
// digest-identical with zero mismatches, the missed-install repair ships
// as ops (not a re-image) and lands, and the cold reboot converges.
//
// CI runs this with --quick --gate-reuse 0.8 as the recovery-smoke job;
// the committed BENCH_recovery.json is the full run with --storage=both.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/fabric.hpp"
#include "fault/plan.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace camus;

namespace {

constexpr std::uint64_t kChurnSeed = 20260808;
constexpr std::uint16_t kPorts = 8;

compiler::CompileOptions bench_opts() {
  // Exact-match field first: new-symbol churn then grows the automaton at
  // the edge, which is what makes one missed install repairable as a
  // sliver of the program (same choice as the churn bench's reuse gate).
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  return opts;
}

std::string churn_rule(util::Rng& rng, int symbol) {
  return "stock == SYM" + std::to_string(symbol) + " and price > " +
         std::to_string(rng.uniform(1, 400) * 100);
}

// Either backend behind the StableStorage interface, with a uniform way
// to read/replace the full journal image. File-backed boxes own a unique
// temp file and remove it on destruction.
struct StorageBox {
  StorageBox(bool file_backed, const std::string& tag) {
    if (file_backed) {
      static int counter = 0;
      path_ = "/tmp/camus_recovery_sweep_" + tag + "_" +
              std::to_string(counter++) + ".journal";
      file_ = std::make_unique<util::FileStorage>(path_);
      file_->replace("");
    } else {
      mem_ = std::make_unique<util::MemStorage>();
    }
  }
  ~StorageBox() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  StorageBox(const StorageBox&) = delete;
  StorageBox& operator=(const StorageBox&) = delete;

  util::StableStorage& ref() {
    return file_ ? static_cast<util::StableStorage&>(*file_) : *mem_;
  }
  std::string contents() {
    auto loaded = ref().load();
    return loaded.ok() ? loaded.value() : std::string();
  }

 private:
  std::unique_ptr<util::MemStorage> mem_;
  std::unique_ptr<util::FileStorage> file_;
  std::string path_;
};

struct MilestoneRow {
  double fraction = 0;
  std::size_t journal_bytes = 0;
  std::size_t records = 0;
  std::uint64_t commits = 0;
  std::size_t subscriptions = 0;
  double open_ms = 0;
};

// Opens a fresh controller over a byte-for-byte copy of `log` on the
// requested backend and times the replay.
struct ReplayProbe {
  StorageBox box;
  pubsub::DurableController ctl;
  double open_ms = 0;
  bool ok = false;

  ReplayProbe(const spec::Schema& schema, const std::string& log,
              bool file_backed, const std::string& tag)
      : box(file_backed, tag),
        ctl(schema, box.ref(), compiler::FabricSpec::single_switch(),
            bench_opts()) {
    box.ref().replace(log);
    util::Timer t;
    ok = ctl.open().ok();
    open_ms = t.seconds() * 1e3;
  }
};

// One full measurement pass — history build, milestone replays,
// checkpoint recovery, missed-install repair, cold reboot — on one
// storage backend.
struct ModeResult {
  std::string mode;  // "mem" | "file"
  int commits = 0;
  std::size_t subscriptions = 0;
  std::size_t entries = 0;
  std::size_t journal_bytes = 0;
  double history_s = 0;
  std::vector<MilestoneRow> milestones;
  std::size_t checkpoint_bytes = 0;
  double checkpoint_open_ms = 0;
  std::size_t checkpoint_subs = 0;
  std::size_t repair_ops = 0;
  double repair_reuse = 0;
  std::size_t delta_bytes = 0;
  std::size_t full_bytes = 0;
  double repair_ms = 0;
  double cold_ms = 0;
  bool ok = true;
};

bool run_mode(const spec::Schema& schema, bool file_backed, int n_commits,
              ModeResult& out) {
  out.mode = file_backed ? "file" : "mem";
  out.commits = n_commits;

  StorageBox storage(file_backed, out.mode + "_history");
  pubsub::DurableController ctl(schema, storage.ref(),
                                compiler::FabricSpec::single_switch(),
                                bench_opts());
  if (!ctl.open().ok()) {
    std::fprintf(stderr, "[%s] open failed\n", out.mode.c_str());
    return false;
  }
  switchsim::Switch sw(spec::make_itch_schema(), table::Pipeline{});
  pubsub::TwoPhaseInstaller installer(sw);

  // --- 1. Build the churn history, installing every commit but the last.
  util::Rng rng(kChurnSeed);
  int next_symbol = 0;
  std::vector<std::size_t> commit_offsets;  // journal bytes after commit i
  util::Timer wall;
  for (int c = 0; c < n_commits; ++c) {
    const bool last = c == n_commits - 1;
    const int adds = last ? 1 : 2;
    for (int k = 0; k < adds; ++k) {
      // A fresh symbol most of the time, so the history keeps growing at
      // the automaton's edge; occasional repeats tighten existing ones.
      const int sym = rng.chance(0.8) ? next_symbol++
                                      : rng.uniform(0, next_symbol);
      const auto port =
          static_cast<std::uint16_t>(1 + rng.uniform(0, kPorts - 1));
      if (!ctl.subscribe(port, churn_rule(rng, sym)).ok()) {
        std::fprintf(stderr, "[%s] subscribe failed at commit %d\n",
                     out.mode.c_str(), c);
        return false;
      }
    }
    if (!last && c > 0 && c % 7 == 0)
      ctl.unsubscribe(
          static_cast<std::uint16_t>(1 + rng.uniform(0, kPorts - 1)));
    auto delta = ctl.commit();
    if (!delta.ok()) {
      std::fprintf(stderr, "[%s] commit %d failed: %s\n", out.mode.c_str(),
                   c, delta.error().to_string().c_str());
      return false;
    }
    if (!last) {
      auto rep = ctl.install(installer, delta.value());
      if (!rep.ok() || !rep.value().committed) {
        std::fprintf(stderr, "[%s] install %d failed\n", out.mode.c_str(),
                     c);
        return false;
      }
    } else {
      // The last install is eaten by a total partition: the commit is
      // journaled and intended, the switch never sees it.
      fault::FaultSpec dead;
      dead.drop = 1.0;
      const fault::Plan plan(dead, 2);
      auto rep = ctl.install(installer, delta.value(), &plan);
      if (!rep.ok() || rep.value().committed) {
        std::fprintf(stderr,
                     "[%s] partitioned install unexpectedly landed\n",
                     out.mode.c_str());
        return false;
      }
    }
    commit_offsets.push_back(storage.contents().size());
  }
  out.history_s = wall.seconds();
  const std::string log = storage.contents();
  const table::Pipeline intended = ctl.intended().value()->leaves[0];
  const std::uint64_t intended_digest = table::pipeline_digest(intended);
  out.journal_bytes = log.size();
  out.subscriptions = ctl.subscription_count();
  out.entries = intended.total_entries();

  // --- 2. Exact-replay recovery time at milestone depths.
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(commit_offsets.size())) - 1;
    const std::string prefix = log.substr(0, commit_offsets[idx]);
    ReplayProbe probe(schema, prefix, file_backed, out.mode + "_replay");
    MilestoneRow row;
    row.fraction = frac;
    row.journal_bytes = prefix.size();
    row.records = probe.ctl.recovery().records_replayed;
    row.commits = probe.ctl.recovery().commits_replayed;
    row.subscriptions = probe.ctl.subscription_count();
    row.open_ms = probe.open_ms;
    out.milestones.push_back(row);
    if (!probe.ok || probe.ctl.recovery().digest_mismatches != 0) {
      std::fprintf(stderr, "[%s] FAIL: exact replay at %.2f not clean\n",
                   out.mode.c_str(), frac);
      out.ok = false;
    }
    if (frac == 1.0) {
      auto recovered = probe.ctl.intended();
      if (!recovered.ok() ||
          recovered.value()->leaf_digests[0] != intended_digest) {
        std::fprintf(stderr,
                     "[%s] FAIL: full replay is not digest-identical\n",
                     out.mode.c_str());
        out.ok = false;
      }
    }
  }

  // --- 3. Checkpoint recovery: compact, then reopen from the snapshot.
  {
    ReplayProbe full(schema, log, file_backed, out.mode + "_ckpt_full");
    bool checkpoint_ok = full.ok && full.ctl.checkpoint().ok();
    const std::string compacted = full.box.contents();
    out.checkpoint_bytes = compacted.size();
    ReplayProbe snap(schema, compacted, file_backed,
                     out.mode + "_ckpt_snap");
    out.checkpoint_open_ms = snap.open_ms;
    out.checkpoint_subs = snap.ctl.subscription_count();
    checkpoint_ok = checkpoint_ok && snap.ok &&
                    snap.ctl.recovery().from_snapshot &&
                    snap.ctl.subscription_count() == ctl.subscription_count();
    if (!checkpoint_ok) {
      std::fprintf(stderr, "[%s] FAIL: checkpoint recovery\n",
                   out.mode.c_str());
      out.ok = false;
    }
  }

  // --- 4a. Repair delta: the switch missed exactly one install.
  const auto have = sw.pipeline_snapshot();
  const table::PipelineDiff diff =
      table::diff_pipelines(have.get(), intended);
  out.delta_bytes = table::serialize_ops(diff.ops).size();
  out.full_bytes = table::serialize_pipeline(intended).size();
  util::Timer repair_t;
  auto rec = ctl.reconcile(installer);
  out.repair_ms = repair_t.seconds() * 1e3;
  const bool repair_ok = rec.ok() && rec.value().repaired == 1 &&
                         rec.value().full_reprograms == 0 &&
                         sw.program_digest() == intended_digest;
  if (!repair_ok) {
    std::fprintf(stderr, "[%s] FAIL: missed-install repair\n",
                 out.mode.c_str());
    out.ok = false;
  }
  out.repair_reuse = rec.ok() ? rec.value().reuse_fraction() : 0;
  out.repair_ops = rec.ok() ? rec.value().repair_ops : 0;

  // --- 4b. Full reprogram: a cold-rebooted (blank) switch.
  switchsim::Switch cold_sw(spec::make_itch_schema(), table::Pipeline{});
  pubsub::TwoPhaseInstaller cold_installer(cold_sw);
  util::Timer cold_t;
  auto cold = ctl.reconcile(cold_installer);
  out.cold_ms = cold_t.seconds() * 1e3;
  const bool cold_ok = cold.ok() && cold.value().repaired == 1 &&
                       cold.value().full_reprograms == 1 &&
                       cold_sw.program_digest() == intended_digest;
  if (!cold_ok) {
    std::fprintf(stderr, "[%s] FAIL: cold-reboot reprogram\n",
                 out.mode.c_str());
    out.ok = false;
  }

  std::printf("recovery_sweep[%s]: %d commits (%zu subs, %zu entries, %zu "
              "journal bytes) built in %.2fs\n",
              out.mode.c_str(), n_commits, out.subscriptions, out.entries,
              out.journal_bytes, out.history_s);
  for (const auto& m : out.milestones)
    std::printf("  exact replay %3.0f%%: %6zu bytes, %4zu records, %3llu "
                "commits -> %.2f ms\n",
                m.fraction * 100, m.journal_bytes, m.records,
                static_cast<unsigned long long>(m.commits), m.open_ms);
  std::printf("  checkpoint: %zu bytes -> %.2f ms (%zu subs)\n",
              out.checkpoint_bytes, out.checkpoint_open_ms,
              out.checkpoint_subs);
  std::printf("  repair (1 missed install): %zu ops, reuse %.4f, %zu vs "
              "%zu wire bytes -> %.2f ms\n",
              out.repair_ops, out.repair_reuse, out.delta_bytes,
              out.full_bytes, out.repair_ms);
  std::printf("  cold reboot: full re-image, %zu entries -> %.2f ms\n",
              out.entries, out.cold_ms);
  return true;
}

// Emits one mode's measurements as the body fields of a JSON object
// (caller wraps with braces and mode-independent keys).
void write_mode_json(std::ofstream& out, const ModeResult& r,
                     const std::string& indent) {
  out << indent << "\"commits\": " << r.commits << ",\n"
      << indent << "\"subscriptions\": " << r.subscriptions << ",\n"
      << indent << "\"entries\": " << r.entries << ",\n"
      << indent << "\"journal_bytes\": " << r.journal_bytes << ",\n"
      << indent << "\"history_seconds\": "
      << util::json::format_double(r.history_s) << ",\n"
      << indent << "\"exact_replay\": [\n";
  for (std::size_t i = 0; i < r.milestones.size(); ++i) {
    const auto& m = r.milestones[i];
    out << indent << "  {\"fraction\": "
        << util::json::format_double(m.fraction)
        << ", \"journal_bytes\": " << m.journal_bytes
        << ", \"records\": " << m.records
        << ", \"commits\": " << m.commits
        << ", \"subscriptions\": " << m.subscriptions
        << ", \"open_ms\": " << util::json::format_double(m.open_ms)
        << "}" << (i + 1 < r.milestones.size() ? "," : "") << "\n";
  }
  out << indent << "],\n"
      << indent << "\"checkpoint\": {\"journal_bytes\": "
      << r.checkpoint_bytes << ", \"open_ms\": "
      << util::json::format_double(r.checkpoint_open_ms)
      << ", \"subscriptions\": " << r.checkpoint_subs << "},\n"
      << indent << "\"repair_missed_install\": {\"ops\": " << r.repair_ops
      << ", \"reuse_fraction\": "
      << util::json::format_double(r.repair_reuse)
      << ", \"delta_bytes\": " << r.delta_bytes
      << ", \"full_bytes\": " << r.full_bytes
      << ", \"ms\": " << util::json::format_double(r.repair_ms) << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_recovery.json";
  std::string storage_mode = "mem";
  double gate_reuse = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick") quick = true;
    else if (a == "--json") json = true;
    else if (a == "--out" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--gate-reuse" && i + 1 < argc)
      gate_reuse = std::strtod(argv[++i], nullptr);
    else if (a.rfind("--storage=", 0) == 0)
      storage_mode = std::string(a.substr(10));
    else if (a == "--storage" && i + 1 < argc)
      storage_mode = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--out FILE] "
                   "[--gate-reuse F] [--storage mem|file|both]\n",
                   argv[0]);
      return 2;
    }
  }
  if (storage_mode != "mem" && storage_mode != "file" &&
      storage_mode != "both") {
    std::fprintf(stderr, "unknown --storage '%s' (mem|file|both)\n",
                 storage_mode.c_str());
    return 2;
  }
  const int n_commits = quick ? 40 : 150;

  auto schema = spec::make_itch_schema();

  // The primary run keeps the original top-level JSON schema: mem unless
  // file-only was requested. --storage=both nests the file run.
  ModeResult primary;
  if (!run_mode(schema, storage_mode == "file", n_commits, primary))
    return 1;
  ModeResult file_extra;
  bool have_file_extra = false;
  if (storage_mode == "both") {
    if (!run_mode(schema, true, n_commits, file_extra)) return 1;
    have_file_extra = true;
  }

  const bool all_ok = primary.ok && (!have_file_extra || file_extra.ok);

  if (json) {
    std::ofstream out(json_path);
    out << "{\n  \"workload\": \"durable-churn\",\n"
        << "  \"seed\": " << kChurnSeed << ",\n"
        << "  \"storage\": \"" << primary.mode << "\",\n";
    write_mode_json(out, primary, "  ");
    out << ",\n  \"cold_reboot\": {\"entries\": " << primary.entries
        << ", \"ms\": " << util::json::format_double(primary.cold_ms)
        << "},\n";
    if (have_file_extra) {
      out << "  \"file\": {\n";
      write_mode_json(out, file_extra, "    ");
      out << ",\n    \"cold_reboot\": {\"entries\": " << file_extra.entries
          << ", \"ms\": " << util::json::format_double(file_extra.cold_ms)
          << "}\n  },\n";
    }
    out << "  \"all_checks_pass\": " << (all_ok ? "true" : "false")
        << "\n}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (gate_reuse >= 0 && primary.repair_reuse < gate_reuse) {
    std::fprintf(stderr,
                 "FAIL: missed-install repair reuse %.4f below gate %.2f\n",
                 primary.repair_reuse, gate_reuse);
    return 1;
  }
  return all_ok ? 0 : 1;
}
