// camus-nemesis: seeded fault-injection campaign against the crash-safe
// control plane. Runs N scenarios of subscription churn on a spines x
// leaves topology (default 0 x 1, the single switch) with controller
// crashes (including between per-switch commits), leaf and spine reboots,
// install partitions (all-or-nothing aborts), and stale-epoch writes,
// checking the four recovery invariants after every disruption (see
// src/fault/nemesis.hpp). Exits 1 on any violation, so CI can gate on it
// directly, and 2 on bad usage (including a degenerate topology).
//
// Usage: camus-nemesis [--spines N] [--leaves N] [--seed N] [--scenarios N]
//                      [--steps N] [--probes N] [--json]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "compiler/fabric.hpp"
#include "fault/nemesis.hpp"

namespace {

// Every restarted controller builds one BDD manager per leaf (~3 MB
// each): 64 x 64 peaks near 240 MB, and larger tiers exhaust memory
// rather than test anything new.
constexpr std::size_t kMaxTier = 64;

constexpr const char* kUsage =
    "usage: camus-nemesis [--spines N] [--leaves N] [--seed N] "
    "[--scenarios N] [--steps N] [--probes N] [--json]\n"
    "  topology: 1 <= --leaves <= 64, and 1 <= --spines <= 64 unless "
    "--leaves is 1 (then --spines 0 is the single switch)\n";

// A tier size: a decimal count no larger than kMaxTier.
bool parse_tier(const char* s, std::size_t& out) {
  char* end = nullptr;
  if (*s < '0' || *s > '9') return false;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || v > kMaxTier) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  camus::fault::NemesisOptions opts;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scenarios") {
      opts.scenarios = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--steps") {
      opts.steps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--probes") {
      opts.probe_messages = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--leaves" || arg == "--spines") {
      const char* value = next();
      if (!parse_tier(value, arg == "--leaves" ? opts.leaves : opts.spines)) {
        std::fprintf(stderr, "bad %s '%s'\n%s", arg.c_str(), value, kUsage);
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  if (!camus::compiler::FabricSpec{opts.leaves, opts.spines}.valid()) {
    std::fprintf(stderr, "degenerate topology: %zu spines x %zu leaves\n%s",
                 opts.spines, opts.leaves, kUsage);
    return 2;
  }

  const camus::fault::NemesisStats stats = camus::fault::run_nemesis(opts);

  if (json) {
    std::printf("%s\n", stats.to_json().c_str());
  } else {
    std::printf(
        "nemesis %zux%zu: %zu scenarios, %zu steps | %zu commits, %zu "
        "installs | %zu crashes (%zu mid-commit, %zu from snapshot), %zu "
        "leaf reboots, %zu spine reboots | %zu partitions (%zu atomic "
        "aborts), %zu stale writes (%zu rejected) | %zu reconciles, %zu "
        "repairs (%zu full), %zu repair ops | %zu probes\n",
        opts.spines, opts.leaves, stats.scenarios, stats.steps, stats.commits,
        stats.installs, stats.crashes, stats.crashes_mid_commit,
        stats.recoveries_from_snapshot, stats.leaf_reboots,
        stats.spine_reboots, stats.partitions, stats.all_or_nothing_aborts,
        stats.stale_writes, stats.stale_rejected, stats.reconciles,
        stats.repairs, stats.full_reprograms, stats.repair_ops, stats.probes);
  }

  if (stats.violations > 0) {
    std::fprintf(stderr, "VIOLATIONS: %zu\n", stats.violations);
    for (const std::string& d : stats.violation_details)
      std::fprintf(stderr, "  %s\n", d.c_str());
    return 1;
  }
  std::fprintf(stderr, "all invariants held\n");
  return 0;
}
