#include "fault/nemesis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "compiler/compile.hpp"
#include "compiler/fabric.hpp"
#include "fault/plan.hpp"
#include "lang/bound.hpp"
#include "lang/parser.hpp"
#include "netsim/fabric.hpp"
#include "pubsub/durable.hpp"
#include "spec/itch_spec.hpp"
#include "table/pipeline.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace camus::fault {

namespace {

using pubsub::DurableController;

const std::vector<std::string>& symbols() {
  static const std::vector<std::string> syms = {
      "GOOGL", "MSFT", "AAPL", "AMZN", "NVDA", "TSLA", "IBM", "ORCL"};
  return syms;
}

// Seeded textual rule generator (the churn workload's grammar): plain
// symbol interest, symbol+price bands, share-size filters — the shapes
// the paper's ITCH application uses, all stateless so every topology can
// place them. Interest-only texts exercise the controller's fwd(port)
// appending.
std::string gen_rule_text(util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return "stock == " + rng.pick(symbols());
    case 1:
      return "stock == " + rng.pick(symbols()) + " and price > " +
             std::to_string(rng.uniform(1, 500) * 100);
    case 2:
      return "shares > " + std::to_string(rng.uniform(1, 900));
    default:
      return "stock == " + rng.pick(symbols()) + " and shares < " +
             std::to_string(rng.uniform(10, 2000));
  }
}

// The harness's shadow model: what the intended state MUST be, maintained
// independently of the controller (same single-port unsubscribe filter).
struct ShadowSub {
  std::uint16_t port = 0;
  std::string text;  // full text incl. action
};

// Binds the shadow set for the batch-compiled oracle.
util::Result<std::vector<lang::BoundRule>> bind_shadow(
    const spec::Schema& schema, const std::vector<ShadowSub>& shadow) {
  std::vector<lang::BoundRule> rules;
  rules.reserve(shadow.size());
  for (const ShadowSub& s : shadow) {
    auto parsed = lang::parse_rule(s.text);
    if (!parsed.ok()) return parsed.error();
    auto bound = lang::bind_rule(parsed.value(), schema);
    if (!bound.ok()) return bound.error();
    rules.push_back(std::move(bound).take());
  }
  return rules;
}

lang::Env probe_env(util::Rng& rng) {
  lang::Env env;
  env.fields = {rng.uniform(0, 2500),                      // shares
                util::encode_symbol(rng.pick(symbols())),  // stock
                rng.uniform(0, 60000)};                    // price
  env.states = {0, 0};
  return env;
}

struct Scenario {
  const NemesisOptions& opts;
  NemesisStats& stats;
  std::uint64_t seed;
  util::Rng rng;
  spec::Schema schema;
  compiler::FabricSpec topology;

  util::MemStorage storage;
  std::unique_ptr<netsim::Fabric> fabric;
  std::unique_ptr<DurableController> ctl;
  std::vector<ShadowSub> shadow;
  std::uint16_t next_port = 1;
  bool used_checkpoint = false;
  // The last epoch a now-deposed controller held (stale-write source).
  std::optional<std::uint64_t> deposed_epoch;

  Scenario(const NemesisOptions& o, NemesisStats& st, std::uint64_t s)
      : opts(o),
        stats(st),
        seed(s),
        rng(s),
        schema(spec::make_itch_schema()),
        topology{o.leaves, o.spines} {
    netsim::FabricTopologyOptions topo;
    topo.spec = topology;
    fabric = std::make_unique<netsim::Fabric>(spec::make_itch_schema(), topo);
    ctl = std::make_unique<DurableController>(spec::make_itch_schema(),
                                              storage, topology);
  }

  void trace(const std::string& what) {
    if (std::getenv("NEMESIS_TRACE"))
      std::fprintf(stderr, "[seed %llu] %s\n",
                   static_cast<unsigned long long>(seed), what.c_str());
  }

  void violation(const std::string& what) {
    ++stats.violations;
    if (stats.violation_details.size() < 20)
      stats.violation_details.push_back("seed " + std::to_string(seed) +
                                        ": " + what);
  }

  bool check(bool ok, const std::string& what) {
    if (!ok) violation(what);
    return ok;
  }

  switchsim::Switch& switch_at(std::size_t i) {
    return i < topology.spines ? fabric->spine(i)
                               : fabric->leaf(i - topology.spines);
  }

  std::vector<std::uint64_t> switch_digests() {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < topology.switches(); ++i)
      d.push_back(switch_at(i).program_digest());
    return d;
  }

  // I1: replayed intended state matches the shadow model.
  void check_recovery(const pubsub::RecoveryInfo& info) {
    check(info.subscriptions == shadow.size(),
          "I1: recovered " + std::to_string(info.subscriptions) +
              " subscriptions, shadow has " + std::to_string(shadow.size()));
    if (!info.from_snapshot)
      check(info.digest_mismatches == 0,
            "I1: exact replay reported digest mismatches");
  }

  // Reconciles every switch and demands convergence (I2 precondition).
  void reconcile(const std::string& why) {
    auto rec = ctl->reconcile(fabric->targets());
    ++stats.reconciles;
    if (!check(rec.ok(), why + ": reconcile errored: " +
                             (rec.ok() ? "" : rec.error().to_string())))
      return;
    trace(why + ": in_sync=" + std::to_string(rec.value().in_sync) +
          " repaired=" + std::to_string(rec.value().repaired) +
          " full=" + std::to_string(rec.value().full_reprograms) +
          " ops=" + std::to_string(rec.value().repair_ops));
    stats.repairs += rec.value().repaired;
    stats.full_reprograms += rec.value().full_reprograms;
    stats.repair_ops += rec.value().repair_ops;
    if (ctl->commit_seq() > 0)
      check(rec.value().converged,
            why + ": reconcile did not converge: " + rec.value().error);
  }

  // I2 + I4: every switch runs its intended program, and the delivery set
  // equals the monolithic oracle's (exactly-once: nothing missing, nothing
  // duplicated or spurious).
  void check_installed() {
    auto intended = ctl->intended();
    if (!check(intended.ok(), "I2: no intended program after commit")) return;
    const compiler::FabricProgram& prog = *intended.value();
    for (std::size_t s = 0; s < topology.spines; ++s)
      check(fabric->spine(s).program_digest() == prog.spine_digest,
            "I2: spine " + std::to_string(s) + " digest != intended");
    for (std::size_t l = 0; l < topology.leaves; ++l)
      check(fabric->leaf(l).program_digest() == prog.leaf_digests[l],
            "I2: leaf " + std::to_string(l) + " digest != intended");

    auto bound = bind_shadow(schema, shadow);
    if (!check(bound.ok(), "I4: shadow rules failed to bind")) return;
    auto oracle = compiler::compile_rules(schema, bound.value());
    if (!check(oracle.ok(), "I4: oracle batch compile failed")) return;

    for (std::size_t i = 0; i < opts.probe_messages; ++i) {
      ++stats.probes;
      lang::Env env = probe_env(rng);
      const auto got = fabric->deliver_env(env.fields, 1000 + i);
      const lang::ActionSet want_set =
          oracle.value().pipeline.evaluate_actions(env);
      std::vector<std::pair<std::size_t, std::uint16_t>> want;
      want.reserve(want_set.ports.size());
      for (const std::uint16_t p : want_set.ports)
        want.emplace_back(topology.leaf_of(p), p);
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::ostringstream os;
        os << "I4: probe " << i << " delivered " << got.size()
           << " (leaf,port) pairs, oracle says " << want.size();
        violation(os.str());
        return;  // one detailed report per sweep is enough
      }
    }
  }

  // Churn ops ------------------------------------------------------------

  void do_subscribe() {
    const std::uint16_t port =
        rng.chance(0.3) ? static_cast<std::uint16_t>(rng.uniform(1, 8))
                        : next_port++;
    const int prio = static_cast<int>(rng.uniform(0, 3));
    std::string text = gen_rule_text(rng);
    auto sub = ctl->subscribe(port, text, prio);
    if (!check(sub.ok(), "subscribe rejected: " +
                             (sub.ok() ? "" : sub.error().to_string())))
      return;
    if (text.find(':') == std::string::npos)
      text += " : fwd(" + std::to_string(port) + ")";
    shadow.push_back({port, text});
  }

  void do_unsubscribe() {
    if (shadow.empty()) return;
    const std::uint16_t port = shadow[rng.uniform(0, shadow.size() - 1)].port;
    auto removed = ctl->unsubscribe(port);
    if (!check(removed.ok(), "unsubscribe failed")) return;
    // Mirror the controller's filter: drop rules forwarding ONLY to port.
    // Rule texts always end in exactly one fwd(p), so the filter is
    // text-level here.
    const std::string only = ": fwd(" + std::to_string(port) + ")";
    const std::size_t dropped = std::erase_if(shadow, [&](const ShadowSub& s) {
      return s.port == port && s.text.find(only) != std::string::npos;
    });
    check(removed.value() == dropped,
          "unsubscribe removed " + std::to_string(removed.value()) +
              ", shadow dropped " + std::to_string(dropped));
  }

  enum class InstallFlavor { kClean, kFlaky, kPartition, kCrashMidCommit };

  void do_commit_install(InstallFlavor flavor, std::uint64_t salt) {
    auto delta = ctl->commit();
    if (!check(delta.ok(), "commit failed: " +
                               (delta.ok() ? "" : delta.error().to_string())))
      return;
    ++stats.commits;
    const std::vector<std::size_t> touched =
        delta.value().touched(topology.spines);
    trace("commit: ships to " + std::to_string(touched.size()) + " of " +
          std::to_string(topology.switches()) + " switches");
    // A partition needs a switch the install talks to.
    if (flavor == InstallFlavor::kPartition && touched.empty())
      flavor = InstallFlavor::kClean;

    switch (flavor) {
      case InstallFlavor::kClean:
      case InstallFlavor::kFlaky: {
        // A flaky-but-usable channel on every switch (drops, corruption,
        // duplication, reordering): the chunk protocol must still land the
        // whole transaction.
        FaultSpec spec;
        spec.drop = 0.08;
        spec.corrupt = 0.08;
        spec.duplicate = 0.10;
        spec.reorder = 0.10;
        const Plan plan(spec, seed ^ (salt * 0x85ebULL));
        const bool flaky = flavor == InstallFlavor::kFlaky;
        auto report = ctl->install(fabric->targets(), delta.value(),
                                   flaky ? &plan : nullptr);
        if (!check(report.ok(), "install errored")) return;
        ++stats.installs;
        check(report.value().committed,
              std::string("install failed on a ") +
                  (flaky ? "flaky" : "healthy") +
                  " channel: " + report.value().error);
        break;
      }
      case InstallFlavor::kPartition: {
        // Total partition to ONE touched switch: the transaction must abort
        // with ZERO switches modified — atomicity witnessed by digests.
        ++stats.partitions;
        const std::size_t victim =
            touched[rng.uniform(0, touched.size() - 1)];
        const auto before = switch_digests();
        FaultSpec spec;
        spec.drop = 1.0;
        const Plan plan(spec, seed ^ (salt * 0x9e37ULL));
        auto report = ctl->install(fabric->targets(), delta.value(), &plan,
                                   static_cast<int>(victim));
        if (!check(report.ok(), "partitioned install errored")) return;
        ++stats.installs;
        if (check(report.value().all_or_nothing_abort,
                  "partitioned install did not abort all-or-nothing"))
          ++stats.all_or_nothing_aborts;
        check(report.value().committed_switches == 0 &&
                  switch_digests() == before,
              "I2: aborted install modified a switch (atomicity broken)");
        // Heal: the journaled commit is still the intent.
        reconcile("post-partition heal");
        break;
      }
      case InstallFlavor::kCrashMidCommit: {
        // Die once `after` of the touched switches have committed — all of
        // them means dead just before the outcome record.
        ++stats.crashes_mid_commit;
        const std::size_t after = rng.uniform(0, touched.size());
        ctl->set_crash_after_commits(static_cast<int>(after));
        auto report = ctl->install(fabric->targets(), delta.value());
        if (!check(report.ok(), "mid-commit install errored")) return;
        ++stats.installs;
        check(report.value().crashed_mid_commit,
              "crash hook did not fire mid-commit");
        trace("crashed after " + std::to_string(after) + " commits");
        // The controller process is dead: recover a successor and let it
        // repair the mixed fabric.
        crash_controller(/*already_dead=*/true);
        break;
      }
    }
  }

  // Nemesis actions -------------------------------------------------------

  void crash_controller(bool already_dead = false) {
    ++stats.crashes;
    trace(already_dead ? "recover after mid-commit death"
                       : "crash controller");
    deposed_epoch = ctl->epoch();
    if (!already_dead && opts.checkpoint_every > 0 && !used_checkpoint &&
        seed % opts.checkpoint_every == 0 && rng.chance(0.5)) {
      // Checkpoint BEFORE the crash on some scenarios: the recovery then
      // replays from the snapshot (fresh state numbering).
      if (ctl->checkpoint().ok()) {
        ++stats.checkpoints;
        used_checkpoint = true;
      }
    }
    // Kill the process: unsynced bytes vanish except for a torn tail.
    storage.crash(rng.uniform(0, 16));
    ctl.reset();  // the process died: nothing of it outlives the crash
    ctl = std::make_unique<DurableController>(spec::make_itch_schema(),
                                              storage, topology);
    auto info = ctl->open();
    if (!check(info.ok(), "recovery open() failed: " +
                              (info.ok() ? "" : info.error().to_string())))
      return;
    if (info.value().from_snapshot) ++stats.recoveries_from_snapshot;
    check_recovery(info.value());
    // Warm-boot reconciliation: fence every switch, repair divergence from
    // any half-done install the crash left behind.
    reconcile("post-crash");
  }

  void reboot_leaf() {
    ++stats.leaf_reboots;
    const std::size_t l = rng.uniform(0, topology.leaves - 1);
    trace("reboot leaf " + std::to_string(l));
    fabric->reboot_leaf(l);
    reconcile("post-leaf-reboot");
  }

  void reboot_spine() {
    ++stats.spine_reboots;
    const std::size_t s = rng.uniform(0, topology.spines - 1);
    trace("reboot spine " + std::to_string(s));
    fabric->reboot_spine(s);
    reconcile("post-spine-reboot");
  }

  void stale_write() {
    if (!deposed_epoch) return;
    ++stats.stale_writes;
    // The deposed controller retries its last write on a random switch: a
    // full reprogram with a garbage (empty) image.
    const std::size_t i = rng.uniform(0, topology.switches() - 1);
    switchsim::Switch& sw = switch_at(i);
    const std::uint64_t before = sw.program_version();
    auto rejected = sw.commit(sw.stage(table::Pipeline{}), *deposed_epoch);
    const bool bounced = !rejected.ok() && rejected.error().code == "E140" &&
                         sw.program_version() == before;
    if (bounced) ++stats.stale_rejected;
    check(bounced, "I3: stale-epoch write landed on switch " +
                       std::to_string(i));
  }

  void run() {
    auto opened = ctl->open();
    if (!check(opened.ok(), "initial open() failed")) return;
    // An empty tier has nothing to reboot.
    const std::uint32_t spine_reboots =
        topology.spines > 0 ? opts.spine_reboot_per_mille : 0;
    for (std::size_t step = 0; step < opts.steps; ++step) {
      ++stats.steps;
      if (!shadow.empty() && rng.chance(0.25))
        do_unsubscribe();
      else
        do_subscribe();

      if ((step + 1) % opts.commit_every == 0) {
        const std::uint32_t roll =
            static_cast<std::uint32_t>(rng.uniform(0, 999));
        InstallFlavor flavor = InstallFlavor::kClean;
        if (roll < opts.partition_per_mille)
          flavor = InstallFlavor::kPartition;
        else if (roll < opts.partition_per_mille +
                            opts.crash_mid_commit_per_mille)
          flavor = InstallFlavor::kCrashMidCommit;
        else if (rng.chance(0.5))
          flavor = InstallFlavor::kFlaky;
        do_commit_install(flavor, step);
      }

      const std::uint32_t roll =
          static_cast<std::uint32_t>(rng.uniform(0, 999));
      if (roll < opts.crash_per_mille) {
        crash_controller();
      } else if (roll < opts.crash_per_mille + opts.leaf_reboot_per_mille) {
        reboot_leaf();
      } else if (roll < opts.crash_per_mille + opts.leaf_reboot_per_mille +
                            spine_reboots) {
        reboot_spine();
      } else if (roll < opts.crash_per_mille + opts.leaf_reboot_per_mille +
                            spine_reboots + opts.stale_write_per_mille) {
        stale_write();
      }
    }

    // Scenario epilogue: converge and audit every switch.
    do_commit_install(InstallFlavor::kClean, opts.steps + 1);
    reconcile("final");
    check_installed();
  }
};

}  // namespace

std::string NemesisStats::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"scenarios\": " << scenarios << ",\n"
     << "  \"steps\": " << steps << ",\n"
     << "  \"commits\": " << commits << ",\n"
     << "  \"installs\": " << installs << ",\n"
     << "  \"crashes\": " << crashes << ",\n"
     << "  \"crashes_mid_commit\": " << crashes_mid_commit << ",\n"
     << "  \"recoveries_from_snapshot\": " << recoveries_from_snapshot
     << ",\n"
     << "  \"leaf_reboots\": " << leaf_reboots << ",\n"
     << "  \"spine_reboots\": " << spine_reboots << ",\n"
     << "  \"partitions\": " << partitions << ",\n"
     << "  \"all_or_nothing_aborts\": " << all_or_nothing_aborts << ",\n"
     << "  \"stale_writes\": " << stale_writes << ",\n"
     << "  \"stale_rejected\": " << stale_rejected << ",\n"
     << "  \"reconciles\": " << reconciles << ",\n"
     << "  \"repairs\": " << repairs << ",\n"
     << "  \"full_reprograms\": " << full_reprograms << ",\n"
     << "  \"repair_ops\": " << repair_ops << ",\n"
     << "  \"checkpoints\": " << checkpoints << ",\n"
     << "  \"probes\": " << probes << ",\n"
     << "  \"violations\": " << violations << "\n"
     << "}";
  return os.str();
}

NemesisStats run_nemesis(const NemesisOptions& opts) {
  NemesisStats stats;
  if (!compiler::FabricSpec{opts.leaves, opts.spines}.valid()) {
    ++stats.violations;
    stats.violation_details.push_back(
        "F151: topology needs at least one leaf, and at least one spine "
        "unless it is the single switch (0 spines x 1 leaf)");
    return stats;
  }
  for (std::size_t i = 0; i < opts.scenarios; ++i) {
    ++stats.scenarios;
    Scenario sc(opts, stats, opts.seed + i);
    sc.run();
  }
  return stats;
}

}  // namespace camus::fault
