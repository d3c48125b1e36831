// Camus benchmark: one workload, one seed, one run.
//
//   camus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--tiny] [--perturb]
//
// A run generates its inputs from the seed, cold-compiles the workload's
// subscriptions, builds a switch and then drives Switch::process_batch in a
// closed loop (64-frame calls of 4-message frames) and the live update path
// (IncrementalCompiler::commit + TwoPhaseInstaller::apply_delta). Outputs
// are checked against lang::brute_eval_rules. End-to-end times are scaled
// by a host-speed calibration factor (Calibrator). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set measured from spans around each layer's public calls.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "proto/packet.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "table/compiled.hpp"
#include "table/delta.hpp"
#include "util/flat_map.hpp"
#include "util/mem.hpp"

using namespace camus;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
  bool perturb = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string_view(argv[++i]) == "1";
    } else if (k == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--perturb") {
      a.perturb = true;
    } else {
      return false;
    }
  }
  return have_workload && a.seconds > 0;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// Timed process_batch calls.
struct CallLog {
  std::vector<double> ns;
  std::vector<std::uint32_t> msgs;

  void add(double call_ns, std::uint32_t n) {
    ns.push_back(call_ns);
    msgs.push_back(n);
  }
  // Ingress messages per second of call time. A total, not a median of
  // blocks: the host's speed shifts in phases of seconds, and a total moves
  // smoothly with the share of time spent in each.
  double msgs_per_s() const {
    double t = 0, m = 0;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      t += ns[i];
      m += msgs[i];
    }
    return t > 0 ? m * 1e9 / t : 0;
  }
  // Message-weighted percentile of per-message call cost: each call counts
  // call_ns / msgs with weight msgs (netsim::per_message_latency semantics).
  double msg_ns(double q) const {
    std::vector<std::pair<double, std::uint32_t>> v;
    v.reserve(ns.size());
    double total = 0;
    for (std::size_t i = 0; i < ns.size(); ++i) {
      if (msgs[i] == 0) continue;
      v.emplace_back(ns[i] / msgs[i], msgs[i]);
      total += msgs[i];
    }
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double acc = 0;
    for (const auto& [x, w] : v) {
      acc += w;
      if (acc >= q * total) return x;
    }
    return v.back().first;
  }
};

compiler::CompileOptions scale_options() {
  // The options the repository ships for large subscription sets:
  // symbol-first order (what the hot-key memo keys on), partitioned output
  // above partition_min_rules, entry interning. The compile is serial (the
  // default): at 1,000-2,000 rules the sharded compile is slower than one
  // thread and its worker wake-ups add jitter on a shared host.
  compiler::CompileOptions o;
  o.order = bdd::OrderHeuristic::kExactFirst;
  o.partition = compiler::PartitionMode::kAuto;
  o.intern_entries = true;
  return o;
}

// Out-of-engine replay of one batch through each data-plane layer's public
// call, so the trace can attribute process_batch time. Mirrors the batched
// engine's passes: scan, extract, memo/prefix, finish, re-frame. The memo is
// emulated with the engine's geometry (4,096 direct-mapped slots keyed by
// the prefix-key words).
class DataPlaneReplay {
 public:
  explicit DataPlaneReplay(const spec::Schema& schema)
      : extractor_(schema), memo_(kMemoSlots) {}

  void run(Tracer& tr, std::uint64_t id, switchsim::Switch& sw,
           const std::vector<switchsim::Switch::Frame>& frames) {
    const table::CompiledPipeline& cp = sw.compiled();
    if (cp.prefix_signature() != memo_sig_) {
      for (auto& s : memo_) s.used = false;
      memo_sig_ = cp.prefix_signature();
    }
    const std::vector<std::uint64_t> snap =
        sw.registers().snapshot(frames.empty() ? 0 : frames.front().now_us);

    views_.resize(frames.size());
    offsets_.clear();
    ranges_.resize(frames.size());
    {
      Scope s(&tr, "proto.scan", id);
      for (std::size_t f = 0; f < frames.size(); ++f) {
        const auto begin = static_cast<std::uint32_t>(offsets_.size());
        proto::scan_market_data_packet(frames[f].data, views_[f], offsets_);
        ranges_[f] = {begin, static_cast<std::uint32_t>(offsets_.size())};
      }
    }
    const std::size_t n = offsets_.size();
    if (rows_.size() < n) rows_.resize(n);
    states_.resize(n);
    actions_.resize(n);
    {
      Scope s(&tr, "switchsim.extract", id);
      for (std::size_t f = 0; f < frames.size(); ++f)
        for (std::uint32_t i = ranges_[f].first; i < ranges_[f].second; ++i)
          extractor_.extract_wire(frames[f].data.data() + offsets_[i],
                                  rows_[i]);
    }
    {
      Scope s(&tr, "table.prefix", id);
      const std::size_t np = cp.prefix_stages();
      for (std::size_t i = 0; i < n; ++i) {
        if (np == 0) {
          states_[i] = cp.run_prefix(rows_[i], snap);
          continue;
        }
        std::array<std::uint64_t, table::CompiledPipeline::kMaxPrefix> key{};
        cp.prefix_key(rows_[i], snap, key.data());
        std::uint64_t h = 0;
        for (std::size_t k = 0; k < np; ++k) h = util::mix64(h ^ key[k]);
        MemoSlot& slot = memo_[h & (kMemoSlots - 1)];
        if (slot.used && slot.key == key) {
          states_[i] = slot.state;
        } else {
          states_[i] = cp.run_prefix(rows_[i], snap);
          slot = {key, states_[i], true};
        }
      }
    }
    {
      Scope s(&tr, "table.finish", id);
      for (std::size_t i = 0; i < n; ++i)
        actions_[i] = cp.actions(cp.finish(states_[i], rows_[i], snap));
    }
    // Egress bucketing is left unattributed, as in the engine's merge.
    packets_.clear();
    for (std::size_t f = 0; f < frames.size(); ++f) {
      std::vector<std::pair<std::uint16_t, std::vector<std::uint32_t>>> b;
      for (std::uint32_t i = ranges_[f].first; i < ranges_[f].second; ++i) {
        if (!actions_[i]) continue;
        for (std::uint16_t p : actions_[i]->ports) {
          auto it = std::find_if(b.begin(), b.end(),
                                 [p](const auto& e) { return e.first == p; });
          if (it == b.end()) it = b.insert(b.end(), {p, {}});
          it->second.push_back(offsets_[i]);
        }
      }
      for (auto& [port, offs] : b) packets_.push_back({f, std::move(offs)});
    }
    {
      Scope s(&tr, "proto.reframe", id);
      for (const auto& [f, offs] : packets_)
        proto::build_market_frame_raw(views_[f], frames[f].data, offs, out_);
    }
    reframed_ += packets_.size();
  }

  std::uint64_t reframed() const noexcept { return reframed_; }

 private:
  static constexpr std::size_t kMemoSlots = 4096;
  struct MemoSlot {
    std::array<std::uint64_t, table::CompiledPipeline::kMaxPrefix> key{};
    std::uint32_t state = 0;
    bool used = false;
  };

  switchsim::ItchFieldExtractor extractor_;
  std::vector<MemoSlot> memo_;
  std::uint64_t memo_sig_ = 0;
  std::vector<proto::MarketDataView> views_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges_;
  std::vector<std::vector<std::uint64_t>> rows_;
  std::vector<std::uint32_t> states_;
  std::vector<const lang::ActionSet*> actions_;
  std::vector<std::pair<std::size_t, std::vector<std::uint32_t>>> packets_;
  std::vector<std::uint8_t> out_;
  std::uint64_t reframed_ = 0;
};

// Subscriptions live on the switch, by churn slot.
class LiveSet {
 public:
  void add(std::size_t slot, lang::BoundRule rule) {
    index_[slot] = rules_.size();
    slots_.push_back(slot);
    rules_.push_back(std::move(rule));
  }
  void remove(std::size_t slot) {
    const std::size_t i = index_.at(slot);
    index_.erase(slot);
    if (i + 1 != rules_.size()) {
      rules_[i] = std::move(rules_.back());
      slots_[i] = slots_.back();
      index_[slots_[i]] = i;
    }
    rules_.pop_back();
    slots_.pop_back();
  }
  const std::vector<lang::BoundRule>& rules() const noexcept { return rules_; }
  const std::vector<std::size_t>& slots() const noexcept { return slots_; }

 private:
  std::vector<lang::BoundRule> rules_;
  std::vector<std::size_t> slots_;
  std::unordered_map<std::size_t, std::size_t> index_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload selective|churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] [--tiny] "
                 "[--perturb]\n",
                 argv[0]);
    return 2;
  }
  WorkloadSpec w;
  if (!find_workload(args.workload, args.tiny, w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const spec::Schema schema = spec::make_itch_schema();
  const compiler::CompileOptions copts = scale_options();

  // Every time metric of the end-to-end set is calibrated: each set-up and
  // each round starts with a calibration sample, and the times measured
  // after it are scaled by its factor (see Calibrator). The raw figures go
  // to the info record.
  Calibrator calib;

  // --- set-up: generation, cold compile, switch build, warm-up -----------
  // Repeated 15 times, each after dropping the previous one's inputs and
  // switch; setup_s is their median.
  const std::size_t setups = args.tiny ? 1 : 15;
  std::vector<double> setup_s, raw_setup_s;
  std::unique_ptr<Inputs> in;
  std::optional<switchsim::Switch> sw;
  for (std::size_t k = 0; k < setups; ++k) {
    sw.reset();
    in.reset();
    const double f = calib.sample();
    const std::int64_t t0 = now_ns();
    in = std::make_unique<Inputs>(schema, w, args.seed);
    auto compiled = compiler::compile_rules(schema, in->churn.base(), copts);
    if (!compiled.ok()) {
      std::fprintf(stderr, "cold compile failed: %s\n",
                   compiled.error().to_string().c_str());
      return 1;
    }
    sw.emplace(schema, std::move(compiled.value().pipeline));
    const std::size_t warm = std::min<std::size_t>(in->batches.size(), 64);
    for (std::size_t b = 0; b < warm; ++b) sw->process_batch(in->batches[b]);
    raw_setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_s.push_back(raw_setup_s.back() * f);
  }
  Tracer tracer(args.trace ? 20000 : 0);
  DataPlaneReplay replay(schema);
  Checker checker(schema, in->feed, args.perturb);
  LiveSet live;
  for (std::size_t slot = 0; slot < in->churn.base().size(); ++slot)
    live.add(slot, in->churn.base()[slot]);
  // Quiet workloads keep the cold-compiled program on `sw` for the quiet
  // segments, and drive updates into a control-plane switch that starts
  // empty and holds only what the incremental compiler installs; quiet
  // segments and updates then alternate for the whole run. Churn updates
  // the one switch its data plane runs on.
  compiler::CompileOptions iopts;
  iopts.order = bdd::OrderHeuristic::kExactFirst;
  std::optional<switchsim::Switch> ctl;
  if (w.quiet) {
    auto empty = compiler::compile_rules(schema, {}, iopts);
    if (!empty.ok()) {
      std::fprintf(stderr, "empty compile failed: %s\n",
                   empty.error().to_string().c_str());
      return 1;
    }
    ctl.emplace(schema, std::move(empty.value().pipeline));
  }
  switchsim::Switch& dp_sw = *sw;
  switchsim::Switch& ctl_sw = w.quiet ? *ctl : *sw;

  // attempted counts checked operations: oracle-checked messages (in the
  // Checker), digest-checked quiet batches and updates.
  std::uint64_t digest_checks = 0, update_attempts = 0, failed = 0;
  CallLog calls, cal_calls, traced_calls;
  double factor = 1;  // calibration factor of the current round
  // Data-plane totals over logged calls.
  std::uint64_t dp_msgs = 0, dp_tx_copies = 0, dp_tx_bytes = 0,
                dp_memo_probes = 0, dp_memo_hits = 0, traced_msgs = 0,
                traced_frames = 0;
  const std::size_t nb = in->batches.size();
  std::uint64_t batch_id = 0;

  // One process_batch call; logged calls are timed into the data-plane
  // figures, and traced ones also get the layer replay.
  auto run_batch = [&](switchsim::Switch& target, std::size_t b, bool traced,
                       bool logged) {
    const auto& frames = in->batches[b];
    const std::uint64_t copies0 = target.counters().tx_copies;
    const switchsim::BatchStats memo0 = target.batch_stats();
    std::vector<switchsim::Switch::TxPacket> out;
    if (traced && logged) {
      Scope root(&tracer, "dataplane.batch", batch_id);
      // The traced call's time includes its span's bookkeeping, so
      // trace.overhead_frac shows what tracing costs.
      const std::int64_t t0 = now_ns();
      {
        Scope s(&tracer, "switchsim.process_batch", batch_id);
        out = target.process_batch(frames);
      }
      traced_calls.add(static_cast<double>(now_ns() - t0), in->batch_msgs[b]);
      traced_msgs += in->batch_msgs[b];
      traced_frames += frames.size();
      replay.run(tracer, batch_id, target, frames);
    } else {
      const std::int64_t t0 = now_ns();
      out = target.process_batch(frames);
      if (logged) {
        const auto ns = static_cast<double>(now_ns() - t0);
        calls.add(ns, in->batch_msgs[b]);
        cal_calls.add(ns * factor, in->batch_msgs[b]);
      }
    }
    ++batch_id;
    if (logged) {
      dp_msgs += in->batch_msgs[b];
      dp_tx_copies += target.counters().tx_copies - copies0;
      for (const auto& tx : out) dp_tx_bytes += tx.frame.size();
      dp_memo_probes += target.batch_stats().memo_probes - memo0.memo_probes;
      dp_memo_hits += target.batch_stats().memo_hits - memo0.memo_hits;
    }
    return out;
  };

  // --- verification pass: the whole feed once under the cold-compiled
  // program, digested per batch and oracle-checked; untimed ---
  std::uint64_t output_digest = 0xcbf29ce484222325ULL;
  std::vector<std::uint64_t> batch_digest(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const auto out = run_batch(dp_sw, b, false, false);
    batch_digest[b] = egress_digest(out);
    output_digest = egress_digest(out, output_digest);
    failed += checker.check(*in, b, out, live.rules());
  }

  // --- control plane ------------------------------------------------------
  // Updates run in episodes of kEpisodeUpdates. Each episode attaches a
  // fresh IncrementalCompiler to the running program: it takes the live
  // rules, uses the installed program as its diff base (restore_installed)
  // and makes one rebase commit (control.attach_ms). The compiler's state
  // only grows (BDD nodes, state ids), so update cost and memory climb
  // within an episode; short episodes bound the climb, so the high
  // percentiles come from the whole run rather than from its last seconds.
  constexpr std::size_t kEpisodeUpdates = 20;
  std::optional<compiler::IncrementalCompiler> inc_slot;
  std::unordered_map<std::size_t, compiler::IncrementalCompiler::SubscriptionId>
      ids;
  pubsub::TwoPhaseInstaller installer(ctl_sw);

  // Commit + install; returns false when the update did not land.
  auto commit_and_install = [&](double& commit_ms, double& install_ms,
                                compiler::IncrementalCompiler::Delta& delta,
                                std::shared_ptr<const table::Pipeline>* before,
                                std::uint64_t id, bool traced) {
    Tracer* tr = traced ? &tracer : nullptr;
    std::int64_t t0 = now_ns();
    {
      Scope s(tr, "compiler.commit", id);
      auto d = inc_slot->commit();
      if (!d.ok()) return false;
      delta = std::move(d.value());
    }
    commit_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (before) *before = installer.active();
    t0 = now_ns();
    pubsub::InstallReport rep;
    {
      Scope s(tr, "pubsub.install", id);
      rep = delta.requires_reprogram
                ? installer.install(*inc_slot->pipeline().value())
                : installer.apply_delta(delta.ops);
    }
    install_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (!rep.committed) inc_slot->restore_installed(*installer.active());
    return rep.committed;
  };

  std::vector<double> attach_ms;
  auto attach = [&] {
    inc_slot.reset();
    inc_slot.emplace(schema, iopts);
    ids.clear();
    for (std::size_t k = 0; k < live.rules().size(); ++k)
      ids[live.slots()[k]] = inc_slot->add(live.rules()[k]);
    inc_slot->restore_installed(*installer.active());
    double c = 0, i = 0;
    compiler::IncrementalCompiler::Delta d;
    if (!commit_and_install(c, i, d, nullptr, 0, false)) return false;
    attach_ms.push_back(c + i);
    return true;
  };
  if (!attach()) {
    std::fprintf(stderr, "control-plane attach failed\n");
    return 1;
  }

  // --- measured rounds: [cold compile] [quiet segment] update + batches ---
  // In a traced run every kCompileEvery-th round starts with a cold
  // compile of the workload's subscription set (compiler.compile_s is their
  // median), so compiles sample the whole run. The untraced run compiles
  // only in its set-ups, so its peak RSS is the larger of one set-up's and
  // the steady state's working set. A quiet segment is this round's share of
  // --seconds on the cold-compiled switch; its first batches after the
  // round's compile, update and calibration sample are not logged, so the
  // figures describe the steady state, not cache refill. Traced runs trace
  // every other round.
  constexpr std::size_t kSettleBatches = 2;
  constexpr std::size_t kCompileEvery = 4;
  const std::size_t rounds = w.updates(args.seconds);
  const auto quiet_ns = static_cast<std::int64_t>(
      args.seconds * 1e9 / static_cast<double>(rounds));
  std::vector<double> compile_s, update_ms, raw_update_ms, ops_v, reuse_v;
  // Update times by op kind (index: subscribe). An unsubscribe costs about
  // twice a subscribe, so a median over both would fall between two modes
  // and move with each seed's mix of kinds; each kind's median does not.
  std::vector<double> kind_ms[2], raw_kind_ms[2];
  std::vector<compiler::CompileStats> compile_stats;
  std::size_t reprograms = 0, memo_kept = 0, updates = 0;
  std::size_t quiet_cursor = 0, live_cursor = 0, fill_cursor = 0;
  for (; updates < rounds; ++updates) {
    const bool traced = args.trace && updates % 2 == 1;
    factor = calib.sample();
    const std::int64_t round_end = now_ns() + quiet_ns;
    if (updates > 0 && updates % kEpisodeUpdates == 0 && !attach()) {
      std::fprintf(stderr, "control-plane attach failed\n");
      return 1;
    }
    if (args.trace && updates % kCompileEvery == 0) {
      const std::int64_t t0 = now_ns();
      auto again = compiler::compile_rules(schema, in->churn.base(), copts);
      if (!again.ok()) {
        std::fprintf(stderr, "cold compile failed: %s\n",
                     again.error().to_string().c_str());
        return 1;
      }
      compile_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      compile_stats.push_back(again.value().stats);
    }
    if (w.quiet) {
      const std::int64_t until = now_ns() + quiet_ns;
      for (std::size_t k = 0; now_ns() < until; ++k) {
        const auto out =
            run_batch(dp_sw, quiet_cursor, traced, k >= kSettleBatches);
        // The same frames under the same program must give the same bytes.
        ++digest_checks;
        if (egress_digest(out) != batch_digest[quiet_cursor]) ++failed;
        if (++quiet_cursor == nb) quiet_cursor = 0;
      }
    }

    auto op = in->churn.next();
    const bool subscribe = op.subscribe;
    if (op.subscribe) {
      ids[op.slot] = inc_slot->add(op.rule);
      live.add(op.slot, std::move(op.rule));
    } else {
      inc_slot->remove(ids.at(op.slot));
      ids.erase(op.slot);
      live.remove(op.slot);
    }
    const std::uint64_t sig_before = ctl_sw.compiled().prefix_signature();
    double c = 0, i = 0;
    compiler::IncrementalCompiler::Delta delta;
    std::shared_ptr<const table::Pipeline> before;
    bool ok;
    {
      Scope root(traced ? &tracer : nullptr, "control.update", updates);
      ok = commit_and_install(c, i, delta, &before, updates, traced);
      if (ok && traced && !delta.requires_reprogram) {
        // The install's layers, replayed on the same delta.
        {
          Scope s(&tracer, "table.ops_codec", updates);
          const auto parsed =
              table::deserialize_ops(table::serialize_ops(delta.ops));
          if (!parsed.ok()) ok = false;
        }
        table::Pipeline copy = *before;
        {
          Scope s(&tracer, "table.apply_ops", updates);
          if (!table::apply_ops(copy, delta.ops).ok()) ok = false;
        }
        {
          Scope s(&tracer, "table.lower", updates);
          const table::CompiledPipeline lowered(copy);
          if (!lowered.valid()) ok = false;
        }
      }
    }
    ++update_attempts;
    if (!ok) {
      ++failed;
      continue;
    }
    raw_update_ms.push_back(c + i);
    update_ms.push_back((c + i) * factor);
    raw_kind_ms[subscribe].push_back(c + i);
    kind_ms[subscribe].push_back((c + i) * factor);
    ops_v.push_back(static_cast<double>(delta.ops.size()));
    reuse_v.push_back(delta.reuse_fraction());
    reprograms += delta.requires_reprogram;
    memo_kept += ctl_sw.compiled().prefix_signature() == sig_before;

    for (std::size_t k = 0; k < w.batches_per_update; ++k) {
      const auto out = run_batch(ctl_sw, live_cursor, traced, !w.quiet);
      if (k == 0) failed += checker.check(*in, live_cursor, out, live.rules());
      if (++live_cursor == nb) live_cursor = 0;
    }
    // A churn round lasts its share of --seconds: until the next op is due
    // the updated switch keeps forwarding, untimed, from a cursor of its
    // own, so which batches are timed does not depend on the host's speed.
    if (!w.quiet) {
      while (now_ns() < round_end) {
        run_batch(ctl_sw, fill_cursor, false, false);
        if (++fill_cursor == nb) fill_cursor = 0;
      }
    }
  }
  // Traced updates' install split (means, so the parts add up; a reprogram
  // install has no op replay and its time stays unattributed).
  const std::size_t traced_updates = tracer.count("pubsub.install");
  auto per_update_ms = [&](const char* name) {
    return traced_updates ? tracer.self_ns(name) * 1e-6 /
                                static_cast<double>(traced_updates)
                          : 0.0;
  };

  const double memo_hit_rate =
      dp_memo_probes ? static_cast<double>(dp_memo_hits) /
                           static_cast<double>(dp_memo_probes)
                     : 0;
  const double tx_copies_per_msg =
      dp_msgs ? static_cast<double>(dp_tx_copies) / static_cast<double>(dp_msgs)
              : 0;
  const double peak_rss_mb =
      static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"msgs_per_s", cal_calls.msgs_per_s(), "msg/s"},
        {"msg_ns_p50", cal_calls.msg_ns(0.50), "ns"},
        {"msg_ns_p99", cal_calls.msg_ns(0.99), "ns"},
        {"subscribe_ms_p50", percentile(kind_ms[1], 0.50), "ms"},
        {"unsubscribe_ms_p50", percentile(kind_ms[0], 0.50), "ms"},
        {"update_ms_p90", percentile(update_ms, 0.90), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // The compile whose total time is the median stands for the phase split.
    std::vector<std::size_t> order(compile_stats.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return compile_s[a] < compile_s[b];
    });
    const compiler::CompileStats& cs = compile_stats[order[order.size() / 2]];
    const double tm = static_cast<double>(std::max<std::uint64_t>(traced_msgs, 1));
    const double pb = tracer.self_ns("switchsim.process_batch");
    const double scan = tracer.self_ns("proto.scan");
    const double extract = tracer.self_ns("switchsim.extract");
    const double prefix = tracer.self_ns("table.prefix");
    const double finish = tracer.self_ns("table.finish");
    const double reframe = tracer.self_ns("proto.reframe");
    const double untraced_rate = calls.msgs_per_s();
    const double traced_rate = traced_calls.msgs_per_s();
    const double install = per_update_ms("pubsub.install");
    const double codec = per_update_ms("table.ops_codec");
    const double apply = per_update_ms("table.apply_ops");
    const double lower = per_update_ms("table.lower");
    const double nupd = static_cast<double>(std::max<std::size_t>(update_ms.size(), 1));
    metrics = {
        {"proto.scan_ns_per_frame",
         scan / static_cast<double>(std::max<std::uint64_t>(traced_frames, 1)), "ns"},
        {"switchsim.extract_ns_per_msg", extract / tm, "ns"},
        {"table.prefix_ns_per_msg", prefix / tm, "ns"},
        {"table.finish_ns_per_msg", finish / tm, "ns"},
        {"proto.reframe_ns_per_pkt",
         reframe / static_cast<double>(std::max<std::uint64_t>(replay.reframed(), 1)),
         "ns"},
        {"switchsim.process_batch_ns_per_msg", pb / tm, "ns"},
        {"dataplane.unattributed_ns_per_msg",
         (pb - scan - extract - prefix - finish - reframe) / tm, "ns"},
        {"switchsim.memo_hit_rate", memo_hit_rate, "ratio"},
        {"switchsim.tx_copies_per_msg", tx_copies_per_msg, "count"},
        {"switchsim.tx_bytes_per_msg",
         dp_msgs ? static_cast<double>(dp_tx_bytes) / static_cast<double>(dp_msgs) : 0,
         "B"},
        {"trace.msgs_per_s_untraced", untraced_rate, "msg/s"},
        {"trace.msgs_per_s_traced", traced_rate, "msg/s"},
        {"trace.overhead_frac",
         untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0, "ratio"},
        {"compiler.compile_s", median(compile_s), "s"},
        {"compiler.flatten_s", cs.t_flatten, "s"},
        {"compiler.build_s", cs.t_build, "s"},
        {"compiler.union_s", cs.t_union, "s"},
        {"compiler.prune_s", cs.t_prune, "s"},
        {"compiler.tables_s", cs.t_tables, "s"},
        {"compiler.entries", static_cast<double>(cs.total_entries), "count"},
        {"bdd.unique_nodes", static_cast<double>(cs.cache.unique_nodes), "count"},
        {"bdd.memo_hit_rate", cs.cache.memo_hit_rate(), "ratio"},
        {"control.attach_ms", mean(attach_ms), "ms"},
        {"compiler.commit_ms", per_update_ms("compiler.commit"), "ms"},
        {"pubsub.install_ms", install, "ms"},
        {"table.ops_codec_ms", codec, "ms"},
        {"table.apply_ops_ms", apply, "ms"},
        {"table.lower_ms", lower, "ms"},
        {"pubsub.install_unattributed_ms", install - codec - apply - lower, "ms"},
        {"control.ops_per_update", mean(ops_v), "count"},
        {"control.reuse_fraction", mean(reuse_v), "ratio"},
        {"control.reprogram_frac", static_cast<double>(reprograms) / nupd, "ratio"},
        {"switchsim.memo_survival", static_cast<double>(memo_kept) / nupd, "ratio"},
        {"host.calib_ns", calib.median_ns(), "ns"},
    };
    if (!args.trace_out.empty() && !tracer.flush(args.trace_out))
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.trace_out.c_str());
  }

  const std::uint64_t attempted =
      checker.checked() + digest_checks + update_attempts;
  // Context line: everything a reader needs to reproduce or audit the run.
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"output_digest\": \"%016llx\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"rules\": %zu, \"feed_messages\": %zu, "
      "\"batch_calls\": %zu, \"messages\": %llu, \"updates\": %zu, "
      "\"checked_messages\": %llu, \"digest_checked_batches\": %llu, "
      "\"error_rate\": %.6g, "
      "\"memo_hit_rate\": %.4f, \"tx_copies_per_msg\": %.3f, "
      "\"calib_ns\": %.1f, \"calib_sink\": %llu, \"raw_msgs_per_s\": %.6g, "
      "\"raw_msg_ns_p50\": %.6g, \"raw_msg_ns_p99\": %.6g, "
      "\"raw_subscribe_ms_p50\": %.6g, \"raw_unsubscribe_ms_p50\": %.6g, "
      "\"raw_update_ms_p90\": %.6g, "
      "\"raw_setup_s\": %.6g}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, static_cast<unsigned long long>(output_digest),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, in->churn.base().size(), in->feed.messages.size(),
      calls.ns.size() + traced_calls.ns.size(),
      static_cast<unsigned long long>(dp_msgs), updates,
      static_cast<unsigned long long>(checker.checked()),
      static_cast<unsigned long long>(digest_checks),
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0,
      memo_hit_rate, tx_copies_per_msg, calib.median_ns(),
      static_cast<unsigned long long>(calib.sink()), calls.msgs_per_s(),
      calls.msg_ns(0.50), calls.msg_ns(0.99), percentile(raw_kind_ms[1], 0.50),
      percentile(raw_kind_ms[0], 0.50), percentile(raw_update_ms, 0.90),
      median(raw_setup_s));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}
