#include "verify/fuzz_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "baseline/matcher.hpp"
#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "fault/injector.hpp"
#include "lang/dnf.hpp"
#include "lang/eval.hpp"
#include "lang/parser.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/switch.hpp"
#include "table/compiled.hpp"
#include "util/json.hpp"
#include "verify/equivalence.hpp"
#include "verify/pipeline_lint.hpp"
#include "verify/subscriptions.hpp"

namespace camus::verify {

namespace {

using workload::FuzzProbe;
using workload::FuzzSample;

compiler::CompileOptions compile_opts(const FuzzSample& s) {
  compiler::CompileOptions o;
  o.domain_compression = s.compress;
  return o;
}

std::string hint(const FuzzSample& s) {
  return workload::fuzz_repro_hint(s.seed, s.index);
}

// One divergence message: mode, probe provenance, the disagreeing oracle,
// both ActionSets, the environment, and the one-line repro command.
void diverge(FuzzCaseResult& res, FuzzMode mode, std::string what,
             std::optional<std::size_t> probe = std::nullopt) {
  res.diverged = true;
  res.mode = mode;
  res.probe = probe;
  res.detail = "[" + std::string(to_string(mode)) + "] " + std::move(what);
}

std::string env_str(const lang::Env& env, const spec::Schema& schema) {
  return render_env(env, schema);
}

std::string mismatch_str(std::string_view oracle, const lang::ActionSet& got,
                         const lang::ActionSet& want, std::size_t probe,
                         const lang::Env& env, const spec::Schema& schema,
                         const FuzzSample& s) {
  std::ostringstream os;
  os << "probe " << probe << ": " << oracle << " => " << got.to_string()
     << " want " << want.to_string() << " (brute-force AST); env: "
     << env_str(env, schema) << "; repro: " << hint(s);
  return os.str();
}

// Binder sanity shared by every mode: each generated rule must bind.
bool check_bound(const spec::Schema& schema, const FuzzSample& s,
                 FuzzCaseResult& res, FuzzMode mode) {
  if (s.bound.size() == s.rules.size()) return true;
  std::string detail = "generated rule failed to bind: ";
  for (const auto& r : s.rules) {
    auto b = lang::bind_rule(r, schema);
    if (!b.ok()) {
      detail += "'" + r.to_string() + "': " + b.error().to_string();
      break;
    }
  }
  diverge(res, mode, detail + "; repro: " + hint(s));
  return false;
}

// --- direct mode -------------------------------------------------------

void run_direct(const spec::Schema& schema, const FuzzSample& s,
                FuzzCaseResult& res) {
  if (!check_bound(schema, s, res, FuzzMode::kDirect)) return;

  // Printer/parser round trip: the printed sample must re-parse to the
  // same AST (print is injective up to itself — fixed point).
  auto parsed = lang::parse_rules(s.source());
  if (!parsed.ok()) {
    diverge(res, FuzzMode::kDirect,
            "printed sample rejected by parser: " +
                parsed.error().to_string() + "; repro: " + hint(s));
    return;
  }
  if (parsed.value().size() != s.rules.size()) {
    diverge(res, FuzzMode::kDirect,
            "printed sample re-parsed to a different rule count; repro: " +
                hint(s));
    return;
  }
  for (std::size_t i = 0; i < s.rules.size(); ++i) {
    if (parsed.value()[i].to_string() != s.rules[i].to_string()) {
      diverge(res, FuzzMode::kDirect,
              "rule " + std::to_string(i) +
                  " print/parse round trip not a fixed point: '" +
                  s.rules[i].to_string() + "' vs '" +
                  parsed.value()[i].to_string() + "'; repro: " + hint(s));
      return;
    }
  }

  auto compiled = compiler::compile_rules(schema, s.bound, compile_opts(s));
  if (!compiled.ok()) {
    diverge(res, FuzzMode::kDirect,
            "compile failed on a valid sample: " +
                compiled.error().to_string() + "; repro: " + hint(s));
    return;
  }
  const compiler::Compiled& c = compiled.value();

  // Scale-out rewrites under the same oracle: the interned (state-
  // minimized) pipeline and the partitioned/stitched pipeline must
  // classify every probe exactly like the plain compile. kForce with
  // partition_min_rules=0 takes the partitioned path whenever the sample
  // has any dominant point-constrained attribute and silently degenerates
  // to the monolithic pipeline otherwise — both outcomes are probed.
  compiler::CompileOptions intern_opts = compile_opts(s);
  intern_opts.intern_entries = true;
  auto interned = compiler::compile_rules(schema, s.bound, intern_opts);
  if (!interned.ok()) {
    diverge(res, FuzzMode::kDirect,
            "intern_entries compile failed on a valid sample: " +
                interned.error().to_string() + "; repro: " + hint(s));
    return;
  }
  compiler::CompileOptions part_opts = compile_opts(s);
  part_opts.partition = compiler::PartitionMode::kForce;
  part_opts.partition_min_rules = 0;
  part_opts.intern_entries = true;
  auto part = compiler::compile_rules(schema, s.bound, part_opts);
  if (!part.ok()) {
    diverge(res, FuzzMode::kDirect,
            "partitioned compile failed on a valid sample: " +
                part.error().to_string() + "; repro: " + hint(s));
    return;
  }

  auto flat = lang::flatten_rules(s.bound, schema);
  if (!flat.ok()) {
    diverge(res, FuzzMode::kDirect,
            "DNF flatten failed on a valid sample: " +
                flat.error().to_string() + "; repro: " + hint(s));
    return;
  }
  const baseline::NaiveMatcher naive(flat.value());
  const table::CompiledPipeline fast(c.pipeline);
  switchsim::Switch sw(schema, table::Pipeline(c.pipeline));
  switchsim::StateRegisters mirror(schema);

  for (std::size_t i = 0; i < s.probes.size(); ++i) {
    const FuzzProbe& p = s.probes[i];
    lang::Env env;
    env.fields = p.fields;
    env.states = mirror.snapshot(p.now_us);
    ++res.probes_run;

    const lang::ActionSet want = lang::brute_eval_rules(s.bound, env);

    const lang::ActionSet naive_got = naive.match(env);
    if (naive_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("NaiveMatcher", naive_got, want, i, env, schema, s),
              i);
      return;
    }

    const lang::ActionSet& pipe_got = c.pipeline.evaluate_actions(env);
    if (pipe_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("Pipeline::evaluate", pipe_got, want, i, env,
                           schema, s),
              i);
      return;
    }

    const lang::ActionSet& intern_got =
        interned.value().pipeline.evaluate_actions(env);
    if (intern_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("interned pipeline", intern_got, want, i, env,
                           schema, s),
              i);
      return;
    }
    const lang::ActionSet& part_got =
        part.value().pipeline.evaluate_actions(env);
    if (part_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("partitioned pipeline", part_got, want, i, env,
                           schema, s),
              i);
      return;
    }

    const lang::ActionSet* a = fast.actions(fast.traverse(
        std::span(env.fields.data(), env.fields.size()),
        std::span(env.states.data(), env.states.size())));
    static const lang::ActionSet kDrop{};
    const lang::ActionSet& fast_got = a ? *a : kDrop;
    if (fast_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("CompiledPipeline::traverse", fast_got, want, i,
                           env, schema, s),
              i);
      return;
    }

    // The switch's register file must be in lockstep with the mirror: as
    // long as every prior probe agreed, both applied the same updates.
    const lang::ActionSet& sw_got = sw.classify(p.fields, p.now_us);
    if (sw_got != want) {
      diverge(res, FuzzMode::kDirect,
              mismatch_str("Switch::classify", sw_got, want, i, env, schema,
                           s),
              i);
      return;
    }

    for (std::uint32_t var : want.state_updates)
      mirror.apply_update(var, p.fields, p.now_us);
  }
}

// --- churn mode --------------------------------------------------------

}  // namespace

std::string delta_mismatch(const compiler::IncrementalCompiler::Delta& got,
                           const compiler::IncrementalCompiler::Delta& want) {
  const std::size_t n = std::min(got.ops.size(), want.ops.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!(got.ops[i] == want.ops[i]))
      return "op " + std::to_string(i) + ": " + got.ops[i].to_string() +
             ", oracle " + want.ops[i].to_string();
  if (got.ops.size() != want.ops.size())
    return std::to_string(got.ops.size()) + " ops, oracle " +
           std::to_string(want.ops.size());
  auto differs = [](const char* what, std::size_t a, std::size_t b) {
    return a == b ? std::string()
                  : std::string(what) + " " + std::to_string(a) +
                        ", oracle " + std::to_string(b);
  };
  const compiler::TableGenStats& g = got.stats.tablegen;
  const compiler::TableGenStats& w = want.stats.tablegen;
  for (const std::string& d :
       {differs("reused_entries", got.reused_entries, want.reused_entries),
        differs("total_entries", got.total_entries, want.total_entries),
        differs("requires_reprogram", got.requires_reprogram,
                want.requires_reprogram),
        differs("components", g.components, w.components),
        differs("in_nodes", g.in_nodes, w.in_nodes),
        differs("leaf_entries", g.leaf_entries, w.leaf_entries),
        differs("stats.entries", got.stats.total_entries,
                want.stats.total_entries),
        differs("multicast_groups", got.stats.multicast_groups,
                want.stats.multicast_groups),
        differs("bdd nodes", got.stats.bdd_after_prune.node_count,
                want.stats.bdd_after_prune.node_count)})
    if (!d.empty()) return d;
  if (g.stage_entries.size() != w.stage_entries.size())
    return "stage telemetry of " + std::to_string(g.stage_entries.size()) +
           " stages, oracle " + std::to_string(w.stage_entries.size());
  for (std::size_t i = 0; i < g.stage_entries.size(); ++i)
    if (g.stage_entries[i].table != w.stage_entries[i].table ||
        g.stage_entries[i].entries != w.stage_entries[i].entries)
      return "stage " + g.stage_entries[i].table + " telemetry " +
             std::to_string(g.stage_entries[i].entries) + ", oracle " +
             w.stage_entries[i].table + " " +
             std::to_string(w.stage_entries[i].entries);
  return "";
}

namespace {

void run_churn(const spec::Schema& schema, const FuzzSample& s,
               FuzzCaseResult& res) {
  if (s.bound.empty()) return;
  if (!check_bound(schema, s, res, FuzzMode::kChurn)) return;

  // `oracle` takes the same adds and removes (so its subscription ids are
  // `inc`'s), and regenerates every table at each commit (its diff base
  // is restored first): the emitted deltas must equal its diffs.
  compiler::IncrementalCompiler inc(schema, compile_opts(s));
  compiler::IncrementalCompiler oracle(schema, compile_opts(s));
  std::vector<compiler::IncrementalCompiler::SubscriptionId> ids;
  ids.reserve(s.bound.size());
  for (const auto& r : s.bound) {
    ids.push_back(inc.add(r));
    oracle.add(r);
  }

  auto d0 = inc.commit();
  if (!d0.ok()) {
    diverge(res, FuzzMode::kChurn,
            "first incremental commit failed: " + d0.error().to_string() +
                "; repro: " + hint(s));
    return;
  }
  if (!oracle.commit().ok()) {
    diverge(res, FuzzMode::kChurn, "oracle commit failed; repro: " + hint(s));
    return;
  }
  switchsim::Switch sw(schema, table::Pipeline(*inc.pipeline().value()));

  // Remove every other subscription, then re-add the removed rules; each
  // commit's entry delta flows through Switch::apply_delta (the live
  // control-plane path, U-code diagnostics included).
  std::vector<lang::BoundRule> removed;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    inc.remove(ids[i]);
    oracle.remove(ids[i]);
    removed.push_back(s.bound[i]);
  }
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1)
      for (const auto& r : removed) {
        inc.add(r);
        oracle.add(r);
      }
    auto d = inc.commit();
    if (!d.ok()) {
      diverge(res, FuzzMode::kChurn,
              "incremental commit failed mid-churn: " +
                  d.error().to_string() + "; repro: " + hint(s));
      return;
    }
    oracle.restore_installed(*oracle.pipeline().value());
    auto want = oracle.commit();
    const std::string mismatch =
        want.ok() ? delta_mismatch(d.value(), want.value())
                  : "oracle commit failed: " + want.error().to_string();
    if (!mismatch.empty()) {
      diverge(res, FuzzMode::kChurn,
              "emitted delta differs from the regenerated diff at commit " +
                  std::to_string(phase + 1) + ": " + mismatch +
                  "; repro: " + hint(s));
      return;
    }
    if (d.value().requires_reprogram) {
      // Structure changed (compression mapping stages); entry ops cannot
      // express it. The control-plane contract is a full reprogram.
      sw.reprogram(table::Pipeline(*inc.pipeline().value()));
    } else {
      auto applied = sw.apply_delta(d.value().ops);
      if (!applied.ok()) {
        diverge(res, FuzzMode::kChurn,
                "Switch::apply_delta rejected a commit delta: " +
                    applied.error().to_string() + "; repro: " + hint(s));
        return;
      }
    }
  }

  // After remove+re-add the semantic rule set equals the original one
  // (ActionSet union is order-independent), so the delta-patched switch,
  // the incremental compiler's pipeline, and a from-scratch compile must
  // all equal the brute-force oracle.
  auto scratch = compiler::compile_rules(schema, s.bound, compile_opts(s));
  if (!scratch.ok()) {
    diverge(res, FuzzMode::kChurn,
            "from-scratch compile failed: " + scratch.error().to_string() +
                "; repro: " + hint(s));
    return;
  }
  // The partitioned+interned layout must agree with the churned state
  // too: the post-churn semantic rule set equals s.bound, so a scale-
  // layout compile of it is a fourth oracle for the same function.
  compiler::CompileOptions scale_opts = compile_opts(s);
  scale_opts.partition = compiler::PartitionMode::kForce;
  scale_opts.partition_min_rules = 0;
  scale_opts.intern_entries = true;
  auto scale = compiler::compile_rules(schema, s.bound, scale_opts);
  if (!scale.ok()) {
    diverge(res, FuzzMode::kChurn,
            "partitioned from-scratch compile failed: " +
                scale.error().to_string() + "; repro: " + hint(s));
    return;
  }

  switchsim::StateRegisters mirror(schema);
  for (std::size_t i = 0; i < s.probes.size(); ++i) {
    const FuzzProbe& p = s.probes[i];
    lang::Env env;
    env.fields = p.fields;
    env.states = mirror.snapshot(p.now_us);
    ++res.probes_run;

    const lang::ActionSet want = lang::brute_eval_rules(s.bound, env);

    const lang::ActionSet& inc_got = inc.pipeline().value()->evaluate_actions(env);
    if (inc_got != want) {
      diverge(res, FuzzMode::kChurn,
              mismatch_str("IncrementalCompiler pipeline (post-churn)",
                           inc_got, want, i, env, schema, s),
              i);
      return;
    }
    const lang::ActionSet& scratch_got =
        scratch.value().pipeline.evaluate_actions(env);
    if (scratch_got != want) {
      diverge(res, FuzzMode::kChurn,
              mismatch_str("from-scratch pipeline", scratch_got, want, i, env,
                           schema, s),
              i);
      return;
    }
    const lang::ActionSet& scale_got =
        scale.value().pipeline.evaluate_actions(env);
    if (scale_got != want) {
      diverge(res, FuzzMode::kChurn,
              mismatch_str("partitioned from-scratch pipeline", scale_got,
                           want, i, env, schema, s),
              i);
      return;
    }
    const lang::ActionSet& sw_got = sw.classify(p.fields, p.now_us);
    if (sw_got != want) {
      diverge(res, FuzzMode::kChurn,
              mismatch_str("delta-patched Switch", sw_got, want, i, env,
                           schema, s),
              i);
      return;
    }

    for (std::uint32_t var : want.state_updates)
      mirror.apply_update(var, p.fields, p.now_us);
  }
}

// --- fault mode --------------------------------------------------------

void run_fault(const spec::Schema& schema, const FuzzSample& s,
               FuzzCaseResult& res, const FuzzHarnessOptions& opts) {
  if (s.bound.empty()) return;
  if (!check_bound(schema, s, res, FuzzMode::kFault)) return;

  auto compiled = compiler::compile_rules(schema, s.bound, compile_opts(s));
  if (!compiled.ok()) return;  // already reported by direct mode
  const compiler::Compiled& c = compiled.value();

  for (std::size_t round = 0; round < opts.fault_rounds; ++round) {
    // Fresh switch + fresh register mirror per round: a prior round's
    // fault must not contaminate this round's lockstep invariant.
    switchsim::Switch sw(schema, table::Pipeline(c.pipeline));
    switchsim::StateRegisters mirror(schema);
    fault::Injector inj(s.seed ^ (s.index * 0x9e3779b97f4a7c15ULL) ^
                        (round * 0x2545f4914f6cdd1dULL));

    const std::size_t kind = round % 3;
    if (kind == 0) {
      // Register bit-flip, mirrored into the oracle's register file: both
      // worlds see the same SRAM soft error, so every oracle must still
      // agree — this fuzzes classification over corrupted register
      // states a clean feed would never reach.
      auto injection = inj.flip_register_bit(sw);
      if (!injection) continue;  // schema has no state variables
      mirror.inject_bit_flip(injection->register_var, injection->bit);

      for (std::size_t i = 0; i < s.probes.size(); ++i) {
        const FuzzProbe& p = s.probes[i];
        lang::Env env;
        env.fields = p.fields;
        env.states = mirror.snapshot(p.now_us);
        ++res.probes_run;
        const lang::ActionSet want = lang::brute_eval_rules(s.bound, env);
        const lang::ActionSet& got = sw.classify(p.fields, p.now_us);
        if (got != want) {
          diverge(res, FuzzMode::kFault,
                  "after mirrored " + injection->to_string() + ": " +
                      mismatch_str("Switch::classify", got, want, i, env,
                                   schema, s),
                  i);
          return;
        }
        for (std::uint32_t var : want.state_updates)
          mirror.apply_update(var, p.fields, p.now_us);
      }
      continue;
    }

    // Table-entry fault (bit-flip or eviction): the switch now runs
    // mutated U-code. The symbolic verifier must refute equivalence — or,
    // when it proves the fault semantically neutral, the corpus must
    // still match the oracle exactly.
    auto injection =
        kind == 1 ? inj.flip_entry_bit(sw) : inj.evict_entry(sw);
    if (!injection) continue;  // pipeline has no entries

    const EquivalenceResult eq =
        check_equivalence(*c.manager, c.root, sw.pipeline(), schema);
    const table::CompiledPipeline mutated_fast(sw.pipeline());

    for (std::size_t i = 0; i < s.probes.size(); ++i) {
      const FuzzProbe& p = s.probes[i];
      lang::Env env;
      env.fields = p.fields;
      env.states = mirror.snapshot(p.now_us);
      ++res.probes_run;
      const lang::ActionSet want = lang::brute_eval_rules(s.bound, env);

      // Crash-shake both lookup paths of the mutated program; results
      // are only asserted when the verifier proved the fault neutral.
      const lang::ActionSet& got = sw.classify(p.fields, p.now_us);
      static const lang::ActionSet kDrop{};
      const lang::ActionSet* fa = mutated_fast.actions(mutated_fast.traverse(
          std::span(env.fields.data(), env.fields.size()),
          std::span(env.states.data(), env.states.size())));
      const lang::ActionSet& fast_got = fa ? *fa : kDrop;

      if (eq.proven_equivalent()) {
        if (got != want) {
          diverge(res, FuzzMode::kFault,
                  "verifier PROVED equivalence after " +
                      injection->to_string() + " but " +
                      mismatch_str("Switch::classify", got, want, i, env,
                                   schema, s),
                  i);
          return;
        }
        if (fast_got != want) {
          diverge(res, FuzzMode::kFault,
                  "verifier PROVED equivalence after " +
                      injection->to_string() + " but " +
                      mismatch_str("CompiledPipeline::traverse", fast_got,
                                   want, i, env, schema, s),
                  i);
          return;
        }
        for (std::uint32_t var : want.state_updates)
          mirror.apply_update(var, p.fields, p.now_us);
      } else if (got != want) {
        // Divergence observed concretely: the verifier must have refuted
        // (it did — eq not proven), so nothing to report. But a corpus
        // divergence with a *completed, equivalent* verdict was handled
        // above; an incomplete verdict (budget) is acceptable.
        // Register lockstep is void from here on; stop comparing.
        break;
      } else {
        for (std::uint32_t var : want.state_updates)
          mirror.apply_update(var, p.fields, p.now_us);
      }
    }
  }
}

// --- lint mode ---------------------------------------------------------

void run_lint(const spec::Schema& schema, const FuzzSample& s,
              FuzzCaseResult& res) {
  if (!check_bound(schema, s, res, FuzzMode::kLint)) return;

  Report report;
  auto lint = lint_subscriptions(schema, s.bound, report);
  if (!lint.ok()) {
    diverge(res, FuzzMode::kLint,
            "lint engine failed on a generated sample: " +
                lint.error().to_string() + "; repro: " + hint(s));
    return;
  }

  // Static half of the S004 contract: the subsumer must carry every
  // action of the subsumed rule.
  for (const auto& d : report.diagnostics()) {
    if (d.code != LintCode::kRuleSubsumed || !d.rule || !d.other_rule)
      continue;
    if (*d.rule >= s.bound.size() || *d.other_rule >= s.bound.size()) {
      diverge(res, FuzzMode::kLint,
              "lint diagnostic carries an out-of-range rule index; repro: " +
                  hint(s));
      return;
    }
    lang::ActionSet merged = s.bound[*d.other_rule].actions;
    merged.merge(s.bound[*d.rule].actions);
    if (merged != s.bound[*d.other_rule].actions) {
      diverge(res, FuzzMode::kLint,
              "S004 claims rule " + std::to_string(*d.rule) +
                  " subsumed by rule " + std::to_string(*d.other_rule) +
                  " but the subsumer lacks its actions; repro: " + hint(s));
      return;
    }
  }

  auto compiled = compiler::compile_rules(schema, s.bound, compile_opts(s));
  if (compiled.ok()) {
    const compiler::Compiled& c = compiled.value();

    // A clean compile must verify: equivalence refutation or any
    // error-severity pipeline-lint finding on fresh output is a compiler
    // or verifier bug either way.
    const EquivalenceResult eq =
        check_equivalence(*c.manager, c.root, c.pipeline, schema);
    if (eq.completed && !eq.equivalent) {
      diverge(res, FuzzMode::kLint,
              "equivalence checker refuted a clean compile: " + eq.detail +
                  "; repro: " + hint(s));
      return;
    }
    Report preport;
    (void)lint_pipeline(c.pipeline, preport);
    for (const auto& d : preport.diagnostics()) {
      if (d.severity == Severity::kError) {
        diverge(res, FuzzMode::kLint,
                "pipeline lint " + std::string(code_string(d.code)) +
                    " error on a clean compile: " + d.message +
                    "; repro: " + hint(s));
        return;
      }
    }

    // S006 witness oracle: a reported coverage hole must really match no
    // rule under the brute-force evaluator.
    Report creport;
    auto witness = check_coverage(*c.manager, c.root, schema, creport);
    if (witness &&
        !lang::brute_eval_rules(s.bound, *witness).is_drop()) {
      diverge(res, FuzzMode::kLint,
              "S006 coverage witness actually matches the rule set; env: " +
                  env_str(*witness, schema) + "; repro: " + hint(s));
      return;
    }
  }

  // Probe-based contradiction checks against the brute-force oracle.
  switchsim::StateRegisters mirror(schema);
  for (std::size_t i = 0; i < s.probes.size(); ++i) {
    const FuzzProbe& p = s.probes[i];
    lang::Env env;
    env.fields = p.fields;
    env.states = mirror.snapshot(p.now_us);
    ++res.probes_run;

    for (const auto& d : report.diagnostics()) {
      if (d.rule && *d.rule >= s.bound.size()) continue;
      if (d.other_rule && *d.other_rule >= s.bound.size()) continue;
      if (d.code == LintCode::kRuleUnsatisfiable && d.rule &&
          s.bound[*d.rule].cond &&
          lang::brute_eval_cond(*s.bound[*d.rule].cond, env)) {
        diverge(res, FuzzMode::kLint,
                "S001 claims rule " + std::to_string(*d.rule) +
                    " unsatisfiable but probe " + std::to_string(i) +
                    " matches it; env: " + env_str(env, schema) +
                    "; repro: " + hint(s),
                i);
        return;
      }
      if ((d.code == LintCode::kRuleSubsumed ||
           d.code == LintCode::kRuleDuplicate) &&
          d.rule && d.other_rule) {
        const bool a =
            lang::brute_eval_cond(*s.bound[*d.rule].cond, env);
        const bool b =
            lang::brute_eval_cond(*s.bound[*d.other_rule].cond, env);
        const bool broken =
            d.code == LintCode::kRuleDuplicate ? (a != b) : (a && !b);
        if (broken) {
          diverge(res, FuzzMode::kLint,
                  std::string(code_string(d.code)) + " relation between rules " +
                      std::to_string(*d.rule) + " and " +
                      std::to_string(*d.other_rule) +
                      " contradicted by probe " + std::to_string(i) +
                      "; env: " + env_str(env, schema) +
                      "; repro: " + hint(s),
                  i);
          return;
        }
      }
    }

    const lang::ActionSet want = lang::brute_eval_rules(s.bound, env);
    for (std::uint32_t var : want.state_updates)
      mirror.apply_update(var, p.fields, p.now_us);
  }
}

}  // namespace

std::string_view to_string(FuzzMode m) {
  switch (m) {
    case FuzzMode::kDirect:
      return "direct";
    case FuzzMode::kChurn:
      return "churn";
    case FuzzMode::kFault:
      return "fault";
    case FuzzMode::kLint:
      return "lint";
  }
  return "?";
}

std::optional<FuzzMode> parse_fuzz_mode(std::string_view s) {
  if (s == "direct") return FuzzMode::kDirect;
  if (s == "churn") return FuzzMode::kChurn;
  if (s == "fault") return FuzzMode::kFault;
  if (s == "lint") return FuzzMode::kLint;
  return std::nullopt;
}

FuzzCaseResult run_case(const spec::Schema& schema, const FuzzSample& sample,
                        const FuzzHarnessOptions& opts) {
  FuzzCaseResult res;
  if (opts.run_direct) {
    run_direct(schema, sample, res);
    if (res.diverged) return res;
  }
  if (opts.run_churn) {
    run_churn(schema, sample, res);
    if (res.diverged) return res;
  }
  if (opts.run_fault) {
    run_fault(schema, sample, res, opts);
    if (res.diverged) return res;
  }
  if (opts.run_lint) {
    run_lint(schema, sample, res);
    if (res.diverged) return res;
  }
  return res;
}

// --- reproducers -------------------------------------------------------

std::string serialize_repro(const FuzzRepro& r) {
  std::ostringstream os;
  os << "camus-fuzz repro v1\n";
  os << "seed " << r.seed << " index " << r.index << " mode "
     << to_string(r.mode) << " compress " << (r.compress ? 1 : 0) << "\n";
  for (const auto& n : r.notes) os << "# " << n << "\n";
  for (const auto& rule : r.rules) os << "rule " << rule.to_string() << "\n";
  for (const auto& p : r.probes) {
    os << "probe now=" << p.now_us << " fields=";
    for (std::size_t i = 0; i < p.fields.size(); ++i) {
      if (i) os << ",";
      os << p.fields[i];
    }
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

util::Result<FuzzRepro> parse_repro(std::string_view text) {
  FuzzRepro out;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  bool header_seen = false, meta_seen = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != "camus-fuzz repro v1")
        return util::Error{"bad reproducer header", lineno, 1};
      header_seen = true;
      continue;
    }
    if (line.rfind("# ", 0) == 0) {
      out.notes.push_back(line.substr(2));
      continue;
    }
    if (line == "end") break;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "seed") {
      std::string key;
      std::uint64_t compress = 0;
      std::string mode;
      ls >> out.seed >> key >> out.index >> key >> mode >> key >> compress;
      auto m = parse_fuzz_mode(mode);
      if (!m) return util::Error{"unknown mode '" + mode + "'", lineno, 1};
      out.mode = *m;
      out.compress = compress != 0;
      meta_seen = true;
    } else if (tok == "rule") {
      const std::string src = line.substr(5);
      auto r = lang::parse_rule(src);
      if (!r.ok())
        return util::Error{"bad rule: " + r.error().to_string(), lineno, 1};
      out.rules.push_back(std::move(r).take());
    } else if (tok == "probe") {
      FuzzProbe p;
      std::string field;
      while (ls >> field) {
        if (field.rfind("now=", 0) == 0) {
          p.now_us = std::strtoull(field.c_str() + 4, nullptr, 10);
        } else if (field.rfind("fields=", 0) == 0) {
          const char* c = field.c_str() + 7;
          while (*c) {
            char* endp = nullptr;
            p.fields.push_back(std::strtoull(c, &endp, 10));
            c = (*endp == ',') ? endp + 1 : endp;
          }
        } else {
          return util::Error{"bad probe token '" + field + "'", lineno, 1};
        }
      }
      out.probes.push_back(std::move(p));
    } else {
      return util::Error{"unknown directive '" + tok + "'", lineno, 1};
    }
  }
  if (!header_seen || !meta_seen)
    return util::Error{"truncated reproducer (missing header or seed line)"};
  return out;
}

namespace {

FuzzHarnessOptions only_mode(FuzzMode m, const FuzzHarnessOptions& base) {
  FuzzHarnessOptions o = base;
  o.run_direct = m == FuzzMode::kDirect;
  o.run_churn = m == FuzzMode::kChurn;
  o.run_fault = m == FuzzMode::kFault;
  o.run_lint = m == FuzzMode::kLint;
  return o;
}

FuzzSample build_sample(const spec::Schema& schema,
                        const std::vector<lang::Rule>& rules,
                        const std::vector<FuzzProbe>& probes, bool compress,
                        std::uint64_t seed, std::uint64_t index) {
  FuzzSample s;
  s.seed = seed;
  s.index = index;
  s.rules = rules;
  s.probes = probes;
  s.compress = compress;
  for (const auto& r : rules) {
    auto b = lang::bind_rule(r, schema);
    if (b.ok()) s.bound.push_back(std::move(b).take());
  }
  return s;
}

}  // namespace

FuzzCaseResult replay_repro(const spec::Schema& schema, const FuzzRepro& r,
                            const FuzzHarnessOptions& opts) {
  const FuzzSample s =
      build_sample(schema, r.rules, r.probes, r.compress, r.seed, r.index);
  return run_case(schema, s, only_mode(r.mode, opts));
}

// --- minimizer ---------------------------------------------------------

namespace {

// All one-step shrinks of a condition: replace a connective by one of its
// children, unwrap a negation, shrink a literal toward zero — plus every
// shrink of a child, re-wrapped. Quadratic in AST size; generated trees
// are small by construction.
void cond_shrinks(const lang::CondPtr& c, std::vector<lang::CondPtr>& out) {
  using K = lang::Cond::Kind;
  switch (c->kind) {
    case K::kAnd:
    case K::kOr: {
      out.push_back(c->lhs);
      out.push_back(c->rhs);
      std::vector<lang::CondPtr> ls, rs;
      cond_shrinks(c->lhs, ls);
      cond_shrinks(c->rhs, rs);
      for (auto& l : ls)
        out.push_back(c->kind == K::kAnd ? lang::Cond::make_and(l, c->rhs)
                                         : lang::Cond::make_or(l, c->rhs));
      for (auto& r : rs)
        out.push_back(c->kind == K::kAnd ? lang::Cond::make_and(c->lhs, r)
                                         : lang::Cond::make_or(c->lhs, r));
      break;
    }
    case K::kNot: {
      out.push_back(c->lhs);
      std::vector<lang::CondPtr> ls;
      cond_shrinks(c->lhs, ls);
      for (auto& l : ls) out.push_back(lang::Cond::make_not(l));
      break;
    }
    case K::kAtom: {
      const lang::PredExpr& a = c->atom;
      if (a.literal.kind == lang::Literal::Kind::kInt) {
        for (std::uint64_t v :
             {std::uint64_t{0}, a.literal.int_value / 2,
              a.literal.int_value == 0 ? 0 : a.literal.int_value - 1}) {
          if (v == a.literal.int_value) continue;
          lang::PredExpr smaller = a;
          smaller.literal.int_value = v;
          out.push_back(lang::Cond::make_atom(std::move(smaller)));
        }
      } else if (a.literal.text != "A") {
        lang::PredExpr smaller = a;
        smaller.literal.text = "A";
        out.push_back(lang::Cond::make_atom(std::move(smaller)));
      }
      break;
    }
  }
}

// One-step action-list shrinks: drop a whole action, or reduce a
// multi-port fwd to its first port.
std::vector<std::vector<lang::Action>> action_shrinks(
    const std::vector<lang::Action>& acts) {
  std::vector<std::vector<lang::Action>> out;
  if (acts.size() > 1) {
    for (std::size_t i = 0; i < acts.size(); ++i) {
      auto copy = acts;
      copy.erase(copy.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(copy));
    }
  }
  for (std::size_t i = 0; i < acts.size(); ++i) {
    if (acts[i].kind == lang::Action::Kind::kFwd &&
        acts[i].fwd.ports.size() > 1) {
      auto copy = acts;
      copy[i].fwd.ports.resize(1);
      out.push_back(std::move(copy));
    }
  }
  return out;
}

}  // namespace

FuzzRepro minimize(const spec::Schema& schema, const FuzzSample& failing,
                   FuzzMode failing_mode, const FuzzHarnessOptions& opts) {
  const FuzzHarnessOptions mode_opts = only_mode(failing_mode, opts);
  std::vector<lang::Rule> rules = failing.rules;
  std::vector<FuzzProbe> probes = failing.probes;
  bool compress = failing.compress;

  std::size_t budget = 800;  // predicate evaluations (each is a compile)
  auto still_fails = [&](const std::vector<lang::Rule>& rs,
                         const std::vector<FuzzProbe>& ps,
                         bool comp) -> bool {
    if (budget == 0) return false;
    --budget;
    const FuzzSample cand =
        build_sample(schema, rs, ps, comp, failing.seed, failing.index);
    return run_case(schema, cand, mode_opts).diverged;
  };

  // 0. Divergences should not depend on the compression knob; prefer the
  // simpler uncompressed pipeline when both reproduce.
  if (compress && still_fails(rules, probes, false)) compress = false;

  // 1. Drop whole rules (greedy, back to front so indices stay stable).
  for (bool changed = true; changed && budget > 0;) {
    changed = false;
    for (std::size_t i = rules.size(); i-- > 0 && budget > 0;) {
      auto cand = rules;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand, probes, compress)) {
        rules = std::move(cand);
        changed = true;
      }
    }
  }

  // 2. Drop probes: halves first (ddmin-style), then single removals.
  auto try_probe_subset = [&](std::size_t lo, std::size_t hi) {
    std::vector<FuzzProbe> cand(probes.begin() + static_cast<std::ptrdiff_t>(lo),
                                probes.begin() + static_cast<std::ptrdiff_t>(hi));
    if (still_fails(rules, cand, compress)) {
      probes = std::move(cand);
      return true;
    }
    return false;
  };
  while (probes.size() > 4 && budget > 0) {
    const std::size_t half = probes.size() / 2;
    if (try_probe_subset(0, half)) continue;
    if (try_probe_subset(half, probes.size())) continue;
    break;
  }
  for (bool changed = true; changed && budget > 0;) {
    changed = false;
    for (std::size_t i = probes.size(); i-- > 0 && budget > 0;) {
      auto cand = probes;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(rules, cand, compress)) {
        probes = std::move(cand);
        changed = true;
      }
    }
  }

  // 3. Prune AST nodes and shrink constants, rule by rule.
  for (bool changed = true; changed && budget > 0;) {
    changed = false;
    for (std::size_t i = 0; i < rules.size() && budget > 0; ++i) {
      std::vector<lang::CondPtr> cands;
      if (rules[i].cond) cond_shrinks(rules[i].cond, cands);
      for (auto& c : cands) {
        if (budget == 0) break;
        auto cand = rules;
        cand[i].cond = c;
        if (still_fails(cand, probes, compress)) {
          rules = std::move(cand);
          changed = true;
          break;  // re-enumerate shrinks of the new, smaller condition
        }
      }
      for (auto& acts : action_shrinks(rules[i].actions)) {
        if (budget == 0) break;
        auto cand = rules;
        cand[i].actions = acts;
        if (still_fails(cand, probes, compress)) {
          rules = std::move(cand);
          changed = true;
          break;
        }
      }
    }
  }

  FuzzRepro out;
  out.seed = failing.seed;
  out.index = failing.index;
  out.mode = failing_mode;
  out.compress = compress;
  out.rules = std::move(rules);
  out.probes = std::move(probes);

  // Final verdict recorded as provenance.
  const FuzzSample final_sample = build_sample(
      schema, out.rules, out.probes, out.compress, out.seed, out.index);
  const FuzzCaseResult final_run =
      run_case(schema, final_sample, mode_opts);
  out.notes.push_back("found by " +
                      workload::fuzz_repro_hint(out.seed, out.index));
  out.notes.push_back(final_run.diverged ? final_run.detail
                                         : "WARNING: no longer reproduces");
  return out;
}

// --- campaigns ---------------------------------------------------------

std::string CampaignResult::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"seed\":" << seed;
  os << ",\"samples_requested\":" << samples_requested;
  os << ",\"samples_run\":" << samples_run;
  os << ",\"probes_run\":" << probes_run;
  os << ",\"divergences\":" << divergences;
  os << ",\"time_exhausted\":" << (time_exhausted ? "true" : "false");
  os << ",\"seconds\":" << util::json::format_double(seconds);
  os << ",\"verdict_digest\":\"0x" << std::hex << verdict_digest << std::dec
     << "\"";
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) os << ",";
    os << "{\"index\":" << failures[i].index << ",\"mode\":\""
       << to_string(failures[i].mode) << "\",\"detail\":\""
       << util::json::escape(failures[i].detail) << "\",\"reproducer\":\""
       << util::json::escape(serialize_repro(failures[i].minimized))
       << "\"}";
  }
  os << "]}";
  return os.str();
}

CampaignResult run_campaign(const spec::Schema& schema,
                            const CampaignOptions& opts) {
  CampaignResult res;
  res.seed = opts.seed;
  res.samples_requested = opts.samples;
  // Digest starts from the seed so two all-pass campaigns with different
  // seeds stay distinguishable.
  res.verdict_digest = util::SplitMix64(opts.seed).next();

  workload::FuzzParams gp = opts.gen;
  gp.seed = opts.seed;
  const workload::GrammarFuzzer fuzzer(schema, gp);

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (std::size_t i = 0; i < opts.samples; ++i) {
    if (opts.time_budget_s > 0 && elapsed() >= opts.time_budget_s) {
      res.time_exhausted = true;
      break;
    }
    const FuzzSample s = fuzzer.sample(i);
    const FuzzCaseResult r = run_case(schema, s, opts.harness);
    ++res.samples_run;
    res.probes_run += r.probes_run;

    // Order-insensitive, timing-independent verdict digest.
    const std::uint64_t verdict =
        r.diverged ? 1 + static_cast<std::uint64_t>(r.mode) : 0;
    util::SplitMix64 h(i * 0x9e3779b97f4a7c15ULL ^
                       verdict * 0xff51afd7ed558ccdULL);
    res.verdict_digest ^= h.next();

    if (r.diverged) {
      ++res.divergences;
      CampaignDivergence d;
      d.index = i;
      d.mode = r.mode;
      d.detail = r.detail;
      if (opts.minimize_failures) {
        d.minimized = minimize(schema, s, r.mode, opts.harness);
      } else {
        d.minimized.seed = s.seed;
        d.minimized.index = s.index;
        d.minimized.mode = r.mode;
        d.minimized.compress = s.compress;
        d.minimized.rules = s.rules;
        d.minimized.probes = s.probes;
        d.minimized.notes.push_back(r.detail);
      }
      res.failures.push_back(std::move(d));
    }
  }
  res.seconds = elapsed();
  return res;
}

}  // namespace camus::verify

