// Differential fuzzing harness: compiles each workload::GrammarFuzzer
// sample and cross-checks the whole compiler/runtime stack against a
// brute-force AST oracle, in four modes:
//
//  kDirect  — four-way oracle agreement per adversarial probe:
//             brute-force AST evaluator (lang/eval.hpp, the ground truth)
//             ≡ baseline::NaiveMatcher (DNF path)
//             ≡ table::Pipeline::evaluate_actions (interpreted switchsim)
//             ≡ table::CompiledPipeline::traverse (flattened fast path)
//             ≡ switchsim::Switch::classify (the switch's engine: hot-key
//             memo over the flattened pipeline, registers in lockstep
//             with a software mirror). Also proves the printed sample
//             re-parses to the same AST (parser/printer round trip).
//  kChurn   — IncrementalCompiler commit deltas (remove half, re-add)
//             applied through Switch::apply_delta must converge to the
//             same classification function as a from-scratch compile.
//  kFault   — fault::Injector register/entry bit-flips and evictions:
//             a register flip mirrored into the oracle's register file
//             must keep all oracles agreeing; after an entry fault the
//             symbolic equivalence checker must refute (or, if it proves
//             equivalence, the corpus must still agree) — the U-code and
//             verifier paths get fuzzed, not just happy-path compilation.
//  kLint    — camus-lint's diagnostics engine must not crash on generated
//             rule sets and must never contradict the brute-force oracle
//             (an S001 rule must never match a probe; an S004-subsumed
//             rule's matches must be covered by its subsumer; an S006
//             witness must match nothing).
//
// Any divergence is shrunk by a delta-debugging minimizer (drop rules,
// prune AST nodes, shrink constants, drop probes) into a self-contained
// reproducer that serializes to a one-file text format; committed
// reproducers under tests/corpus/ are replayed forever by test_fuzz.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spec/schema.hpp"
#include "util/result.hpp"
#include "workload/fuzz.hpp"

namespace camus::verify {

enum class FuzzMode : std::uint8_t { kDirect, kChurn, kFault, kLint };

std::string_view to_string(FuzzMode m);
std::optional<FuzzMode> parse_fuzz_mode(std::string_view s);

struct FuzzHarnessOptions {
  bool run_direct = true;
  bool run_churn = true;
  bool run_fault = true;
  bool run_lint = true;
  // Entry/register fault rounds per sample in kFault mode.
  std::size_t fault_rounds = 3;
};

struct FuzzCaseResult {
  bool diverged = false;
  FuzzMode mode = FuzzMode::kDirect;  // the mode that diverged (or last run)
  std::string detail;                 // which oracles disagreed, where
  std::optional<std::size_t> probe;   // diverging probe index, when known
  std::size_t probes_run = 0;
};

// Runs one sample through every enabled mode; the first divergence wins.
FuzzCaseResult run_case(const spec::Schema& schema,
                        const workload::FuzzSample& sample,
                        const FuzzHarnessOptions& opts = {});

// --- reproducers -------------------------------------------------------

// A minimized, self-contained failing case. Serializes to a line-oriented
// text file (see serialize_repro) that replays without the generator.
struct FuzzRepro {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;
  FuzzMode mode = FuzzMode::kDirect;
  bool compress = false;
  std::vector<std::string> notes;  // seed/root-cause commentary ('#' lines)
  std::vector<lang::Rule> rules;
  std::vector<workload::FuzzProbe> probes;
};

std::string serialize_repro(const FuzzRepro& r);
util::Result<FuzzRepro> parse_repro(std::string_view text);

// Replays a reproducer (all modes pinned to r.mode). A fixed bug replays
// green; a regression re-reports the divergence.
FuzzCaseResult replay_repro(const spec::Schema& schema, const FuzzRepro& r,
                            const FuzzHarnessOptions& opts = {});

// Delta-debugging minimizer: greedily drops whole rules and probes,
// prunes boolean AST nodes (replace and/or with one side, unwrap not),
// shrinks constants toward 0, and drops surplus actions/ports — keeping
// every shrink that still reproduces `failing_mode`. Deterministic; the
// probe corpus is re-targeted after structural shrinks.
FuzzRepro minimize(const spec::Schema& schema,
                   const workload::FuzzSample& failing, FuzzMode failing_mode,
                   const FuzzHarnessOptions& opts = {});

// --- campaigns ---------------------------------------------------------

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::size_t samples = 1000;
  double time_budget_s = 0;  // 0 = no budget; stop after `samples` anyway
  bool minimize_failures = true;
  FuzzHarnessOptions harness;
  workload::FuzzParams gen;  // gen.seed is overwritten with `seed`
};

struct CampaignDivergence {
  std::uint64_t index = 0;
  FuzzMode mode = FuzzMode::kDirect;
  std::string detail;
  FuzzRepro minimized;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  std::size_t samples_requested = 0;
  std::size_t samples_run = 0;
  std::size_t probes_run = 0;
  std::size_t divergences = 0;
  bool time_exhausted = false;
  double seconds = 0;
  // Order-insensitive digest over (index, verdict) pairs: two campaigns
  // with the same seed and sample count must produce the same digest —
  // the determinism gate asserted in tests and CI.
  std::uint64_t verdict_digest = 0;
  std::vector<CampaignDivergence> failures;

  std::string to_json() const;
};

CampaignResult run_campaign(const spec::Schema& schema,
                            const CampaignOptions& opts);

}  // namespace camus::verify
