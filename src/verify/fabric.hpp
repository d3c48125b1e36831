// Fabric equivalence: proves that a spine–leaf placement computes the
// monolithic packet -> (leaf, port) delivery function, with concrete MTBDD
// counterexamples on mismatch.
//
// Decomposition — the fabric delivers env to (leaf_of(p), p) for port p iff
// the spine steers env to leaf L = leaf_of(p) AND leaf L forwards env to p.
// The proof therefore establishes, in one BddManager:
//
//   (1) recombination — U_L restrict_L(monolithic) == monolithic, where
//       restrict_L keeps only leaf L's ports in every terminal. This is the
//       placement's restriction step replayed symbolically; a failure means
//       ports were lost or duplicated across leaves.
//   (2) per-leaf programs — each compiled leaf pipeline computes
//       restrict_L(monolithic) exactly (the PR-2 region-partition checker,
//       once per leaf).
//   (3) no starvation — no packet exists that leaf L would forward but the
//       spine steering rule for L drops (find_witness over
//       restrict_L(monolithic) × steer_L). The witness, when one exists, is
//       a concrete packet the fabric loses — this is the check a corrupted
//       steering rule trips.
//   (4) spine program — the compiled spine pipeline computes exactly the
//       union of the steering rules (region-partition checker again), so
//       (3)'s symbolic steering function is what the spine switch runs.
//
// (1) ∧ (2) bound fabric delivery above by monolithic delivery (no spurious
// copies: a leaf can only forward what the restriction forwards); (3) ∧ (4)
// bound it below (no starvation: everything a leaf would forward reaches
// that leaf). Together: fabric ≡ monolithic on every packet. The single
// switch (0 spines x 1 leaf) steers nothing, so only (1) and (2) apply.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compiler/fabric.hpp"
#include "lang/bound.hpp"
#include "spec/schema.hpp"
#include "verify/equivalence.hpp"

namespace camus::verify {

struct FabricCheckOptions {
  EquivalenceOptions equivalence;  // budget for the per-pipeline checks
  // Must match the CompileOptions::order the programs were compiled with,
  // so the shared reference manager walks the same variable order.
  bdd::OrderHeuristic order = bdd::OrderHeuristic::kDeclared;
};

struct FabricCheckResult {
  bool equivalent = true;  // meaningful only when completed
  bool completed = true;
  // Which of the four obligations failed first (empty when equivalent):
  // "recombination" | "leaf-program" | "starvation" | "spine-program".
  std::string failed_check;
  // Index of the leaf at fault for leaf-scoped failures; nullopt for
  // fabric-wide ones.
  std::optional<std::size_t> leaf;
  // The diverging packet (raw field/state values), when one was found.
  std::optional<lang::Env> counterexample;
  std::string detail;

  bool proven() const noexcept { return completed && equivalent; }
};

// Proves placement+program ≡ the monolithic compile of `rules` (the same
// rule set the placement was derived from). `program` may be the output of
// compile_fabric or a deliberately corrupted variant (negative tests).
FabricCheckResult check_fabric_equivalence(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const compiler::FabricPlacement& placement,
    const compiler::FabricProgram& program, const FabricCheckOptions& opts = {});

}  // namespace camus::verify
