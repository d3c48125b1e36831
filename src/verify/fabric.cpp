#include "verify/fabric.hpp"

#include <utility>

#include "compiler/field_order.hpp"
#include "lang/dnf.hpp"

namespace camus::verify {

namespace {

// Union MTBDD of a bound-rule set in `mgr`, pruned.
util::Result<bdd::NodeRef> build_union(bdd::BddManager& mgr,
                                       const spec::Schema& schema,
                                       const std::vector<lang::BoundRule>& rules) {
  auto flat = lang::flatten_rules(rules, schema);
  if (!flat.ok()) return flat.error();
  std::vector<bdd::NodeRef> roots;
  roots.reserve(flat.value().size());
  for (const auto& fr : flat.value()) roots.push_back(mgr.build_rule(fr));
  if (roots.empty()) return mgr.drop();
  return mgr.prune(mgr.unite_all(std::move(roots)));
}

FabricCheckResult incomplete(std::string detail) {
  FabricCheckResult r;
  r.completed = false;
  r.equivalent = false;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

FabricCheckResult check_fabric_equivalence(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const compiler::FabricPlacement& placement,
    const compiler::FabricProgram& program,
    const FabricCheckOptions& opts) {
  const std::size_t leaves = placement.spec.leaves;
  // Without spines (the single switch) nothing is steered: only (1) and
  // (2) apply.
  const bool steered = placement.spec.spines > 0;
  if (program.leaves.size() != leaves ||
      placement.leaf_rules.size() != leaves ||
      placement.spine_rules.size() != (steered ? leaves : 0))
    return incomplete("placement/program leaf counts disagree with the spec");

  auto flat_all = lang::flatten_rules(rules, schema);
  if (!flat_all.ok())
    return incomplete("monolithic flatten failed: " +
                      flat_all.error().to_string());
  bdd::BddManager mgr(compiler::choose_order(schema, flat_all.value(),
                                             opts.order),
                      bdd::DomainMap(schema));

  std::vector<bdd::NodeRef> mono_roots;
  mono_roots.reserve(flat_all.value().size());
  for (const auto& fr : flat_all.value()) mono_roots.push_back(mgr.build_rule(fr));
  const bdd::NodeRef mono = mono_roots.empty()
                                ? mgr.drop()
                                : mgr.prune(mgr.unite_all(std::move(mono_roots)));

  std::vector<bdd::NodeRef> leaf_refs(leaves);
  std::vector<bdd::NodeRef> steer_refs(leaves);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    auto lr = build_union(mgr, schema, placement.leaf_rules[leaf]);
    if (!lr.ok())
      return incomplete("leaf " + std::to_string(leaf) + " flatten failed: " +
                        lr.error().to_string());
    leaf_refs[leaf] = lr.value();
    if (!steered) continue;
    auto sr = build_union(mgr, schema, {placement.spine_rules[leaf]});
    if (!sr.ok())
      return incomplete("steer " + std::to_string(leaf) + " flatten failed: " +
                        sr.error().to_string());
    steer_refs[leaf] = sr.value();
  }

  FabricCheckResult result;

  // (1) Recombination: the per-leaf restrictions union back to monolithic.
  const bdd::NodeRef combined = mgr.prune(mgr.unite_all(leaf_refs));
  if (!mgr.equivalent(combined, mono)) {
    result.equivalent = false;
    result.failed_check = "recombination";
    result.counterexample = mgr.find_witness(
        combined, mono,
        [](const lang::ActionSet& a, const lang::ActionSet& b) {
          return a != b;
        });
    result.detail =
        "union of per-leaf restrictions diverges from the monolithic MTBDD "
        "(ports lost or duplicated across leaves)";
    return result;
  }

  // (2) Every compiled leaf pipeline computes its restriction exactly.
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    EquivalenceResult eq = check_equivalence(mgr, leaf_refs[leaf],
                                             program.leaves[leaf], schema,
                                             opts.equivalence);
    if (!eq.completed)
      return incomplete("leaf " + std::to_string(leaf) +
                        " equivalence incomplete: " + eq.detail);
    if (!eq.equivalent) {
      result.equivalent = false;
      result.failed_check = "leaf-program";
      result.leaf = leaf;
      result.counterexample = eq.counterexample;
      result.detail = "leaf " + std::to_string(leaf) +
                      " pipeline diverges from its restriction: " + eq.detail;
      return result;
    }
  }

  if (!steered) {
    result.detail = "identity placement proven equivalent to monolithic "
                    "compile";
    return result;
  }

  // (3) No starvation: nothing a leaf forwards escapes its steering rule.
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    auto witness = mgr.find_witness(
        leaf_refs[leaf], steer_refs[leaf],
        [](const lang::ActionSet& fwd, const lang::ActionSet& steer) {
          return !fwd.is_drop() && steer.is_drop();
        });
    if (witness) {
      result.equivalent = false;
      result.failed_check = "starvation";
      result.leaf = leaf;
      result.counterexample = std::move(witness);
      result.detail = "packet forwarded by leaf " + std::to_string(leaf) +
                      " is not steered to it by the spine rules";
      return result;
    }
  }

  // (4) The compiled spine pipeline computes the union of the steering
  // rules, so (3) holds for the program the spines actually run.
  const bdd::NodeRef spine_ref = mgr.prune(mgr.unite_all(steer_refs));
  EquivalenceResult eq = check_equivalence(mgr, spine_ref, program.spine,
                                           schema, opts.equivalence);
  if (!eq.completed)
    return incomplete("spine equivalence incomplete: " + eq.detail);
  if (!eq.equivalent) {
    result.equivalent = false;
    result.failed_check = "spine-program";
    result.counterexample = eq.counterexample;
    result.detail = "spine pipeline diverges from the steering rules: " +
                    eq.detail;
    return result;
  }

  result.detail = "fabric placement proven equivalent to monolithic compile";
  return result;
}

}  // namespace camus::verify
