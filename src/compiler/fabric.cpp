#include "compiler/fabric.hpp"

#include <algorithm>
#include <map>

#include "compiler/field_order.hpp"
#include "compiler/partition.hpp"
#include "lang/dnf.hpp"
#include "table/delta.hpp"

namespace camus::compiler {

namespace {

// State-subject constraints are as out of scope as state updates: the
// register a leaf reads is not the register the monolithic switch would
// have read.
bool touches_state(const lang::FlatRule& flat) {
  if (!flat.actions.state_updates.empty()) return true;
  for (const auto& term : flat.terms)
    for (const auto& [subject, _] : term.constraints)
      if (subject.kind == lang::Subject::Kind::kState) return true;
  return false;
}

lang::BoundCondPtr interval_cond(lang::Subject subject,
                                 const util::IntervalSet& values,
                                 std::uint64_t umax) {
  using lang::BoundCond;
  using lang::BoundPredicate;
  using lang::RelOp;
  if (values.is_empty()) return BoundCond::make_const(false);
  if (values.is_all(umax)) return BoundCond::make_const(true);
  lang::BoundCondPtr acc;
  for (const auto& iv : values.intervals()) {
    lang::BoundCondPtr piece;
    if (iv.lo == iv.hi) {
      piece = BoundCond::make_atom(BoundPredicate{subject, RelOp::kEq, iv.lo});
    } else {
      // [lo, hi] == !(x < lo) && x < hi+1, skipping bounds the domain
      // already implies.
      lang::BoundCondPtr lo_part, hi_part;
      if (iv.lo > 0)
        lo_part = BoundCond::make_not(
            BoundCond::make_atom(BoundPredicate{subject, RelOp::kLt, iv.lo}));
      if (iv.hi < umax)
        hi_part = BoundCond::make_atom(
            BoundPredicate{subject, RelOp::kLt, iv.hi + 1});
      if (lo_part && hi_part)
        piece = BoundCond::make_and(lo_part, hi_part);
      else
        piece = lo_part ? lo_part : hi_part;
    }
    acc = acc ? BoundCond::make_or(acc, piece) : piece;
  }
  return acc;
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The field subjects a flattened rule pins, with the pinned value.
std::map<lang::Subject, std::uint64_t> pinned_fields(
    const lang::FlatRule& rule, const bdd::VarOrder& order) {
  std::map<lang::Subject, std::uint64_t> pins;
  for (const auto& subject : order.subjects()) {
    if (subject.kind != lang::Subject::Kind::kField) continue;
    if (auto v = point_constrained_value(rule, subject)) pins[subject] = *v;
  }
  return pins;
}

}  // namespace

util::Result<std::map<lang::Subject, std::uint64_t>> steering_pins(
    const lang::BoundRule& rule, const spec::Schema& schema,
    const FabricSpec& spec, const bdd::VarOrder& order,
    std::size_t max_dnf_terms) {
  if (spec.single()) return std::map<lang::Subject, std::uint64_t>{};
  auto flat = lang::flatten_rule(rule, schema, max_dnf_terms);
  if (!flat.ok()) return flat.error();
  if (touches_state(flat.value()))
    return util::Error{
        "fabric placement is stateless-only: rule reads or updates register "
        "state, which cannot be replicated across switches without changing "
        "update multiplicity",
        0, 0, "F150"};
  return pinned_fields(flat.value(), order);
}

std::optional<lang::Subject> choose_steering(
    const std::map<lang::Subject, std::size_t>& pinned_count,
    const bdd::VarOrder& order) {
  std::optional<lang::Subject> steer;
  std::size_t best = 0;
  for (const auto& [subject, count] : pinned_count) {
    if (count > best ||
        (count == best && steer && order.rank(subject) < order.rank(*steer))) {
      steer = subject;
      best = count;
    }
  }
  if (steer && best == 0) steer.reset();
  return steer;
}

std::vector<std::pair<std::size_t, lang::BoundRule>> restrict_to_leaves(
    const lang::BoundRule& rule, const FabricSpec& spec) {
  if (spec.single()) return {{0, rule}};
  std::vector<lang::ActionSet> leaf_actions(spec.leaves);
  for (std::uint16_t port : rule.actions.ports)
    leaf_actions[spec.leaf_of(port)].add_port(port);
  std::vector<std::pair<std::size_t, lang::BoundRule>> out;
  for (std::size_t leaf = 0; leaf < spec.leaves; ++leaf) {
    if (leaf_actions[leaf].is_drop()) continue;
    out.emplace_back(leaf,
                     lang::BoundRule{rule.cond, std::move(leaf_actions[leaf])});
  }
  return out;
}

lang::BoundRule steering_rule(const FabricSpec& spec, std::size_t leaf,
                              const std::optional<lang::Subject>& steer,
                              bool populated, bool needs_all,
                              const util::IntervalSet& values,
                              std::uint64_t steer_umax) {
  lang::BoundCondPtr cond;
  if (!populated) {
    cond = lang::BoundCond::make_const(false);
  } else if (!steer || needs_all) {
    cond = lang::BoundCond::make_const(true);
  } else {
    cond = interval_cond(*steer, values, steer_umax);
  }
  lang::ActionSet act;
  act.add_port(spec.downlink(leaf));
  return lang::BoundRule{std::move(cond), act};
}

util::Result<FabricPlacement> partition_for_fabric(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const FabricSpec& spec, const CompileOptions& opts) {
  if (!spec.valid())
    return util::Error{
        "fabric spec needs at least one leaf, and at least one spine unless "
        "it is the single switch (0 spines x 1 leaf)",
        0, 0, "F151"};

  FabricPlacement placement;
  placement.spec = spec;
  placement.total_rules = rules.size();
  placement.leaf_values.resize(spec.leaves);
  placement.leaf_needs_all.assign(spec.leaves, false);
  if (spec.single()) {
    // The identity: the one leaf runs the monolithic program.
    placement.leaf_rules.assign(1, rules);
    return placement;
  }
  placement.leaf_rules.resize(spec.leaves);

  auto flat_r = lang::flatten_rules(rules, schema, opts.max_dnf_terms);
  if (!flat_r.ok()) return flat_r.error();
  const auto& flat = flat_r.value();
  for (const auto& fr : flat)
    if (touches_state(fr))
      return util::Error{
          "fabric placement is stateless-only: rule reads or updates "
          "register state (reject at subscribe time with steering_pins)",
          0, 0, "F150"};

  const bdd::VarOrder order = choose_order(schema, flat, opts.order);
  const bdd::DomainMap domains(schema);

  std::vector<std::map<lang::Subject, std::uint64_t>> pins;
  pins.reserve(flat.size());
  std::map<lang::Subject, std::size_t> pinned_count;
  for (const auto& fr : flat) {
    pins.push_back(pinned_fields(fr, order));
    for (const auto& [subject, _] : pins.back()) ++pinned_count[subject];
  }
  const std::optional<lang::Subject> steer =
      choose_steering(pinned_count, order);
  placement.steer_subject = steer;
  if (steer) placement.steer_subject_name = schema.field(steer->id).path();

  // Per-leaf restriction + steering bookkeeping.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    std::optional<std::uint64_t> pin;
    if (steer) {
      const auto it = pins[i].find(*steer);
      if (it != pins[i].end()) pin = it->second;
    }
    if (pin) placement.pinned_rules++;
    for (auto& [leaf, restricted] : restrict_to_leaves(rules[i], spec)) {
      placement.leaf_rules[leaf].push_back(std::move(restricted));
      if (pin)
        placement.leaf_values[leaf] =
            placement.leaf_values[leaf].unite(util::IntervalSet::point(*pin));
      else
        placement.leaf_needs_all[leaf] = true;
    }
  }

  // Spine steering rules, one per leaf: "packets a leaf might forward must
  // reach it".
  const std::uint64_t steer_umax =
      steer ? domains.umax(*steer) : util::IntervalSet::kMax;
  placement.spine_rules.reserve(spec.leaves);
  for (std::size_t leaf = 0; leaf < spec.leaves; ++leaf)
    placement.spine_rules.push_back(steering_rule(
        spec, leaf, steer, !placement.leaf_rules[leaf].empty(),
        placement.leaf_needs_all[leaf], placement.leaf_values[leaf],
        steer_umax));
  return placement;
}

void FabricProgram::seal() {
  spine_digest = table::pipeline_digest(spine);
  leaf_digests.clear();
  for (const auto& leaf : leaves)
    leaf_digests.push_back(table::pipeline_digest(leaf));
  if (spec.single()) {
    fabric_digest = leaf_digests[0];
    return;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a_mix(h, spec.spines);
  h = fnv1a_mix(h, spec.leaves);
  h = fnv1a_mix(h, spine_digest);
  for (std::uint64_t d : leaf_digests) h = fnv1a_mix(h, d);
  fabric_digest = h;
}

CompileOptions spine_compile_options(CompileOptions opts) {
  opts.partition = PartitionMode::kOff;
  return opts;
}

util::Result<FabricProgram> compile_fabric(const spec::Schema& schema,
                                           const FabricPlacement& placement,
                                           const CompileOptions& opts) {
  FabricProgram program;
  program.spec = placement.spec;

  // The single switch has no spine program.
  if (placement.spec.spines > 0) {
    auto spine = compile_rules(schema, placement.spine_rules,
                               spine_compile_options(opts));
    if (!spine.ok()) return spine.error();
    program.spine = std::move(spine.value().pipeline);
  }

  program.leaves.reserve(placement.spec.leaves);
  for (std::size_t leaf = 0; leaf < placement.spec.leaves; ++leaf) {
    auto compiled = compile_rules(schema, placement.leaf_rules[leaf], opts);
    if (!compiled.ok()) return compiled.error();
    program.leaves.push_back(std::move(compiled.value().pipeline));
  }
  program.seal();
  return program;
}

}  // namespace camus::compiler
