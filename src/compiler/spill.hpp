// Graceful degradation: a hardware/software split of a subscription set.
// The highest-priority rules that fit the switch's resource budget are
// compiled into the hardware pipeline; the remainder spill to end-host
// software filtering (baseline::NaiveMatcher over spilled_flat). The two
// halves partition the rule set, and ActionSets merge by union, so
// switch-delivered ∪ host-filtered equals the unsplit semantics —
// differential-tested against the full BDD in tests/test_spill.cpp.
#pragma once

#include <vector>

#include "compiler/compile.hpp"
#include "lang/bound.hpp"
#include "lang/dnf.hpp"
#include "spec/schema.hpp"
#include "table/table.hpp"
#include "util/result.hpp"

namespace camus::compiler {

struct Split {
  Compiled hardware;                      // compiled top-priority prefix
  std::vector<lang::BoundRule> hw_rules;  // rules in the hardware pipeline
  std::vector<lang::BoundRule> spilled;   // rules left to the host
  std::vector<lang::FlatRule> spilled_flat;  // DNF of spilled (host matcher)
  table::ResourceUsage usage;             // of the hardware pipeline
  std::size_t compile_probes = 0;         // binary-search compilations

  bool degraded() const noexcept { return !spilled.empty(); }
};

// Compiles the largest highest-priority subset of `rules` (`priorities`
// parallel; higher = last to spill) whose pipeline fits `budget`. Rules
// rank by (priority desc, position asc); binary search over prefix
// compilations makes an over-budget set cost O(log n) compiles. Fails only
// when even the empty prefix cannot be compiled or a spilled rule fails
// DNF flattening. The Split holds copies of `rules`: a rule's shared
// condition pointer identifies it.
util::Result<Split> compile_with_budget(
    const spec::Schema& schema, const std::vector<lang::BoundRule>& rules,
    const std::vector<int>& priorities, const table::ResourceBudget& budget,
    const CompileOptions& opts = {});

}  // namespace camus::compiler
