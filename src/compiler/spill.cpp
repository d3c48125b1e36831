#include "compiler/spill.hpp"

#include <algorithm>
#include <numeric>

namespace camus::compiler {

using util::Error;
using util::Result;

Result<Split> compile_with_budget(const spec::Schema& schema,
                                  const std::vector<lang::BoundRule>& rules,
                                  const std::vector<int>& priorities,
                                  const table::ResourceBudget& budget,
                                  const CompileOptions& opts) {
  // Rank: priority desc, insertion order asc (stable for equal priority).
  std::vector<std::size_t> order(rules.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return priorities[a] > priorities[b];
                   });

  Split split;

  // Compiles the top-k prefix; returns whether it fits, leaving the
  // artifact of the last successful compile in `split.hardware`.
  auto try_prefix = [&](std::size_t k, Compiled* out) -> Result<bool> {
    std::vector<lang::BoundRule> prefix;
    prefix.reserve(k);
    for (std::size_t i = 0; i < k; ++i) prefix.push_back(rules[order[i]]);
    auto c = compile_rules(schema, prefix, opts);
    ++split.compile_probes;
    if (!c.ok()) return c.error();
    const bool fits = budget.fits(c.value().pipeline.resources());
    if (fits) *out = std::move(c).take();
    return fits;
  };

  // Fast path: everything fits (the common, non-degraded case).
  auto all = try_prefix(rules.size(), &split.hardware);
  if (!all.ok()) return all.error();
  std::size_t cut = rules.size();
  if (!all.value()) {
    // Binary search the largest prefix that fits. Resource usage is
    // monotone in the rule set for this compiler (more rules never free
    // entries), so the predicate is monotone in k. lo is known-good (the
    // empty pipeline always fits), hi is known-bad.
    std::size_t lo = 0, hi = rules.size();
    auto empty = try_prefix(0, &split.hardware);
    if (!empty.ok()) return empty.error();
    if (!empty.value())
      return Error{"even the empty pipeline exceeds the resource budget"};
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Compiled probe;
      auto fits = try_prefix(mid, &probe);
      if (!fits.ok()) return fits.error();
      if (fits.value()) {
        split.hardware = std::move(probe);
        lo = mid;
      } else {
        hi = mid;
      }
    }
    cut = lo;
  }

  split.usage = split.hardware.pipeline.resources();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i < cut)
      split.hw_rules.push_back(rules[order[i]]);
    else
      split.spilled.push_back(rules[order[i]]);
  }
  auto flat = lang::flatten_rules(split.spilled, schema);
  if (!flat.ok()) return flat.error();
  split.spilled_flat = std::move(flat).take();
  return split;
}

}  // namespace camus::compiler
