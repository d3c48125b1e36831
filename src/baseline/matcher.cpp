#include "baseline/matcher.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace camus::baseline {

using lang::ActionSet;
using lang::Env;
using lang::FlatRule;
using lang::Subject;
using util::IntervalSet;

NaiveMatcher::NaiveMatcher(std::vector<FlatRule> rules)
    : rules_(std::move(rules)) {}

ActionSet NaiveMatcher::match(const Env& env) const {
  ActionSet out;
  for (const auto& r : rules_) {
    if (lang::eval_flat_rule(r, env)) out.merge(r.actions);
  }
  return out;
}

CountingMatcher::CountingMatcher(const std::vector<FlatRule>& rules,
                                 const spec::Schema& /*schema*/) {
  rule_actions_.reserve(rules.size());
  // Collect constraints per subject across all conjunctions.
  std::map<Subject, std::vector<std::pair<IntervalSet, std::uint32_t>>>
      per_subject;
  for (std::uint32_t r = 0; r < rules.size(); ++r) {
    rule_actions_.push_back(rules[r].actions);
    for (const auto& term : rules[r].terms) {
      const std::uint32_t cid = static_cast<std::uint32_t>(conj_.size());
      conj_.push_back({static_cast<std::uint32_t>(term.constraints.size()),
                       r});
      if (term.constraints.empty()) {
        always_true_.push_back(cid);
        continue;
      }
      for (const auto& [subj, set] : term.constraints)
        per_subject[subj].emplace_back(set, cid);
    }
  }

  // Build the elementary-segment index per subject.
  for (auto& [subj, constraints] : per_subject) {
    SubjectIndex idx;
    idx.subject = subj;
    std::set<std::uint64_t> cuts{0};
    for (const auto& [set, cid] : constraints) {
      for (const auto& iv : set.intervals()) {
        cuts.insert(iv.lo);
        if (iv.hi != IntervalSet::kMax) cuts.insert(iv.hi + 1);
      }
    }
    idx.bounds.assign(cuts.begin(), cuts.end());
    idx.satisfied.resize(idx.bounds.size());
    for (const auto& [set, cid] : constraints) {
      for (const auto& iv : set.intervals()) {
        // Segments covered by [lo, hi]: all bounds in [lo, hi].
        auto first = std::lower_bound(idx.bounds.begin(), idx.bounds.end(),
                                      iv.lo);
        for (auto it = first; it != idx.bounds.end() && *it <= iv.hi; ++it)
          idx.satisfied[static_cast<std::size_t>(it - idx.bounds.begin())]
              .push_back(cid);
      }
    }
    subjects_.push_back(std::move(idx));
  }
  counters_.resize(conj_.size());
}

ActionSet CountingMatcher::match(const Env& env) const {
  std::fill(counters_.begin(), counters_.end(), 0);
  ActionSet out;
  for (const auto& idx : subjects_) {
    const std::uint64_t v = env.get(idx.subject);
    auto it = std::upper_bound(idx.bounds.begin(), idx.bounds.end(), v);
    const std::size_t seg = static_cast<std::size_t>(it - idx.bounds.begin()) - 1;
    for (std::uint32_t cid : idx.satisfied[seg]) {
      if (++counters_[cid] == conj_[cid].needed)
        out.merge(rule_actions_[conj_[cid].rule]);
    }
  }
  for (std::uint32_t cid : always_true_)
    out.merge(rule_actions_[conj_[cid].rule]);
  return out;
}

}  // namespace camus::baseline
