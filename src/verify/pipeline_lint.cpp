#include "verify/pipeline_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace camus::verify {

using table::Entry;
using table::StateId;
using table::Table;
using table::ValueMatch;

namespace {

std::uint64_t domain_umax(const Table& t) {
  return t.width_bits() >= 64
             ? ~0ULL
             : (1ULL << t.width_bits()) - 1;
}

// Sorted disjoint intervals covering [0, umax]?
bool covers_domain(std::vector<std::pair<std::uint64_t, std::uint64_t>> ivs,
                   std::uint64_t umax) {
  if (ivs.empty()) return false;
  std::sort(ivs.begin(), ivs.end());
  std::uint64_t next = 0;  // first value not yet covered
  for (const auto& [lo, hi] : ivs) {
    if (lo > next) return false;
    if (hi >= next) {
      if (hi == ~0ULL) return true;
      next = hi + 1;
    }
    if (next > umax) return true;
  }
  return next > umax;
}

struct EntryCheck {
  PipelineLintStats* stats;
  Report* report;

  // One table's worth of priority-shadowing (P001) and dead-default
  // (P003) findings under Table::lookup's rule, which the lowered engine
  // shares: exact beats range beats any; duplicate exact/any keys keep the
  // last write.
  void check_table(const Table& t) {
    const std::uint64_t umax = domain_umax(t);
    // Group entry indices per state, preserving order.
    std::map<StateId, std::vector<std::size_t>> by_state;
    for (std::size_t i = 0; i < t.entries().size(); ++i) {
      ++stats->entries_checked;
      by_state[t.entries()[i].state].push_back(i);
    }

    for (const auto& [state, idxs] : by_state) {
      std::unordered_map<std::uint64_t, std::size_t> last_exact;
      std::size_t last_any = idxs.size();  // sentinel: none
      for (std::size_t i : idxs) {
        const Entry& e = t.entries()[i];
        if (e.match.kind == ValueMatch::Kind::kExact) {
          auto [it, inserted] = last_exact.emplace(e.match.lo, i);
          if (!inserted) {
            shadow(t, state, it->second,
                   "duplicate exact key " + std::to_string(e.match.lo) +
                       "; a later entry wins");
            it->second = i;
          }
        } else if (e.match.kind == ValueMatch::Kind::kAny) {
          if (last_any != idxs.size()) {
            shadow(t, state, last_any,
                   "duplicate wildcard; a later entry wins");
          }
          last_any = i;
        }
      }

      // Range entries fully covered by exact entries (exact has priority).
      std::vector<std::pair<std::uint64_t, std::uint64_t>> specific;
      for (std::size_t i : idxs) {
        const Entry& e = t.entries()[i];
        if (e.match.kind == ValueMatch::Kind::kExact) {
          if (last_exact.at(e.match.lo) == i)
            specific.emplace_back(e.match.lo, e.match.lo);
          continue;
        }
        if (e.match.kind != ValueMatch::Kind::kRange) continue;
        specific.emplace_back(e.match.lo, e.match.hi);
        const std::uint64_t span = e.match.hi - e.match.lo;
        if (span < last_exact.size()) {
          bool covered = true;
          for (std::uint64_t v = e.match.lo; covered; ++v) {
            if (!last_exact.count(v)) covered = false;
            if (v == e.match.hi) break;
          }
          if (covered) {
            shadow(t, state, i,
                   "every value of " + e.match.to_string() +
                       " is claimed by a higher-priority exact entry");
          }
        }
      }

      if (last_any != idxs.size() && covers_domain(specific, umax)) {
        ++stats->dead_defaults;
        auto& d = report->add(
            LintCode::kDeadDefault,
            "wildcard default never fires: exact/range entries already "
            "cover the whole " +
                std::to_string(t.width_bits()) + "-bit domain");
        d.table = t.name();
        d.state = state;
        d.entry = last_any;
      }
    }
  }

  void shadow(const Table& t, StateId state, std::size_t entry,
              const std::string& why) {
    ++stats->shadowed_entries;
    auto& d = report->add(LintCode::kShadowedEntry,
                          "entry can never match: " + why);
    d.table = t.name();
    d.state = state;
    d.entry = entry;
  }
};

}  // namespace

PipelineLintStats lint_pipeline(const table::Pipeline& pipe, Report& report,
                                const PipelineLintOptions& opts) {
  PipelineLintStats stats;

  // --- P008: structural soundness first ---------------------------------
  if (auto valid = pipe.validate(); !valid.ok()) {
    report.add(LintCode::kStructureInvalid, valid.error().message);
    return stats;  // downstream checks assume a well-formed pipeline
  }

  // --- P001 / P003 per table --------------------------------------------
  EntryCheck check{&stats, &report};
  for (const auto& t : pipe.tables) check.check_table(t);

  // --- P002: forward state reachability ---------------------------------
  // A lookup miss keeps the state, so the reachable set only grows stage
  // by stage. An entry keyed on a state not reachable when its stage runs
  // can never fire.
  std::unordered_set<StateId> reachable{pipe.initial_state};
  for (const auto& t : pipe.tables) {
    std::set<StateId> dead;  // ordered, deterministic report
    std::vector<StateId> produced;
    for (const auto& e : t.entries()) {
      if (reachable.count(e.state))
        produced.push_back(e.next_state);
      else
        dead.insert(e.state);
    }
    for (StateId s : dead) {
      ++stats.unreachable_states;
      auto& d = report.add(
          LintCode::kUnreachableState,
          "entries keyed on state " + std::to_string(s) +
              " are dead: no packet can be in that state at this stage");
      d.table = t.name();
      d.state = s;
    }
    reachable.insert(produced.begin(), produced.end());
  }
  {
    std::set<StateId> dead;
    for (const auto& e : pipe.leaf.entries())
      if (!reachable.count(e.state)) dead.insert(e.state);
    for (StateId s : dead) {
      ++stats.unreachable_states;
      auto& d = report.add(LintCode::kUnreachableState,
                           "leaf entry for state " + std::to_string(s) +
                               " is dead: the state is never produced");
      d.table = "leaf";
      d.state = s;
    }
  }

  // --- P004: transitions into undefined states --------------------------
  // "Defined" from stage k onward: keyed by a later stage or present in
  // the leaf table. Inbound counts decide the heuristic severity (the
  // drop sink is normally targeted by many entries; see header).
  std::unordered_set<StateId> leaf_states;
  for (const auto& e : pipe.leaf.entries()) leaf_states.insert(e.state);
  // defined_after[k]: states keyed by any table with index > k.
  std::vector<std::unordered_set<StateId>> keyed_by(pipe.tables.size());
  for (std::size_t k = 0; k < pipe.tables.size(); ++k)
    for (const auto& e : pipe.tables[k].entries())
      keyed_by[k].insert(e.state);
  std::unordered_map<StateId, std::size_t> inbound;
  for (const auto& t : pipe.tables)
    for (const auto& e : t.entries()) ++inbound[e.next_state];

  for (std::size_t k = 0; k < pipe.tables.size(); ++k) {
    std::set<std::pair<StateId, std::size_t>> dangling;  // state, entry
    for (std::size_t i = 0; i < pipe.tables[k].entries().size(); ++i) {
      const Entry& e = pipe.tables[k].entries()[i];
      if (leaf_states.count(e.next_state)) continue;
      bool keyed_later = false;
      for (std::size_t j = k + 1; j < pipe.tables.size() && !keyed_later; ++j)
        keyed_later = keyed_by[j].count(e.next_state) != 0;
      if (!keyed_later) dangling.emplace(e.next_state, i);
    }
    for (const auto& [s, i] : dangling) {
      ++stats.dangling_transitions;
      const bool lone = inbound[s] == 1;
      auto& d = report.add(
          LintCode::kDanglingTransition,
          "transition into state " + std::to_string(s) +
              ", which no later stage keys on and the leaf table does not "
              "define" +
              (lone ? " (single reference: likely a corrupted entry)"
                    : " (drop-sink encoding)"));
      if (!lone) d.severity = Severity::kNote;
      d.table = pipe.tables[k].name();
      d.state = pipe.tables[k].entries()[i].state;
      d.entry = i;
    }
  }

  // --- P005 / P006: resource model --------------------------------------
  if (opts.check_resources) {
    auto check_stage = [&](const Table& t) {
      const table::ResourceUsage u = t.resources();
      if (u.sram_entries > opts.budget.sram_entries_per_stage ||
          u.tcam_entries > opts.budget.tcam_entries_per_stage) {
        ++stats.stages_over_budget;
        auto& d = report.add(
            LintCode::kStageOverBudget,
            "stage needs " + std::to_string(u.sram_entries) + " SRAM / " +
                std::to_string(u.tcam_entries) + " TCAM entries; budget is " +
                std::to_string(opts.budget.sram_entries_per_stage) + " / " +
                std::to_string(opts.budget.tcam_entries_per_stage) +
                " per stage");
        d.table = t.name();
      }
    };
    for (const auto& t : pipe.value_maps) check_stage(t);
    for (const auto& t : pipe.tables) check_stage(t);
    if (pipe.leaf.entries().size() > opts.budget.sram_entries_per_stage) {
      ++stats.stages_over_budget;
      auto& d = report.add(
          LintCode::kStageOverBudget,
          "leaf table needs " + std::to_string(pipe.leaf.entries().size()) +
              " SRAM entries; budget is " +
              std::to_string(opts.budget.sram_entries_per_stage) +
              " per stage");
      d.table = "leaf";
    }

    const table::ResourceUsage total = pipe.resources();
    if (total.stages > opts.budget.max_stages) {
      report.add(LintCode::kPipelineOverBudget,
                 "pipeline needs " + std::to_string(total.stages) +
                     " stages; the device has " +
                     std::to_string(opts.budget.max_stages));
    }
    if (total.multicast_groups > opts.budget.max_multicast_groups) {
      report.add(LintCode::kPipelineOverBudget,
                 "pipeline needs " + std::to_string(total.multicast_groups) +
                     " multicast groups; the device supports " +
                     std::to_string(opts.budget.max_multicast_groups));
    }
  }

  return stats;
}

}  // namespace camus::verify
