#include "verify/equivalence.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_map.hpp"
#include "verify/subscriptions.hpp"

namespace camus::verify {

using bdd::NodeRef;
using lang::RelOp;
using lang::Subject;
using table::StateId;
using table::Table;
using table::ValueMatch;

namespace {

// Region starts a predicate on [0, umax] introduces: the first value on
// which its truth flips.
void predicate_cuts(RelOp op, std::uint64_t value, std::uint64_t umax,
                    std::vector<std::uint64_t>& out) {
  auto push = [&](std::uint64_t v) {
    if (v > 0 && v <= umax) out.push_back(v);
  };
  switch (op) {
    case RelOp::kLt:
      push(value);
      break;
    case RelOp::kEq:
      push(value);
      if (value != ~0ULL) push(value + 1);
      break;
    case RelOp::kGt:
      if (value != ~0ULL) push(value + 1);
      break;
  }
}

void entry_cuts(const ValueMatch& m, std::uint64_t umax,
                std::vector<std::uint64_t>& out) {
  if (m.kind == ValueMatch::Kind::kAny) return;
  if (m.lo > 0 && m.lo <= umax) out.push_back(m.lo);
  if (m.hi != ~0ULL && m.hi + 1 <= umax) out.push_back(m.hi + 1);
}

void sort_unique(std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

struct TripleKey {
  std::uint64_t state_node = 0;  // (state << 32) | node raw bits
  std::uint32_t rank = 0;
  friend bool operator==(const TripleKey&, const TripleKey&) = default;
};
struct TripleHash {
  std::size_t operator()(const TripleKey& k) const noexcept {
    return static_cast<std::size_t>(
        util::mix64(k.state_node ^ (static_cast<std::uint64_t>(k.rank) << 1)));
  }
};

struct Checker {
  Checker(const bdd::BddManager& m, NodeRef r, const table::Pipeline& p,
          const spec::Schema& s, const EquivalenceOptions& o)
      : mgr(m), root(r), pipe(p), schema(s), opts(o) {}

  const bdd::BddManager& mgr;
  NodeRef root;
  const table::Pipeline& pipe;
  const spec::Schema& schema;
  const EquivalenceOptions& opts;
  EquivalenceResult result;

  std::size_t n_ranks = 0;
  // Per rank: the pipeline stages for that subject in pipeline order
  // (several stages per subject occur on the stitched partitioned path:
  // the dispatch table plus the default shard's own table), and the
  // value-map stage when the subject was domain-compressed.
  std::vector<std::vector<const Table*>> tables_at;
  std::vector<const Table*> map_at;
  std::vector<std::uint64_t> umax_at;
  // Per rank: cuts shared by every state — value-map boundaries (the main
  // table then matches codes, constant within a map region) and, for
  // second-and-later same-rank stages, every entry boundary (the entry
  // state there depends on the first stage's outcome, so per-state cuts
  // would be unsound; the all-entry set over-approximates).
  std::vector<std::vector<std::uint64_t>> shared_cuts;
  // Per rank: per-state entry cuts of the *first* stage (raw domain,
  // uncompressed subjects).
  std::vector<std::unordered_map<StateId, std::vector<std::uint64_t>>>
      state_cuts;
  // Predicate cuts reachable from a BDD node inside its component.
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> node_cuts;

  std::unordered_set<TripleKey, TripleHash> visited;
  std::vector<std::uint64_t> path;  // representative value chosen per rank

  bool setup() {
    const auto& subjects = mgr.order().subjects();
    n_ranks = subjects.size();
    tables_at.assign(n_ranks, {});
    map_at.assign(n_ranks, nullptr);
    umax_at.assign(n_ranks, 0);
    shared_cuts.assign(n_ranks, {});
    state_cuts.resize(n_ranks);
    path.assign(n_ranks, 0);
    for (std::size_t k = 0; k < n_ranks; ++k)
      umax_at[k] = mgr.domains().umax(subjects[k]);

    // The co-traversal replays stages in rank order, so it is only sound
    // when the pipeline's stage sequence follows the reference variable
    // order with non-decreasing ranks — true of every compiled pipeline,
    // including the stitched partitioned layout whose dispatch stage and
    // default-shard stage share rank 0. Consecutive same-rank stages are
    // applied in pipeline order against the same field value. Anything
    // else is reported as unverifiable, never as (non-)equivalent.
    std::size_t prev_rank = 0;
    bool first = true;
    for (const auto& t : pipe.tables) {
      if (!mgr.order().contains(t.subject())) {
        result.detail = "table '" + t.name() +
                        "' keys on a subject the reference BDD does not "
                        "order; cannot co-traverse";
        return false;
      }
      const std::size_t k = mgr.order().rank(t.subject());
      if (!first && k < prev_rank) {
        result.detail =
            "pipeline stage order does not follow the reference variable "
            "order; cannot co-traverse";
        return false;
      }
      prev_rank = k;
      first = false;
      if (tables_at[k].empty()) {
        // First stage at this rank: the entry state is known exactly, so
        // its cuts can stay per-state.
        for (const auto& e : t.entries())
          entry_cuts(e.match, umax_at[k], state_cuts[k][e.state]);
        for (auto& [s, cuts] : state_cuts[k]) sort_unique(cuts);
      } else {
        // Later same-rank stages see a state produced by the earlier ones
        // at this very rank, so their cuts join the rank-wide shared set.
        for (const auto& e : t.entries())
          entry_cuts(e.match, umax_at[k], shared_cuts[k]);
        sort_unique(shared_cuts[k]);
      }
      tables_at[k].push_back(&t);
    }
    for (const auto& m : pipe.value_maps) {
      if (!mgr.order().contains(m.subject())) {
        result.detail = "value map '" + m.name() +
                        "' keys on a subject the reference BDD does not "
                        "order; cannot co-traverse";
        return false;
      }
      const std::size_t k = mgr.order().rank(m.subject());
      if (map_at[k]) {
        result.detail = "subject '" + m.name() +
                        "' has two value-map stages; cannot co-traverse";
        return false;
      }
      if (tables_at[k].size() > 1) {
        // A value map rewrites the field for *every* stage on the
        // subject; with several stages (stitched dispatch layouts) the
        // raw-vs-code domains cannot be told apart here. compress_domains
        // refuses to create this shape; reject it defensively.
        result.detail = "subject of value map '" + m.name() +
                        "' has multiple stages; cannot co-traverse";
        return false;
      }
      map_at[k] = &m;
      shared_cuts[k].clear();
      for (const auto& e : m.entries())
        entry_cuts(e.match, umax_at[k], shared_cuts[k]);
      sort_unique(shared_cuts[k]);
      // Code space is opaque to the raw domain: raw-value cuts from the
      // main table would be wrong, so the map boundaries replace them.
      state_cuts[k].clear();
    }
    return true;
  }

  // Cuts of every predicate reachable from u without leaving u's
  // component (nodes testing the same subject).
  const std::vector<std::uint64_t>& cuts_below(NodeRef u, std::size_t k) {
    auto it = node_cuts.find(u.raw());
    if (it != node_cuts.end()) return it->second;
    std::vector<std::uint64_t> cuts;
    std::unordered_set<std::uint32_t> seen;
    std::vector<NodeRef> stack{u};
    const Subject s = mgr.subject_of(u);
    while (!stack.empty()) {
      const NodeRef v = stack.back();
      stack.pop_back();
      if (v.is_terminal() || mgr.subject_of(v) != s) continue;
      if (!seen.insert(v.raw()).second) continue;
      const auto& n = mgr.node(v);
      const auto& p = mgr.var_pred(n.var);
      predicate_cuts(p.op, p.value, umax_at[k], cuts);
      stack.push_back(n.hi);
      stack.push_back(n.lo);
    }
    sort_unique(cuts);
    return node_cuts.emplace(u.raw(), std::move(cuts)).first->second;
  }

  // BDD cofactor of u at value v for rank k: consume every node testing
  // this subject.
  NodeRef descend(NodeRef u, std::size_t k, std::uint64_t v) const {
    while (!u.is_terminal() &&
           mgr.order().rank(mgr.subject_of(u)) == k) {
      const auto& n = mgr.node(u);
      const auto& p = mgr.var_pred(n.var);
      bool taken = false;
      switch (p.op) {
        case RelOp::kEq: taken = v == p.value; break;
        case RelOp::kLt: taken = v < p.value; break;
        case RelOp::kGt: taken = v > p.value; break;
      }
      u = taken ? n.hi : n.lo;
    }
    return u;
  }

  lang::Env build_env() const {
    lang::Env env;
    env.fields.assign(schema.fields().size(), 0);
    env.states.assign(schema.state_vars().size(), 0);
    const auto& subjects = mgr.order().subjects();
    for (std::size_t k = 0; k < n_ranks; ++k) {
      const Subject s = subjects[k];
      auto& slot = s.kind == Subject::Kind::kField ? env.fields : env.states;
      if (s.id < slot.size()) slot[s.id] = path[k];
    }
    return env;
  }

  // Returns false to abort the traversal (divergence found or budget
  // exhausted).
  bool walk(StateId state, NodeRef u, std::size_t k) {
    if (!visited
             .insert({(static_cast<std::uint64_t>(state) << 32) | u.raw(),
                      static_cast<std::uint32_t>(k)})
             .second)
      return true;
    if (++result.pairs_visited > opts.max_pairs) {
      result.completed = false;
      result.detail = "pair budget (" + std::to_string(opts.max_pairs) +
                      ") exhausted before the co-traversal finished";
      return false;
    }

    if (k == n_ranks) {
      // All fields consumed: u is a terminal (children's variables come
      // strictly later in the order, so no node survives the last rank).
      const table::LeafEntry* leaf = pipe.leaf.lookup(state);
      static const lang::ActionSet kDrop{};
      const lang::ActionSet& got = leaf ? *leaf->actions : kDrop;
      const lang::ActionSet& want = mgr.terminal_actions(u);
      if (got == want) return true;
      return report_divergence();
    }

    const auto& stages = tables_at[k];
    const Table* map = map_at[k];
    const bool bdd_here =
        !u.is_terminal() && mgr.order().rank(mgr.subject_of(u)) == k;

    // Region starts: 0 plus every boundary either side distinguishes —
    // the BDD component's predicate cuts, the first stage's cuts for the
    // entry state (or the map boundaries), and the rank-wide shared cuts
    // of any later same-rank stages.
    std::vector<std::uint64_t> cuts{0};
    if (bdd_here) {
      const auto& b = cuts_below(u, k);
      cuts.insert(cuts.end(), b.begin(), b.end());
    }
    if (map) {
      cuts.insert(cuts.end(), shared_cuts[k].begin(), shared_cuts[k].end());
    } else {
      if (!stages.empty()) {
        auto it = state_cuts[k].find(state);
        if (it != state_cuts[k].end())
          cuts.insert(cuts.end(), it->second.begin(), it->second.end());
      }
      if (stages.size() > 1)
        cuts.insert(cuts.end(), shared_cuts[k].begin(), shared_cuts[k].end());
    }
    sort_unique(cuts);

    for (const std::uint64_t rep : cuts) {
      ++result.regions_checked;
      path[k] = rep;
      std::uint64_t key = rep;
      if (map) {
        const table::Entry* code = map->lookup(table::kInitialState, rep);
        key = code ? code->next_state : 0;
      }
      StateId next = state;  // no stage: state passes through
      for (const Table* tbl : stages)
        if (const table::Entry* e = tbl->lookup(next, key))
          next = e->next_state;
      if (!walk(next, descend(u, k, rep), k + 1)) return false;
    }
    path[k] = 0;
    return true;
  }

  bool report_divergence() {
    lang::Env env = build_env();
    // Re-validate concretely so a checker bug cannot fabricate a wrong
    // counterexample.
    const lang::ActionSet& got = pipe.evaluate_actions(env);
    const lang::ActionSet& want = mgr.evaluate(root, env);
    if (got == want) {
      result.completed = false;
      result.detail =
          "internal: symbolic divergence did not reproduce concretely on " +
          render_env(env, schema);
      return false;
    }
    result.equivalent = false;
    result.counterexample = std::move(env);
    result.detail = "pipeline returns {" + got.to_string() +
                    "} but the reference returns {" + want.to_string() +
                    "} for packet " +
                    render_env(*result.counterexample, schema);
    return false;
  }

  EquivalenceResult run() {
    if (!setup()) {
      result.completed = false;
      return result;
    }
    walk(pipe.initial_state, root, 0);
    return result;
  }
};

}  // namespace

EquivalenceResult check_equivalence(const bdd::BddManager& mgr, NodeRef root,
                                    const table::Pipeline& pipe,
                                    const spec::Schema& schema,
                                    const EquivalenceOptions& opts) {
  Checker c{mgr, root, pipe, schema, opts};
  return c.run();
}

EquivalenceResult verify_equivalence(const bdd::BddManager& mgr, NodeRef root,
                                     const table::Pipeline& pipe,
                                     const spec::Schema& schema,
                                     Report& report,
                                     const EquivalenceOptions& opts) {
  EquivalenceResult r = check_equivalence(mgr, root, pipe, schema, opts);
  if (!r.completed) {
    report.add(LintCode::kVerifierBudget,
               "equivalence not decided: " + r.detail);
  } else if (!r.equivalent) {
    report.add(LintCode::kNotEquivalent, r.detail);
  }
  return r;
}

}  // namespace camus::verify
