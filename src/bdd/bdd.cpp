#include "bdd/bdd.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace camus::bdd {

using lang::Conjunction;
using lang::FlatRule;
using util::IntervalSet;

void CacheStats::accumulate(const CacheStats& other) {
  unique_nodes += other.unique_nodes;
  terminals += other.terminals;
  vars += other.vars;
  unite_probes += other.unite_probes;
  unite_hits += other.unite_hits;
  unite_res_probes += other.unite_res_probes;
  unite_res_hits += other.unite_res_hits;
  split_probes += other.split_probes;
  split_hits += other.split_hits;
}

double CacheStats::memo_hit_rate() const noexcept {
  const std::uint64_t probes = unite_probes + unite_res_probes;
  if (probes == 0) return 0;
  return static_cast<double>(unite_hits + unite_res_hits) /
         static_cast<double>(probes);
}

BddManager::BddManager(VarOrder order, DomainMap domains)
    : order_(std::move(order)), domains_(std::move(domains)) {
  // Terminal 0 is always the empty ActionSet (drop).
  terminals_.push_back(lang::drop_actions());
  terminal_index_.insert(terminals_[0]->hash(), 0);
}

std::uint32_t BddManager::var_for(const BoundPredicate& p) {
  if (!order_.contains(p.subject))
    throw std::invalid_argument("predicate subject not in variable order");
  auto it = var_ids_.find(p);
  if (it != var_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(vars_.size());
  vars_.push_back(p);
  var_ids_.emplace(p, id);
  return id;
}

template <typename Make>
NodeRef BddManager::intern_terminal(const ActionSet& actions, Make&& make) {
  const std::uint64_t h = actions.hash();
  const std::uint32_t found = terminal_index_.find(
      h, [&](std::uint32_t id) { return *terminals_[id] == actions; });
  if (found != util::FlatIndex::kNone) return NodeRef::terminal(found);
  const std::uint32_t id = static_cast<std::uint32_t>(terminals_.size());
  terminals_.push_back(make());
  terminal_index_.insert(h, id);
  return NodeRef::terminal(id);
}

NodeRef BddManager::terminal(const ActionSet& actions) {
  return intern_terminal(
      actions, [&] { return std::make_shared<const ActionSet>(actions); });
}

NodeRef BddManager::terminal(ActionSet&& actions) {
  return intern_terminal(actions, [&] {
    return std::make_shared<const ActionSet>(std::move(actions));
  });
}

const lang::ActionSetPtr& BddManager::terminal_set(NodeRef t) const {
  if (!t.is_terminal())
    throw std::invalid_argument("terminal_actions on a non-terminal ref");
  return terminals_.at(t.index());
}

NodeRef BddManager::merge_terminals(NodeRef a, NodeRef b) {
  ActionSet merged = terminal_actions(a);
  merged.merge(terminal_actions(b));
  return terminal(std::move(merged));
}

NodeRef BddManager::mk(std::uint32_t var, NodeRef lo, NodeRef hi) {
  if (lo == hi) return lo;  // reduction (ii): redundant test
  // Enforce the variable order invariant.
  const BoundPredicate& p = vars_.at(var);
  for (NodeRef child : {lo, hi}) {
    if (!child.is_terminal() && !order_.less(p, vars_[node(child).var]))
      throw std::logic_error("BDD variable order violated in mk()");
  }
  const Key96 key{(static_cast<std::uint64_t>(var) << 32) | lo.raw(),
                  hi.raw()};
  if (const std::uint32_t* found = unique_.find(key))
    return NodeRef::node(*found);  // reduction (i)
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_.insert(key, id);
  return NodeRef::node(id);
}

IntervalSet BddManager::true_values(std::uint32_t var) const {
  const BoundPredicate& p = vars_.at(var);
  return lang::predicate_values(p.op, p.value, /*positive=*/true,
                                domains_.umax(p.subject));
}

NodeRef BddManager::build_conjunction(const Conjunction& conj,
                                      const ActionSet& actions) {
  NodeRef cont = terminal(actions);
  const NodeRef rej = drop();

  // Encode subjects from the back of the order so each encoded component
  // sits above the ones already built.
  std::vector<std::pair<std::size_t, const IntervalSet*>> by_rank;
  by_rank.reserve(conj.constraints.size());
  for (const auto& [subj, set] : conj.constraints)
    by_rank.emplace_back(order_.rank(subj), &set);
  std::sort(by_rank.begin(), by_rank.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [rank, set] : by_rank) {
    const Subject subj = order_.subjects()[rank];
    const std::uint64_t umax = domains_.umax(subj);
    if (set->is_empty()) return rej;
    if (set->is_all(umax)) continue;

    // Build the interval test chain for this subject. Intervals are sorted
    // ascending; encode() handles the suffix starting at interval i under
    // the invariant that the value is known not to lie in any earlier
    // interval.
    const auto& ivs = set->intervals();
    std::function<NodeRef(std::size_t)> encode =
        [&](std::size_t i) -> NodeRef {
      if (i == ivs.size()) return rej;
      const auto [l, h] = ivs[i];
      if (l == h) {
        // Point: value == l -> cont, else try later intervals (values below
        // l fall through the remaining chain to rej).
        return mk(var_for({subj, lang::RelOp::kEq, l}), encode(i + 1), cont);
      }
      // Interval [l, h]: reject v < l, accept l <= v <= h, recurse v > h.
      NodeRef inner =
          h == umax
              ? cont
              : mk(var_for({subj, lang::RelOp::kGt, h}), cont, encode(i + 1));
      if (l == 0) return inner;
      return mk(var_for({subj, lang::RelOp::kLt, l}), inner, rej);
    };
    cont = encode(0);
  }
  return cont;
}

NodeRef BddManager::build_rule(const FlatRule& rule) {
  std::vector<NodeRef> roots;
  roots.reserve(rule.terms.size());
  for (const auto& term : rule.terms)
    roots.push_back(build_conjunction(term, rule.actions));
  return unite_all(std::move(roots));
}

std::uint32_t BddManager::intern_set(const util::IntervalSet& s) {
  auto it = set_ids_.find(s);
  if (it != set_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(sets_.size());
  sets_.push_back(s);
  set_ids_.emplace(s, id);
  return id;
}

std::uint32_t BddManager::full_set_id(std::size_t rank) {
  if (full_set_by_rank_.size() <= rank)
    full_set_by_rank_.resize(rank + 1, 0xffffffffu);
  if (full_set_by_rank_[rank] == 0xffffffffu) {
    full_set_by_rank_[rank] = intern_set(
        util::IntervalSet::all(domains_.umax(order_.subjects()[rank])));
  }
  return full_set_by_rank_[rank];
}

NodeRef BddManager::unite(NodeRef a, NodeRef b, bool semantic) {
  if (!semantic) return unite_rec(a, b);
  NodeRef top = a.is_terminal() ? b : a;
  if (!a.is_terminal() && !b.is_terminal() &&
      order_.less(vars_[node(b).var], vars_[node(a).var]))
    top = b;
  if (top.is_terminal()) {
    // Both terminal: plain merge.
    return unite_rec(a, b);
  }
  const std::size_t rank = order_.rank(subject_of(top));
  return unite_res(a, b, rank, full_set_id(rank));
}

NodeRef BddManager::unite_rec(NodeRef a, NodeRef b) {
  if (a == b) return a;
  if (a == drop()) return b;
  if (b == drop()) return a;
  if (a.is_terminal() && b.is_terminal()) return merge_terminals(a, b);
  // Union is commutative: canonicalize the cache key.
  if (a.raw() > b.raw()) std::swap(a, b);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(a.raw()) << 32) | b.raw();
  if (const NodeRef* found = unite_cache_.find(key)) return *found;

  NodeRef res;
  if (a.is_terminal()) {
    const Node nb = node(b);
    res = mk(nb.var, unite_rec(a, nb.lo), unite_rec(a, nb.hi));
  } else if (b.is_terminal()) {
    const Node na = node(a);
    res = mk(na.var, unite_rec(na.lo, b), unite_rec(na.hi, b));
  } else {
    const Node na = node(a);
    const Node nb = node(b);
    if (na.var == nb.var) {
      res = mk(na.var, unite_rec(na.lo, nb.lo), unite_rec(na.hi, nb.hi));
    } else if (order_.less(vars_[na.var], vars_[nb.var])) {
      res = mk(na.var, unite_rec(na.lo, b), unite_rec(na.hi, b));
    } else {
      res = mk(nb.var, unite_rec(a, nb.lo), unite_rec(a, nb.hi));
    }
  }
  unite_cache_.insert(key, res);
  return res;
}

NodeRef BddManager::unite_res(NodeRef a, NodeRef b, std::size_t rank_in,
                              std::uint32_t residual_id) {
  if (a.is_terminal() && b.is_terminal())
    return a == b ? a : merge_terminals(a, b);
  // Union is commutative: canonicalize the memo key.
  if (a.raw() > b.raw()) std::swap(a, b);

  // Copy node contents: nodes_ may reallocate inside recursive mk() calls.
  const bool a_node = !a.is_terminal();
  const bool b_node = !b.is_terminal();
  const Node na = a_node ? node(a) : Node{};
  const Node nb = b_node ? node(b) : Node{};
  std::uint32_t v;
  if (a_node && b_node) {
    v = order_.less(vars_[na.var], vars_[nb.var]) ? na.var : nb.var;
  } else {
    v = a_node ? na.var : nb.var;
  }
  const std::size_t rank = order_.rank(vars_[v].subject);
  // Residual constraints only travel within one field's component
  // (ancestors on preceding fields cannot constrain this field).
  if (rank != rank_in) residual_id = full_set_id(rank);

  const Key96 key{(static_cast<std::uint64_t>(a.raw()) << 32) | b.raw(),
                  residual_id};
  if (const NodeRef* found = unite_res_cache_.find(key)) return *found;

  // Split the residual domain by this predicate (cached per (var,
  // residual): the split is independent of the node pair).
  const std::uint64_t skey =
      (static_cast<std::uint64_t>(v) << 32) | residual_id;
  std::uint32_t hi_id, lo_id;
  if (const auto* split = split_cache_.find(skey)) {
    hi_id = split->first;
    lo_id = split->second;
  } else {
    const IntervalSet tv = true_values(v);
    const IntervalSet& residual = sets_[residual_id];
    hi_id = intern_set(residual.intersect(tv));
    lo_id = intern_set(sets_[residual_id].subtract(tv));
    split_cache_.insert(skey, {hi_id, lo_id});
  }

  auto cof = [&](NodeRef r, bool is_node, const Node& n, bool hi) {
    return (is_node && n.var == v) ? (hi ? n.hi : n.lo) : r;
  };
  const NodeRef a_lo = cof(a, a_node, na, false);
  const NodeRef a_hi = cof(a, a_node, na, true);
  const NodeRef b_lo = cof(b, b_node, nb, false);
  const NodeRef b_hi = cof(b, b_node, nb, true);

  NodeRef res;
  if (sets_[hi_id].is_empty()) {
    // Predicate implied false by ancestors: reduction (iii), skip node.
    res = unite_res(a_lo, b_lo, rank, lo_id);
  } else if (sets_[lo_id].is_empty()) {
    // Predicate implied true: reduction (iii), skip node.
    res = unite_res(a_hi, b_hi, rank, hi_id);
  } else {
    const NodeRef lo = unite_res(a_lo, b_lo, rank, lo_id);
    const NodeRef hi = unite_res(a_hi, b_hi, rank, hi_id);
    res = mk(v, lo, hi);
  }
  unite_res_cache_.insert(key, res);
  return res;
}

NodeRef BddManager::unite_all(std::vector<NodeRef> roots, bool semantic) {
  if (roots.empty()) return drop();
  while (roots.size() > 1) {
    std::vector<NodeRef> next;
    next.reserve((roots.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < roots.size(); i += 2)
      next.push_back(unite(roots[i], roots[i + 1], semantic));
    if (roots.size() % 2) next.push_back(roots.back());
    roots = std::move(next);
  }
  return roots[0];
}

NodeRef BddManager::prune(NodeRef root) {
  if (root.is_terminal()) return root;
  const std::size_t rank = order_.rank(subject_of(root));
  return unite_res(drop(), root, rank, full_set_id(rank));
}

const ActionSet& BddManager::evaluate(NodeRef root,
                                      const lang::Env& env) const {
  NodeRef cur = root;
  while (!cur.is_terminal()) {
    const Node& n = node(cur);
    cur = lang::eval_pred(vars_[n.var], env) ? n.hi : n.lo;
  }
  return terminal_actions(cur);
}

std::optional<lang::Env> BddManager::find_witness(
    NodeRef a, NodeRef b,
    const std::function<bool(const ActionSet&, const ActionSet&)>& pred,
    const lang::Env& env_template) const {
  constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

  // Local residual-set interning: this is a const query, so the manager's
  // own interning tables are left untouched (and the method stays safe to
  // call from concurrent readers).
  std::vector<IntervalSet> sets;
  std::unordered_map<IntervalSet, std::uint32_t, SetHash> set_ids;
  auto intern = [&](const IntervalSet& s) -> std::uint32_t {
    auto it = set_ids.find(s);
    if (it != set_ids.end()) return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(sets.size());
    sets.push_back(s);
    set_ids.emplace(s, id);
    return id;
  };

  // Visited (a, b, residual) triples: a subtree's outcome depends only on
  // this triple, so an unsuccessful subtree never needs re-exploration.
  struct TripleHash {
    std::size_t operator()(const Key96& k) const noexcept {
      return Key96Hash{}(k);
    }
  };
  std::unordered_set<Key96, TripleHash> visited;

  // Residual constraints of completed subjects along the current path.
  std::vector<std::pair<std::size_t, std::uint32_t>> path;
  std::optional<lang::Env> witness;

  std::function<bool(NodeRef, NodeRef, std::size_t, std::uint32_t)> walk =
      [&](NodeRef x, NodeRef y, std::size_t rank,
          std::uint32_t res) -> bool {
    if (x.is_terminal() && y.is_terminal()) {
      if (!pred(terminal_actions(x), terminal_actions(y))) return false;
      lang::Env env = env_template;
      auto set_value = [&](std::size_t r, std::uint32_t rid) {
        const Subject s = order_.subjects()[r];
        auto& slot =
            s.kind == Subject::Kind::kField ? env.fields : env.states;
        if (slot.size() <= s.id) slot.resize(s.id + 1, 0);
        slot[s.id] = sets[rid].min();
      };
      for (const auto& [r, rid] : path) set_value(r, rid);
      if (rank != kNoRank) set_value(rank, res);
      witness = std::move(env);
      return true;
    }

    const bool xn = !x.is_terminal();
    const bool yn = !y.is_terminal();
    const Node nx = xn ? node(x) : Node{};
    const Node ny = yn ? node(y) : Node{};
    std::uint32_t v;
    if (xn && yn) {
      v = order_.less(vars_[nx.var], vars_[ny.var]) ? nx.var : ny.var;
    } else {
      v = xn ? nx.var : ny.var;
    }
    const std::size_t vrank = order_.rank(vars_[v].subject);
    if (vrank != rank) {
      // Crossing into a new field: the finished subject's residual joins
      // the path; the new subject starts from its full domain.
      if (rank != kNoRank) path.emplace_back(rank, res);
      const std::uint32_t full = intern(
          IntervalSet::all(domains_.umax(order_.subjects()[vrank])));
      const bool hit = walk(x, y, vrank, full);
      if (rank != kNoRank) path.pop_back();
      return hit;
    }

    const Key96 key{
        (static_cast<std::uint64_t>(x.raw()) << 32) | y.raw(), res};
    if (!visited.insert(key).second) return false;

    const IntervalSet tv = true_values(v);
    const IntervalSet hi_set = sets[res].intersect(tv);
    const IntervalSet lo_set = sets[res].subtract(tv);
    auto cof = [&](NodeRef r, bool is_node, const Node& n, bool hi) {
      return (is_node && n.var == v) ? (hi ? n.hi : n.lo) : r;
    };
    if (!hi_set.is_empty() &&
        walk(cof(x, xn, nx, true), cof(y, yn, ny, true), rank,
             intern(hi_set)))
      return true;
    if (!lo_set.is_empty() &&
        walk(cof(x, xn, nx, false), cof(y, yn, ny, false), rank,
             intern(lo_set)))
      return true;
    return false;
  };

  walk(a, b, kNoRank, 0);
  return witness;
}

bool BddManager::implies(NodeRef a, NodeRef b) const {
  return !find_witness(a, b,
                       [](const ActionSet& x, const ActionSet& y) {
                         return !x.is_drop() && y.is_drop();
                       })
              .has_value();
}

bool BddManager::intersects(NodeRef a, NodeRef b) const {
  return find_witness(a, b,
                      [](const ActionSet& x, const ActionSet& y) {
                        return !x.is_drop() && !y.is_drop();
                      })
      .has_value();
}

bool BddManager::equivalent(NodeRef a, NodeRef b) const {
  return !find_witness(a, b,
                       [](const ActionSet& x, const ActionSet& y) {
                         return x != y;
                       })
              .has_value();
}

BddStats BddManager::stats(NodeRef root) const {
  BddStats s;
  // Visits marked in flat arrays sized to the node, terminal and variable
  // tables: one pass, no hashing.
  std::vector<std::uint8_t> seen_nodes(nodes_.size());
  std::vector<std::uint8_t> seen_terms(terminals_.size());
  std::vector<std::uint8_t> seen_vars(vars_.size());
  std::vector<std::size_t> per_var(vars_.size());
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (r.is_terminal()) {
      s.terminal_count += !std::exchange(seen_terms[r.index()], 1);
      continue;
    }
    if (std::exchange(seen_nodes[r.index()], 1)) continue;
    ++s.node_count;
    const Node& n = node(r);
    s.var_count += !std::exchange(seen_vars[n.var], 1);
    ++per_var[n.var];
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  for (std::uint32_t v = 0; v < per_var.size(); ++v)
    if (per_var[v]) s.nodes_per_subject[vars_[v].subject] += per_var[v];
  return s;
}

CacheStats BddManager::cache_stats() const {
  CacheStats s;
  s.unique_nodes = nodes_.size();
  s.terminals = terminals_.size();
  s.vars = vars_.size();
  s.unite_probes = unite_cache_.probes();
  s.unite_hits = unite_cache_.hits();
  s.unite_res_probes = unite_res_cache_.probes();
  s.unite_res_hits = unite_res_cache_.hits();
  s.split_probes = split_cache_.probes();
  s.split_hits = split_cache_.hits();
  return s;
}

std::size_t BddManager::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node);
  bytes += vars_.capacity() * sizeof(BoundPredicate);
  // Each terminal's set once (it is shared with the tables, not copied).
  bytes += terminals_.capacity() * sizeof(lang::ActionSetPtr);
  for (const lang::ActionSetPtr& t : terminals_)
    bytes += sizeof(ActionSet) + t->ports.capacity() * sizeof(t->ports[0]) +
             t->state_updates.capacity() * sizeof(t->state_updates[0]);
  bytes += terminal_index_.memory_bytes();
  bytes += unique_.memory_bytes();
  bytes += unite_cache_.memory_bytes();
  bytes += unite_res_cache_.memory_bytes();
  bytes += split_cache_.memory_bytes();
  for (const util::IntervalSet& s : sets_)
    bytes += s.intervals().capacity() * sizeof(s.intervals()[0]);
  bytes += sets_.capacity() * sizeof(util::IntervalSet);
  return bytes;
}

std::string BddManager::to_dot(NodeRef root,
                               const spec::Schema* schema) const {
  auto subj_name = [&](Subject s) -> std::string {
    if (schema) {
      return s.kind == Subject::Kind::kField ? schema->field(s.id).name
                                             : schema->state_var(s.id).name;
    }
    // Appended: gcc 12 at -O3 warns falsely (-Wrestrict) on an inlined
    // "literal" + std::string&&.
    std::string name(1, s.kind == Subject::Kind::kField ? 'f' : 'v');
    name += std::to_string(s.id);
    return name;
  };

  std::ostringstream os;
  os << "digraph bdd {\n  rankdir=TB;\n";
  std::unordered_set<std::uint32_t> seen_nodes, seen_terms;
  std::function<void(NodeRef)> walk = [&](NodeRef r) {
    if (r.is_terminal()) {
      if (!seen_terms.insert(r.index()).second) return;
      os << "  t" << r.index() << " [shape=box,label=\""
         << terminal_actions(r).to_string() << "\"];\n";
      return;
    }
    if (!seen_nodes.insert(r.index()).second) return;
    const Node& n = node(r);
    const BoundPredicate& p = vars_[n.var];
    os << "  n" << r.index() << " [shape=ellipse,label=\""
       << subj_name(p.subject) << " " << lang::to_string(p.op) << " "
       << p.value << "\"];\n";
    auto edge = [&](NodeRef child, bool solid) {
      os << "  n" << r.index() << " -> "
         << (child.is_terminal() ? "t" : "n") << child.index()
         << (solid ? " [style=solid];\n" : " [style=dashed];\n");
    };
    edge(n.hi, true);
    edge(n.lo, false);
    walk(n.lo);
    walk(n.hi);
  };
  walk(root);
  os << "}\n";
  return os.str();
}

void BddManager::clear_caches() {
  unite_cache_.clear();
  unite_res_cache_.clear();
  split_cache_.clear();
}

}  // namespace camus::bdd
