// Multi-terminal binary decision diagram (MTBDD) over atomic packet
// predicates — the compiler's primary internal data structure (paper §3.2).
//
// Non-terminal nodes test one atomic predicate; the hi edge is taken when
// the predicate is true, the lo edge when false. Terminal nodes carry an
// ActionSet — the union of the actions of every subscription the packet
// satisfies. Terminal 0 is the empty set (drop).
//
// The manager implements the paper's three reductions:
//   (i)  isomorphic-node sharing via a hash-consing unique table,
//   (ii) redundant-test elimination (lo == hi) inside mk(),
//   (iii) domain-semantic pruning: a node whose predicate is implied
//         true/false by its ancestors on the same field collapses to the
//         corresponding branch (prune()).
// Reductions (i)/(ii) are applied eagerly during construction and union;
// reduction (iii) runs as a rewrite pass carrying the residual value domain
// of the current field.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/order.hpp"
#include "lang/bound.hpp"
#include "lang/dnf.hpp"
#include "util/flat_map.hpp"
#include "util/interval.hpp"

namespace camus::bdd {

using lang::ActionSet;

// Reference to a BDD node or terminal. 32-bit: the top bit distinguishes
// terminals.
class NodeRef {
 public:
  NodeRef() = default;

  static NodeRef terminal(std::uint32_t id) { return NodeRef(id | kTermBit); }
  static NodeRef node(std::uint32_t id) { return NodeRef(id); }

  bool is_terminal() const noexcept { return (bits_ & kTermBit) != 0; }
  std::uint32_t index() const noexcept { return bits_ & ~kTermBit; }
  std::uint32_t raw() const noexcept { return bits_; }

  friend bool operator==(NodeRef, NodeRef) = default;

 private:
  explicit NodeRef(std::uint32_t bits) : bits_(bits) {}
  static constexpr std::uint32_t kTermBit = 0x80000000u;
  std::uint32_t bits_ = kTermBit;  // default: terminal 0 (drop)
};

struct Node {
  std::uint32_t var = 0;  // index into the manager's variable table
  NodeRef lo;             // predicate false
  NodeRef hi;             // predicate true
};

// Aggregate statistics used by the experiments and ablations.
struct BddStats {
  std::size_t node_count = 0;         // reachable non-terminal nodes
  std::size_t terminal_count = 0;     // distinct reachable terminals
  std::size_t var_count = 0;          // distinct variables used
  std::map<Subject, std::size_t> nodes_per_subject;
};

// Unique-table and memo-cache telemetry (compile-phase profiling). Probes
// and hits are lifetime totals; accumulate() folds the shard managers'
// stats on the partitioned compile path.
struct CacheStats {
  std::size_t unique_nodes = 0;   // hash-consed node table size
  std::size_t terminals = 0;      // distinct terminal ActionSets
  std::size_t vars = 0;           // distinct atomic predicates
  std::uint64_t unite_probes = 0;      // syntactic union memo
  std::uint64_t unite_hits = 0;
  std::uint64_t unite_res_probes = 0;  // semantic union memo
  std::uint64_t unite_res_hits = 0;
  std::uint64_t split_probes = 0;      // residual split memo
  std::uint64_t split_hits = 0;

  void accumulate(const CacheStats& other);
  // Hit rate over both union memos (the compile hot path); 0 when unused.
  double memo_hit_rate() const noexcept;
};

class BddManager {
 public:
  BddManager(VarOrder order, DomainMap domains);

  const VarOrder& order() const noexcept { return order_; }
  const DomainMap& domains() const noexcept { return domains_; }

  // --- variables -------------------------------------------------------
  std::uint32_t var_for(const BoundPredicate& p);
  const BoundPredicate& var_pred(std::uint32_t var) const {
    return vars_.at(var);
  }
  std::size_t var_count() const noexcept { return vars_.size(); }

  // --- terminals -------------------------------------------------------
  // Each distinct set is stored once, as an immutable shared object that
  // every table generated from this manager references; a new set is
  // copied (or moved) in.
  NodeRef terminal(const ActionSet& actions);
  NodeRef terminal(ActionSet&& actions);
  NodeRef drop() const { return NodeRef::terminal(0); }
  const ActionSet& terminal_actions(NodeRef t) const {
    return *terminal_set(t);
  }
  // The terminal's shared set; never null.
  const lang::ActionSetPtr& terminal_set(NodeRef t) const;
  std::size_t terminal_count() const noexcept { return terminals_.size(); }

  // --- nodes -----------------------------------------------------------
  // Reduced, hash-consed constructor. Enforces the variable order:
  // children's top variables must come strictly after `var`.
  NodeRef mk(std::uint32_t var, NodeRef lo, NodeRef hi);
  const Node& node(NodeRef r) const { return nodes_.at(r.index()); }
  std::size_t node_table_size() const noexcept { return nodes_.size(); }

  // Top variable's subject; precondition: !r.is_terminal().
  Subject subject_of(NodeRef r) const {
    return var_pred(node(r).var).subject;
  }

  // --- construction ----------------------------------------------------
  // BDD for a single DNF conjunction: packets satisfying every constraint
  // reach terminal(actions); all others reach drop().
  NodeRef build_conjunction(const lang::Conjunction& conj,
                            const ActionSet& actions);

  // BDD for a whole flat rule (union over its DNF terms).
  NodeRef build_rule(const lang::FlatRule& rule);

  // --- operations ------------------------------------------------------
  // Pointwise union: resulting terminals are the merged ActionSets.
  //
  // With semantic=true (the paper's construction), the union carries the
  // residual value domain of the current field and never materializes a
  // node whose predicate is implied true/false by its ancestors —
  // reduction (iii) applied during construction. This is essential at
  // scale: the purely syntactic union of rules with many thresholds on one
  // field keeps semantically impossible combinations ("price > 50 false
  // but price > 80 true") and blows up exponentially.
  NodeRef unite(NodeRef a, NodeRef b, bool semantic = true);

  // Balanced divide-and-conquer union of many roots. Far cheaper than a
  // sequential left fold for large rule sets (Figure 5c's 100K rules).
  NodeRef unite_all(std::vector<NodeRef> roots, bool semantic = true);

  // Reduction (iii) as a standalone rewrite: removes nodes implied by
  // ancestor constraints on the same subject. Equivalent to unite(drop(),
  // root, semantic=true). Used directly by the ablation benchmarks.
  NodeRef prune(NodeRef root);

  // --- queries ---------------------------------------------------------
  const ActionSet& evaluate(NodeRef root, const lang::Env& env) const;

  // Domain-exact co-traversal of two roots (the verifier's workhorse):
  // searches for a packet environment on which pred(actions(a), actions(b))
  // holds and returns the first one found, or nullopt when no packet
  // satisfies the predicate. Exact with respect to field-domain semantics:
  // a combined path never assumes "price > 80" true while "price > 50" is
  // false, even across the two operands — the traversal carries the
  // residual value domain of the current field exactly like the semantic
  // union does. Unconstrained subjects are left at their env_template
  // value (missing slots are grown and zero-filled).
  std::optional<lang::Env> find_witness(
      NodeRef a, NodeRef b,
      const std::function<bool(const ActionSet&, const ActionSet&)>& pred,
      const lang::Env& env_template = {}) const;

  // Every packet matched (non-drop) under a is also matched under b.
  bool implies(NodeRef a, NodeRef b) const;

  // Some packet is matched (non-drop) under both a and b.
  bool intersects(NodeRef a, NodeRef b) const;

  // a and b compute the same ActionSet for every packet.
  bool equivalent(NodeRef a, NodeRef b) const;

  BddStats stats(NodeRef root) const;

  // Unique-table size and memo probe/hit totals (compile telemetry).
  CacheStats cache_stats() const;

  // Heap footprint of the manager's arenas (node table, unique table,
  // union/split memos, residual-set pool) in bytes. This is the quantity
  // the partitioned compile bounds per shard: the memory-ceiling gate in
  // bench/compile_scale compares it against peak RSS.
  std::size_t memory_bytes() const;

  // GraphViz rendering of the reachable subgraph (for docs and debugging).
  std::string to_dot(NodeRef root, const spec::Schema* schema = nullptr) const;

  // Clears operation caches (memo tables), keeping nodes and terminals.
  // Useful between unrelated compilations sharing a manager.
  void clear_caches();

 private:
  // The set of subject values that send a packet to the hi edge of `var`.
  util::IntervalSet true_values(std::uint32_t var) const;

  // Residual-set interning: semantic union memoizes on (a, b, residual id).
  std::uint32_t intern_set(const util::IntervalSet& s);
  std::uint32_t full_set_id(std::size_t rank);

  // Interns a set by content; `make` yields the shared set when it is new.
  template <typename Make>
  NodeRef intern_terminal(const ActionSet& actions, Make&& make);
  // The terminal for the union of two terminals' sets.
  NodeRef merge_terminals(NodeRef a, NodeRef b);

  NodeRef unite_rec(NodeRef a, NodeRef b);
  NodeRef unite_res(NodeRef a, NodeRef b, std::size_t rank_in,
                    std::uint32_t residual_id);

  VarOrder order_;
  DomainMap domains_;

  std::vector<BoundPredicate> vars_;
  std::map<BoundPredicate, std::uint32_t> var_ids_;

  std::vector<lang::ActionSetPtr> terminals_;
  util::FlatIndex terminal_index_;  // ActionSet::hash -> terminal id

  std::vector<Node> nodes_;

  // Composite integer keys for the flat memo tables.
  struct Key96 {
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    friend bool operator==(const Key96&, const Key96&) = default;
  };
  struct Key96Hash {
    std::size_t operator()(const Key96& k) const noexcept {
      return static_cast<std::size_t>(
          util::mix64(k.a ^ (static_cast<std::uint64_t>(k.b) << 17 | k.b)));
    }
  };
  struct U64Hash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      return static_cast<std::size_t>(util::mix64(k));
    }
  };

  // Unique table: (var, lo, hi) -> node id (reduction (i)).
  util::FlatMap<Key96, std::uint32_t, Key96Hash> unique_{16};

  // Syntactic union memo: (min ref, max ref) -> result.
  util::FlatMap<std::uint64_t, NodeRef, U64Hash> unite_cache_{12};

  // Interned residual domains.
  struct SetHash {
    std::size_t operator()(const util::IntervalSet& s) const {
      return s.hash();
    }
  };
  std::vector<util::IntervalSet> sets_;
  std::unordered_map<util::IntervalSet, std::uint32_t, SetHash> set_ids_;
  std::vector<std::uint32_t> full_set_by_rank_;  // cache of all-domain ids

  // Semantic union memo: (min ref, max ref, residual id) -> result.
  util::FlatMap<Key96, NodeRef, Key96Hash> unite_res_cache_{16};

  // Residual split memo: (var, residual id) -> (hi-set id, lo-set id).
  // The split of a residual domain by a predicate does not depend on the
  // node pair, so caching it here removes almost all IntervalSet work from
  // the union hot path.
  util::FlatMap<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>,
                U64Hash>
      split_cache_{14};
};

}  // namespace camus::bdd
