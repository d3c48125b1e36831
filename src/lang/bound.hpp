// Bound rules: the parser's AST resolved against a spec::Schema.
//  - subjects become typed ids (header field or state variable),
//  - symbol literals become their 64-bit wire encodings,
//  - !=, <=, >= desugar into negations of the three canonical operators
//    (==, <, >) from the paper's grammar,
//  - comparisons that are constant for the field's width (e.g. x < 2^33 on
//    a 32-bit field) fold to true/false.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "spec/schema.hpp"
#include "util/result.hpp"

namespace camus::lang {

// What a predicate tests: a packet header field or a state variable. State
// variables are compiled as an extra "field" read from registers into
// metadata at pipeline entry, so most of the compiler treats the two
// uniformly through this type.
struct Subject {
  enum class Kind : std::uint8_t { kField, kState };
  Kind kind = Kind::kField;
  std::uint32_t id = 0;

  static Subject field(spec::FieldId f) { return {Kind::kField, f}; }
  static Subject state(std::uint32_t s) { return {Kind::kState, s}; }

  friend auto operator<=>(const Subject&, const Subject&) = default;
};

// Canonical relational operators (paper Figure 1).
enum class RelOp : std::uint8_t { kEq, kLt, kGt };

std::string to_string(RelOp op);

struct BoundPredicate {
  Subject subject;
  RelOp op = RelOp::kEq;
  std::uint64_t value = 0;

  friend auto operator<=>(const BoundPredicate&,
                          const BoundPredicate&) = default;
};

// The set of actions a packet receives; terminals of the multi-terminal BDD.
// Overlapping rules merge by set union (paper: fwd(1) + fwd(2) -> fwd(1,2)).
// An empty ActionSet means drop.
struct ActionSet {
  std::vector<std::uint16_t> ports;          // sorted, unique
  std::vector<std::uint32_t> state_updates;  // sorted, unique state-var ids

  bool is_drop() const noexcept {
    return ports.empty() && state_updates.empty();
  }

  void add_port(std::uint16_t p);
  void add_update(std::uint32_t var);
  void merge(const ActionSet& other);

  // Content hashes: of the port list alone (the multicast group key), and
  // of the whole set (the BDD terminal key).
  std::uint64_t ports_hash() const noexcept;
  std::uint64_t hash() const noexcept;

  std::string to_string() const;

  friend auto operator<=>(const ActionSet&, const ActionSet&) = default;
};

// A leaf's action set as every layer holds it: created once, never
// mutated after, shared by reference (BDD terminal, leaf entries,
// multicast groups, the lowered program).
using ActionSetPtr = std::shared_ptr<const ActionSet>;

// The one shared empty set (drop): the value of a default leaf entry.
const ActionSetPtr& drop_actions();

struct BoundCond;
using BoundCondPtr = std::shared_ptr<const BoundCond>;

struct BoundCond {
  enum class Kind : std::uint8_t { kAnd, kOr, kNot, kAtom, kTrue, kFalse };
  Kind kind = Kind::kAtom;
  BoundCondPtr lhs;
  BoundCondPtr rhs;
  BoundPredicate atom;

  static BoundCondPtr make_atom(BoundPredicate p);
  static BoundCondPtr make_and(BoundCondPtr a, BoundCondPtr b);
  static BoundCondPtr make_or(BoundCondPtr a, BoundCondPtr b);
  static BoundCondPtr make_not(BoundCondPtr a);
  static BoundCondPtr make_const(bool v);

  std::string to_string(const spec::Schema* schema = nullptr) const;
};

struct BoundRule {
  BoundCondPtr cond;
  ActionSet actions;
};

// Packet/state values a condition is evaluated against.
struct Env {
  std::vector<std::uint64_t> fields;  // indexed by spec::FieldId
  std::vector<std::uint64_t> states;  // indexed by state-variable id

  std::uint64_t get(Subject s) const {
    return s.kind == Subject::Kind::kField ? fields.at(s.id)
                                           : states.at(s.id);
  }
};

bool eval_pred(const BoundPredicate& p, const Env& env);
bool eval_cond(const BoundCond& c, const Env& env);

// Binds a parsed rule against the schema. Fails on unknown fields/state
// variables, order comparisons on symbol fields, or symbol literals used
// with numeric fields.
util::Result<BoundRule> bind_rule(const Rule& rule, const spec::Schema& schema);

util::Result<std::vector<BoundRule>> bind_rules(const std::vector<Rule>& rules,
                                                const spec::Schema& schema);

// Largest representable value for the subject (field width or register
// width).
std::uint64_t subject_umax(Subject s, const spec::Schema& schema);

}  // namespace camus::lang
