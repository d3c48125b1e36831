#include "lang/bound.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/flat_map.hpp"
#include "util/intern.hpp"

namespace camus::lang {

using util::Error;
using util::Result;

std::string to_string(RelOp op) {
  switch (op) {
    case RelOp::kEq: return "==";
    case RelOp::kLt: return "<";
    case RelOp::kGt: return ">";
  }
  return "?";
}

void ActionSet::add_port(std::uint16_t p) {
  auto it = std::lower_bound(ports.begin(), ports.end(), p);
  if (it == ports.end() || *it != p) ports.insert(it, p);
}

void ActionSet::add_update(std::uint32_t var) {
  auto it = std::lower_bound(state_updates.begin(), state_updates.end(), var);
  if (it == state_updates.end() || *it != var) state_updates.insert(it, var);
}

namespace {
// Sorted-unique union in one linear pass.
template <typename T>
void union_into(std::vector<T>& into, const std::vector<T>& other) {
  if (other.empty()) return;
  std::vector<T> out;
  out.reserve(into.size() + other.size());
  std::set_union(into.begin(), into.end(), other.begin(), other.end(),
                 std::back_inserter(out));
  into = std::move(out);
}
}  // namespace

void ActionSet::merge(const ActionSet& other) {
  union_into(ports, other.ports);
  union_into(state_updates, other.state_updates);
}

namespace {
// Folds a sorted id list four 16-bit (or two 32-bit) ids per multiply.
template <typename T>
std::uint64_t fold_ids(std::uint64_t h, const std::vector<T>& ids) {
  constexpr std::size_t kPerWord = 8 / sizeof(T);
  std::size_t i = 0;
  for (; i + kPerWord <= ids.size(); i += kPerWord) {
    std::uint64_t w = 0;
    for (std::size_t k = 0; k < kPerWord; ++k)
      w |= static_cast<std::uint64_t>(ids[i + k]) << (k * 8 * sizeof(T));
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  for (std::size_t k = 0; i + k < ids.size(); ++k)
    tail |= static_cast<std::uint64_t>(ids[i + k]) << (k * 8 * sizeof(T));
  return util::mix64(h ^ tail ^ ids.size());
}
}  // namespace

std::uint64_t ActionSet::ports_hash() const noexcept {
  return fold_ids(0x6a09e667f3bcc908ULL, ports);
}

std::uint64_t ActionSet::hash() const noexcept {
  return fold_ids(ports_hash(), state_updates);
}

const ActionSetPtr& drop_actions() {
  static const ActionSetPtr kDrop = std::make_shared<const ActionSet>();
  return kDrop;
}

std::string ActionSet::to_string() const {
  if (is_drop()) return "drop()";
  std::ostringstream os;
  if (!ports.empty()) {
    os << "fwd(";
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (i) os << ",";
      os << ports[i];
    }
    os << ")";
  }
  for (std::size_t i = 0; i < state_updates.size(); ++i) {
    if (!ports.empty() || i) os << "; ";
    os << "update(#" << state_updates[i] << ")";
  }
  return os.str();
}

BoundCondPtr BoundCond::make_atom(BoundPredicate p) {
  auto c = std::make_shared<BoundCond>();
  c->kind = Kind::kAtom;
  c->atom = p;
  return c;
}

BoundCondPtr BoundCond::make_and(BoundCondPtr a, BoundCondPtr b) {
  auto c = std::make_shared<BoundCond>();
  c->kind = Kind::kAnd;
  c->lhs = std::move(a);
  c->rhs = std::move(b);
  return c;
}

BoundCondPtr BoundCond::make_or(BoundCondPtr a, BoundCondPtr b) {
  auto c = std::make_shared<BoundCond>();
  c->kind = Kind::kOr;
  c->lhs = std::move(a);
  c->rhs = std::move(b);
  return c;
}

BoundCondPtr BoundCond::make_not(BoundCondPtr a) {
  auto c = std::make_shared<BoundCond>();
  c->kind = Kind::kNot;
  c->lhs = std::move(a);
  return c;
}

BoundCondPtr BoundCond::make_const(bool v) {
  auto c = std::make_shared<BoundCond>();
  c->kind = v ? Kind::kTrue : Kind::kFalse;
  return c;
}

std::string BoundCond::to_string(const spec::Schema* schema) const {
  auto subj_name = [&](Subject s) -> std::string {
    if (!schema) {
      std::string name(1, s.kind == Subject::Kind::kField ? 'f' : 'v');
      name += std::to_string(s.id);
      return name;
    }
    return s.kind == Subject::Kind::kField ? schema->field(s.id).path()
                                           : schema->state_var(s.id).name;
  };
  switch (kind) {
    case Kind::kTrue: return "true";
    case Kind::kFalse: return "false";
    case Kind::kAtom:
      return subj_name(atom.subject) + " " + lang::to_string(atom.op) + " " +
             std::to_string(atom.value);
    // Strings are built by appending: gcc 12 at -O3 warns falsely
    // (-Wrestrict) on an inlined "literal" + std::string&&.
    case Kind::kNot: {
      std::string s = "!(";
      s += lhs->to_string(schema);
      s += ')';
      return s;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::string s = "(";
      s += lhs->to_string(schema);
      s += kind == Kind::kAnd ? " and " : " or ";
      s += rhs->to_string(schema);
      s += ')';
      return s;
    }
  }
  return "?";
}

bool eval_pred(const BoundPredicate& p, const Env& env) {
  const std::uint64_t v = env.get(p.subject);
  switch (p.op) {
    case RelOp::kEq: return v == p.value;
    case RelOp::kLt: return v < p.value;
    case RelOp::kGt: return v > p.value;
  }
  return false;
}

bool eval_cond(const BoundCond& c, const Env& env) {
  switch (c.kind) {
    case BoundCond::Kind::kTrue: return true;
    case BoundCond::Kind::kFalse: return false;
    case BoundCond::Kind::kAtom: return eval_pred(c.atom, env);
    case BoundCond::Kind::kNot: return !eval_cond(*c.lhs, env);
    case BoundCond::Kind::kAnd:
      return eval_cond(*c.lhs, env) && eval_cond(*c.rhs, env);
    case BoundCond::Kind::kOr:
      return eval_cond(*c.lhs, env) || eval_cond(*c.rhs, env);
  }
  return false;
}

std::uint64_t subject_umax(Subject s, const spec::Schema& schema) {
  return s.kind == Subject::Kind::kField ? schema.field(s.id).umax()
                                         : schema.state_var(s.id).umax();
}

namespace {

// Builds the bound condition for one atom, folding width-constant
// comparisons to true/false.
Result<BoundCondPtr> bind_atom(const PredExpr& p, const spec::Schema& schema) {
  Subject subj;
  bool is_symbol_field = false;

  if (p.macro) {
    const spec::StateFunc func =
        *p.macro == AggMacro::kAvg   ? spec::StateFunc::kAvg
        : *p.macro == AggMacro::kSum ? spec::StateFunc::kSum
        : *p.macro == AggMacro::kMin ? spec::StateFunc::kMin
                                     : spec::StateFunc::kMax;
    auto sid = schema.resolve_macro(func, p.subject);
    if (!sid) {
      return Error{"no declared state variable matches macro '" +
                   p.to_string() +
                   "' (declare it with @query_avg/@query_sum/"
                   "@query_min/@query_max)"};
    }
    subj = Subject::state(*sid);
  } else if (auto fid = schema.resolve_field(p.subject)) {
    const auto& f = schema.field(*fid);
    if (!f.queryable) {
      return Error{"field '" + p.subject +
                   "' is not annotated as queryable (@query_field)"};
    }
    subj = Subject::field(*fid);
    is_symbol_field = f.kind == spec::FieldKind::kSymbol;
  } else if (auto sid = schema.resolve_state_var(p.subject)) {
    subj = Subject::state(*sid);
  } else {
    return Error{"unknown field or state variable '" + p.subject + "'"};
  }

  // Resolve the literal value.
  std::uint64_t value = 0;
  if (p.literal.kind == Literal::Kind::kSymbol) {
    if (!is_symbol_field) {
      return Error{"symbol literal '" + p.literal.text +
                   "' used with non-symbol subject '" + p.subject + "'"};
    }
    if (p.literal.text.size() > 8) {
      return Error{"symbol '" + p.literal.text + "' exceeds 8 characters"};
    }
    value = util::encode_symbol(p.literal.text);
  } else {
    if (is_symbol_field) {
      return Error{"numeric literal used with symbol field '" + p.subject +
                   "'"};
    }
    value = p.literal.int_value;
  }

  if (is_symbol_field && p.op != CmpOp::kEq && p.op != CmpOp::kNe) {
    return Error{"symbol field '" + p.subject +
                 "' supports only == and != comparisons"};
  }

  const std::uint64_t umax = subject_umax(subj, schema);

  // Canonicalize to {==, <, >} with optional negation, folding comparisons
  // that are constant over the subject's domain [0, umax].
  auto atom = [&](RelOp op, std::uint64_t v) {
    return BoundCond::make_atom(BoundPredicate{subj, op, v});
  };
  switch (p.op) {
    case CmpOp::kEq:
      if (value > umax) return BoundCond::make_const(false);
      return atom(RelOp::kEq, value);
    case CmpOp::kNe:
      if (value > umax) return BoundCond::make_const(true);
      return BoundCond::make_not(atom(RelOp::kEq, value));
    case CmpOp::kLt:
      if (value == 0) return BoundCond::make_const(false);
      if (value > umax) return BoundCond::make_const(true);
      return atom(RelOp::kLt, value);
    case CmpOp::kGt:
      if (value >= umax) return BoundCond::make_const(false);
      return atom(RelOp::kGt, value);
    case CmpOp::kLe:  // x <= v  ==  !(x > v)
      if (value >= umax) return BoundCond::make_const(true);
      return BoundCond::make_not(atom(RelOp::kGt, value));
    case CmpOp::kGe:  // x >= v  ==  !(x < v)
      if (value == 0) return BoundCond::make_const(true);
      if (value > umax) return BoundCond::make_const(false);
      return BoundCond::make_not(atom(RelOp::kLt, value));
  }
  return Error{"unreachable comparison operator"};
}

Result<BoundCondPtr> bind_cond(const Cond& c, const spec::Schema& schema) {
  switch (c.kind) {
    case Cond::Kind::kAtom:
      return bind_atom(c.atom, schema);
    case Cond::Kind::kNot: {
      auto inner = bind_cond(*c.lhs, schema);
      if (!inner.ok()) return inner;
      return BoundCond::make_not(std::move(inner).take());
    }
    case Cond::Kind::kAnd:
    case Cond::Kind::kOr: {
      auto a = bind_cond(*c.lhs, schema);
      if (!a.ok()) return a;
      auto b = bind_cond(*c.rhs, schema);
      if (!b.ok()) return b;
      return c.kind == Cond::Kind::kAnd
                 ? BoundCond::make_and(std::move(a).take(), std::move(b).take())
                 : BoundCond::make_or(std::move(a).take(), std::move(b).take());
    }
  }
  return Error{"unreachable condition kind"};
}

}  // namespace

Result<BoundRule> bind_rule(const Rule& rule, const spec::Schema& schema) {
  if (!rule.cond) return Error{"rule has no condition"};
  auto cond = bind_cond(*rule.cond, schema);
  if (!cond.ok()) return cond.error();

  BoundRule out;
  out.cond = std::move(cond).take();
  for (const auto& a : rule.actions) {
    switch (a.kind) {
      case Action::Kind::kDrop:
        break;  // drop is the absence of actions
      case Action::Kind::kFwd:
        for (auto p : a.fwd.ports) out.actions.add_port(p);
        break;
      case Action::Kind::kUpdate: {
        auto sid = schema.resolve_state_var(a.update.state_var);
        if (!sid) {
          return Error{"unknown state variable '" + a.update.state_var + "'"};
        }
        out.actions.add_update(*sid);
        break;
      }
    }
  }
  return out;
}

Result<std::vector<BoundRule>> bind_rules(const std::vector<Rule>& rules,
                                          const spec::Schema& schema) {
  std::vector<BoundRule> out;
  out.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    auto r = bind_rule(rules[i], schema);
    if (!r.ok()) {
      Error e = r.error();
      e.message = "rule " + std::to_string(i + 1) + ": " + e.message;
      return e;
    }
    out.push_back(std::move(r).take());
  }
  return out;
}

}  // namespace camus::lang
