#include "lang/ast.hpp"

#include <sstream>

namespace camus::lang {

std::string to_string(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kGt: return ">";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

std::string Literal::to_string() const {
  return kind == Kind::kInt ? std::to_string(int_value) : text;
}

std::string PredExpr::to_string() const {
  std::string subj = subject;
  if (macro) {
    const char* name = *macro == AggMacro::kAvg   ? "avg("
                       : *macro == AggMacro::kSum ? "sum("
                       : *macro == AggMacro::kMin ? "min("
                                                  : "max(";
    subj = name + subject + ")";
  }
  return subj + " " + lang::to_string(op) + " " + literal.to_string();
}

CondPtr Cond::make_atom(PredExpr p) {
  auto c = std::make_shared<Cond>();
  c->kind = Kind::kAtom;
  c->atom = std::move(p);
  return c;
}

CondPtr Cond::make_and(CondPtr a, CondPtr b) {
  auto c = std::make_shared<Cond>();
  c->kind = Kind::kAnd;
  c->lhs = std::move(a);
  c->rhs = std::move(b);
  return c;
}

CondPtr Cond::make_or(CondPtr a, CondPtr b) {
  auto c = std::make_shared<Cond>();
  c->kind = Kind::kOr;
  c->lhs = std::move(a);
  c->rhs = std::move(b);
  return c;
}

CondPtr Cond::make_not(CondPtr a) {
  auto c = std::make_shared<Cond>();
  c->kind = Kind::kNot;
  c->lhs = std::move(a);
  return c;
}

std::string Cond::to_string() const {
  switch (kind) {
    case Kind::kAtom:
      return atom.to_string();
    // Built by appending: gcc 12 at -O3 warns falsely (-Wrestrict) on
    // an inlined "literal" + std::string&&.
    case Kind::kNot: {
      std::string s = "!(";
      s += lhs->to_string();
      s += ')';
      return s;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::string s = "(";
      s += lhs->to_string();
      s += kind == Kind::kAnd ? " and " : " or ";
      s += rhs->to_string();
      s += ')';
      return s;
    }
  }
  return "?";
}

std::string Action::to_string() const {
  switch (kind) {
    case Kind::kDrop:
      return "drop()";
    case Kind::kUpdate:
      return "update(" + update.state_var + ")";
    case Kind::kFwd: {
      std::ostringstream os;
      os << "fwd(";
      for (std::size_t i = 0; i < fwd.ports.size(); ++i) {
        if (i) os << ",";
        os << fwd.ports[i];
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

std::string Rule::to_string() const {
  std::string s = cond ? cond->to_string() : "true";
  s += " : ";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) s += "; ";
    s += actions[i].to_string();
  }
  return s;
}

}  // namespace camus::lang
