#include "workload/siena.hpp"

#include <algorithm>

#include "util/intern.hpp"
#include "util/rng.hpp"

namespace camus::workload {

using lang::BoundCond;
using lang::BoundCondPtr;
using lang::BoundPredicate;
using lang::RelOp;
using lang::Subject;

SienaWorkload generate_siena(const SienaParams& p) {
  util::Rng rng(p.seed);
  SienaWorkload w;

  // Attribute space: s0..s{n-1} (symbol, exact) then n0..n{m-1} (numeric,
  // range). Declared in one header, annotation order = declaration order.
  w.schema.add_header("siena_msg_t", "msg");
  std::vector<spec::FieldId> string_fields, numeric_fields;
  // Appended: gcc 12 at -O3 warns falsely (-Wrestrict) on an inlined
  // "literal" + std::string&&.
  auto attr_name = [](char prefix, std::size_t i) {
    std::string name(1, prefix);
    name += std::to_string(i);
    return name;
  };
  for (std::size_t i = 0; i < p.n_string_attrs; ++i) {
    auto fid = w.schema.add_field(attr_name('s', i), 64,
                                  spec::FieldKind::kSymbol);
    w.schema.mark_queryable(fid, spec::MatchHint::kExact);
    string_fields.push_back(fid);
  }
  for (std::size_t i = 0; i < p.n_numeric_attrs; ++i) {
    auto fid = w.schema.add_field(attr_name('n', i), 32);
    w.schema.mark_queryable(fid, spec::MatchHint::kRange);
    numeric_fields.push_back(fid);
  }

  w.symbols.reserve(p.n_symbols);
  for (std::size_t i = 0; i < p.n_symbols; ++i)
    w.symbols.push_back("SYM" + std::to_string(i));
  util::ZipfDistribution sym_dist(p.n_symbols, p.symbol_zipf_s);

  const std::size_t n_attrs = p.n_string_attrs + p.n_numeric_attrs;
  const std::size_t k = std::min(p.predicates_per_subscription, n_attrs);

  for (std::size_t s = 0; s < p.n_subscriptions; ++s) {
    // Choose k distinct attributes for the conjunction.
    std::vector<std::size_t> attrs(n_attrs);
    for (std::size_t i = 0; i < n_attrs; ++i) attrs[i] = i;
    rng.shuffle(attrs);
    attrs.resize(k);
    std::sort(attrs.begin(), attrs.end());

    BoundCondPtr cond;
    for (std::size_t a : attrs) {
      BoundPredicate pred;
      if (a < p.n_string_attrs) {
        pred.subject = Subject::field(string_fields[a]);
        pred.op = RelOp::kEq;
        pred.value = util::encode_symbol(w.symbols[sym_dist(rng)]);
      } else {
        pred.subject = Subject::field(numeric_fields[a - p.n_string_attrs]);
        const double roll = rng.uniform01();
        pred.op = roll < p.numeric_eq_fraction ? RelOp::kEq
                  : rng.chance(0.5)            ? RelOp::kLt
                                               : RelOp::kGt;
        pred.value = rng.uniform(1, p.numeric_max - 1);
      }
      auto atom = BoundCond::make_atom(pred);
      cond = cond ? BoundCond::make_and(std::move(cond), std::move(atom))
                  : std::move(atom);
    }

    lang::BoundRule rule;
    rule.cond = std::move(cond);
    rule.actions.add_port(
        static_cast<std::uint16_t>(1 + rng.uniform(0, p.n_ports - 1)));
    w.rules.push_back(std::move(rule));
  }
  return w;
}

}  // namespace camus::workload
