// Multi-terminal BDD: reductions, ordering invariants, union semantics,
// semantic pruning (reduction iii).
#include <gtest/gtest.h>

#include <ostream>

#include "bdd/bdd.hpp"
#include "lang/parser.hpp"
#include "util/rng.hpp"

namespace {

using namespace camus;
using bdd::BddManager;
using bdd::DomainMap;
using bdd::NodeRef;
using bdd::VarOrder;
using lang::ActionSet;
using lang::BoundPredicate;
using lang::Conjunction;
using lang::RelOp;
using lang::Subject;
using util::IntervalSet;

spec::Schema two_field_schema(std::uint32_t wa = 8, std::uint32_t wb = 8) {
  spec::Schema s;
  s.add_header("t", "h");
  auto a = s.add_field("a", wa);
  auto b = s.add_field("b", wb);
  s.mark_queryable(a, spec::MatchHint::kRange);
  s.mark_queryable(b, spec::MatchHint::kRange);
  return s;
}

BddManager make_manager(const spec::Schema& s) {
  std::vector<Subject> order;
  for (auto f : s.query_order()) order.push_back(Subject::field(f));
  return BddManager(VarOrder(order), DomainMap(s));
}

ActionSet fwd(std::initializer_list<std::uint16_t> ports) {
  ActionSet a;
  for (auto p : ports) a.add_port(p);
  return a;
}

TEST(VarOrderTest, RankAndComparison) {
  VarOrder order({Subject::field(3), Subject::field(1), Subject::state(0)});
  EXPECT_EQ(order.rank(Subject::field(3)), 0u);
  EXPECT_EQ(order.rank(Subject::field(1)), 1u);
  EXPECT_EQ(order.rank(Subject::state(0)), 2u);
  EXPECT_THROW(order.rank(Subject::field(0)), std::out_of_range);
  EXPECT_FALSE(order.contains(Subject::field(2)));

  // Same subject: by value, then Lt < Eq < Gt.
  EXPECT_TRUE(order.less({Subject::field(3), RelOp::kEq, 5},
                         {Subject::field(3), RelOp::kEq, 6}));
  EXPECT_TRUE(order.less({Subject::field(3), RelOp::kLt, 5},
                         {Subject::field(3), RelOp::kEq, 5}));
  EXPECT_TRUE(order.less({Subject::field(3), RelOp::kEq, 5},
                         {Subject::field(3), RelOp::kGt, 5}));
  // Cross subject: rank dominates.
  EXPECT_TRUE(order.less({Subject::field(3), RelOp::kGt, 200},
                         {Subject::field(1), RelOp::kLt, 1}));
  EXPECT_THROW(VarOrder({Subject::field(1), Subject::field(1)}),
               std::invalid_argument);
}

TEST(Bdd, TerminalInterning) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  EXPECT_EQ(mgr.terminal(ActionSet{}), mgr.drop());
  const NodeRef t1 = mgr.terminal(fwd({1, 2}));
  const NodeRef t2 = mgr.terminal(fwd({2, 1}));
  EXPECT_EQ(t1, t2);  // canonical sorted ports
  EXPECT_NE(t1, mgr.terminal(fwd({1})));
  EXPECT_EQ(mgr.terminal_actions(t1).ports,
            (std::vector<std::uint16_t>{1, 2}));
}

TEST(Bdd, MkReductions) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  const auto v = mgr.var_for({Subject::field(0), RelOp::kLt, 10});
  const NodeRef t = mgr.terminal(fwd({1}));

  // Reduction (ii): lo == hi collapses.
  EXPECT_EQ(mgr.mk(v, t, t), t);
  // Reduction (i): structural sharing.
  const NodeRef n1 = mgr.mk(v, mgr.drop(), t);
  const NodeRef n2 = mgr.mk(v, mgr.drop(), t);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(mgr.node_table_size(), 1u);
}

TEST(Bdd, MkEnforcesVariableOrder) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  const auto va = mgr.var_for({Subject::field(0), RelOp::kLt, 10});
  const auto vb = mgr.var_for({Subject::field(1), RelOp::kLt, 10});
  const NodeRef t = mgr.terminal(fwd({1}));
  const NodeRef nb = mgr.mk(vb, mgr.drop(), t);
  // b-node below a-node: fine.
  EXPECT_NO_THROW(mgr.mk(va, mgr.drop(), nb));
  // a-node below b-node: order violation.
  const NodeRef na = mgr.mk(va, mgr.drop(), t);
  EXPECT_THROW(mgr.mk(vb, mgr.drop(), na), std::logic_error);
}

TEST(Bdd, VarForRejectsUnknownSubject) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  EXPECT_THROW(mgr.var_for({Subject::state(5), RelOp::kEq, 1}),
               std::invalid_argument);
}

TEST(Bdd, ConjunctionEvaluation) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  Conjunction conj;
  conj.constraints[Subject::field(0)] = IntervalSet::range(10, 20);
  conj.constraints[Subject::field(1)] =
      IntervalSet::point(3).unite(IntervalSet::point(7));
  const NodeRef root = mgr.build_conjunction(conj, fwd({4}));

  lang::Env env;
  for (std::uint64_t a = 0; a <= 255; a += 5) {
    for (std::uint64_t b = 0; b <= 10; ++b) {
      env.fields = {a, b};
      const bool expect = a >= 10 && a <= 20 && (b == 3 || b == 7);
      EXPECT_EQ(!mgr.evaluate(root, env).is_drop(), expect)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Bdd, ConjunctionEdgeDomains) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  // Constraint touching both domain edges: [0, 5] u [250, 255].
  Conjunction conj;
  conj.constraints[Subject::field(0)] =
      IntervalSet::range(0, 5).unite(IntervalSet::range(250, 255));
  const NodeRef root = mgr.build_conjunction(conj, fwd({1}));
  lang::Env env;
  for (std::uint64_t a : {0ULL, 5ULL, 6ULL, 249ULL, 250ULL, 255ULL}) {
    env.fields = {a, 0};
    EXPECT_EQ(!mgr.evaluate(root, env).is_drop(), a <= 5 || a >= 250) << a;
  }
}

TEST(Bdd, UnionMergesActionSets) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  Conjunction c1, c2;
  c1.constraints[Subject::field(0)] = IntervalSet::range(0, 100);
  c2.constraints[Subject::field(0)] = IntervalSet::range(50, 150);
  const NodeRef u = mgr.unite(mgr.build_conjunction(c1, fwd({1})),
                              mgr.build_conjunction(c2, fwd({2})));
  lang::Env env;
  env.fields = {75, 0};
  EXPECT_EQ(mgr.evaluate(u, env).ports, (std::vector<std::uint16_t>{1, 2}));
  env.fields = {25, 0};
  EXPECT_EQ(mgr.evaluate(u, env).ports, (std::vector<std::uint16_t>{1}));
  env.fields = {125, 0};
  EXPECT_EQ(mgr.evaluate(u, env).ports, (std::vector<std::uint16_t>{2}));
  env.fields = {200, 0};
  EXPECT_TRUE(mgr.evaluate(u, env).is_drop());
}

TEST(Bdd, SemanticUnionPrunesImpliedPredicates) {
  // Two threshold rules on one field: the syntactic union keeps the
  // impossible "x > 100 true but x > 50 false" path; the semantic union
  // must not.
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  Conjunction c1, c2;
  c1.constraints[Subject::field(0)] = IntervalSet::greater_than(50, 255);
  c2.constraints[Subject::field(0)] = IntervalSet::greater_than(100, 255);
  const NodeRef r1 = mgr.build_conjunction(c1, fwd({1}));
  const NodeRef r2 = mgr.build_conjunction(c2, fwd({2}));

  const NodeRef syntactic = mgr.unite(r1, r2, /*semantic=*/false);
  const NodeRef semantic = mgr.unite(r1, r2, /*semantic=*/true);

  // Same function...
  lang::Env env;
  for (std::uint64_t x = 0; x <= 255; ++x) {
    env.fields = {x, 0};
    EXPECT_EQ(mgr.evaluate(syntactic, env), mgr.evaluate(semantic, env)) << x;
  }
  // ...but the semantic result is no larger, and pruning the syntactic
  // one reaches the same node count.
  const auto s_stats = mgr.stats(syntactic);
  const auto p_stats = mgr.stats(mgr.prune(syntactic));
  const auto m_stats = mgr.stats(semantic);
  EXPECT_LE(m_stats.node_count, s_stats.node_count);
  EXPECT_EQ(p_stats.node_count, m_stats.node_count);
}

TEST(Bdd, PruneRemovesImpliedNodes) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  // Hand-build: Lt(50) -> hi: Lt(80)-node (implied true under x < 50).
  const auto v50 = mgr.var_for({Subject::field(0), RelOp::kLt, 50});
  const auto v80 = mgr.var_for({Subject::field(0), RelOp::kLt, 80});
  const NodeRef t1 = mgr.terminal(fwd({1}));
  const NodeRef inner = mgr.mk(v80, mgr.drop(), t1);  // x<80 ? t1 : drop
  const NodeRef root = mgr.mk(v50, mgr.drop(), inner);
  const NodeRef pruned = mgr.prune(root);

  // Pruned form is a single Lt(50) test straight to t1.
  const auto st = mgr.stats(pruned);
  EXPECT_EQ(st.node_count, 1u);
  lang::Env env;
  for (std::uint64_t x : {0ULL, 49ULL, 50ULL, 100ULL}) {
    env.fields = {x, 0};
    EXPECT_EQ(mgr.evaluate(pruned, env), mgr.evaluate(root, env)) << x;
  }
}

TEST(Bdd, UniteAllEmptyAndSingle) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  EXPECT_EQ(mgr.unite_all({}), mgr.drop());
  Conjunction c;
  c.constraints[Subject::field(0)] = IntervalSet::point(5);
  const NodeRef r = mgr.build_conjunction(c, fwd({1}));
  EXPECT_EQ(mgr.unite_all({r}), r);
}

TEST(Bdd, StatsAndDot) {
  auto schema = two_field_schema();
  auto mgr = make_manager(schema);
  Conjunction c;
  c.constraints[Subject::field(0)] = IntervalSet::range(10, 20);
  c.constraints[Subject::field(1)] = IntervalSet::point(3);
  const NodeRef root = mgr.build_conjunction(c, fwd({1, 2}));

  const auto st = mgr.stats(root);
  EXPECT_EQ(st.nodes_per_subject.at(Subject::field(0)), 2u);  // Lt+Gt chain
  EXPECT_EQ(st.nodes_per_subject.at(Subject::field(1)), 1u);  // Eq
  EXPECT_EQ(st.terminal_count, 2u);  // fwd(1,2) and drop

  const std::string dot = mgr.to_dot(root, &schema);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("a < 10"), std::string::npos);
  EXPECT_NE(dot.find("fwd(1,2)"), std::string::npos);
}

// Property: union of N random single-conjunction rules computes the same
// function as direct per-rule evaluation, for both syntactic and semantic
// unions, with and without a final prune.
struct UnionParams {
  std::uint64_t seed;
  bool semantic;
};

// Names each ctest case `.../seed1_semantic`: CMake's test discovery names
// a case after its printed parameter (by default the struct's bytes,
// padding included, which change from build to build).
void PrintTo(const UnionParams& p, std::ostream* os) {
  *os << "seed" << p.seed << (p.semantic ? "_semantic" : "_syntactic");
}

class BddUnionEquivalence : public ::testing::TestWithParam<UnionParams> {};

TEST_P(BddUnionEquivalence, MatchesDirectEvaluation) {
  const auto p = GetParam();
  util::Rng rng(p.seed);
  auto schema = two_field_schema(6, 6);  // 64-value domains
  auto mgr = make_manager(schema);

  struct RuleModel {
    Conjunction conj;
    ActionSet actions;
  };
  std::vector<RuleModel> rules;
  std::vector<NodeRef> roots;
  const std::size_t n = 2 + rng.uniform(0, 10);
  for (std::size_t i = 0; i < n; ++i) {
    RuleModel rm;
    for (std::uint32_t f = 0; f < 2; ++f) {
      if (rng.chance(0.3)) continue;
      IntervalSet s;
      switch (rng.uniform(0, 2)) {
        case 0: s = IntervalSet::point(rng.uniform(0, 63)); break;
        case 1: s = IntervalSet::less_than(rng.uniform(1, 63)); break;
        default: s = IntervalSet::greater_than(rng.uniform(0, 62), 63); break;
      }
      if (rng.chance(0.3)) s = s.complement(63);
      if (s.is_empty() || s.is_all(63)) continue;
      rm.conj.constraints[Subject::field(f)] = s;
    }
    rm.actions.add_port(static_cast<std::uint16_t>(1 + rng.uniform(0, 5)));
    roots.push_back(mgr.build_conjunction(rm.conj, rm.actions));
    rules.push_back(std::move(rm));
  }

  NodeRef u = mgr.unite_all(roots, p.semantic);
  if (rng.chance(0.5)) u = mgr.prune(u);

  lang::Env env;
  for (std::uint64_t a = 0; a <= 63; ++a) {
    for (std::uint64_t b = 0; b <= 63; ++b) {
      env.fields = {a, b};
      ActionSet expect;
      for (const auto& rm : rules)
        if (lang::eval_conjunction(rm.conj, env)) expect.merge(rm.actions);
      ASSERT_EQ(mgr.evaluate(u, env), expect) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BddUnionEquivalence,
    ::testing::Values(UnionParams{1, true}, UnionParams{2, true},
                      UnionParams{3, false}, UnionParams{4, false},
                      UnionParams{5, true}, UnionParams{6, false},
                      UnionParams{7, true}, UnionParams{8, false}));

}  // namespace

namespace cache_tests {

using namespace camus;
using bdd::BddManager;
using bdd::DomainMap;
using bdd::NodeRef;
using bdd::VarOrder;
using lang::Subject;

TEST(BddCaches, ClearCachesPreservesNodesAndSemantics) {
  spec::Schema s;
  s.add_header("t", "h");
  auto f = s.add_field("x", 8);
  s.mark_queryable(f, spec::MatchHint::kRange);
  BddManager mgr(VarOrder({Subject::field(f)}), DomainMap(s));

  lang::Conjunction c1, c2;
  c1.constraints[Subject::field(f)] = util::IntervalSet::range(0, 99);
  c2.constraints[Subject::field(f)] = util::IntervalSet::range(50, 200);
  lang::ActionSet a1, a2;
  a1.add_port(1);
  a2.add_port(2);
  const NodeRef r1 = mgr.build_conjunction(c1, a1);
  const NodeRef r2 = mgr.build_conjunction(c2, a2);
  const NodeRef u1 = mgr.unite(r1, r2);
  const std::size_t nodes_before = mgr.node_table_size();

  mgr.clear_caches();
  // Recomputing after a cache clear yields the identical hash-consed node.
  const NodeRef u2 = mgr.unite(r1, r2);
  EXPECT_EQ(u1, u2);
  EXPECT_EQ(mgr.node_table_size(), nodes_before);

  lang::Env env;
  for (std::uint64_t x : {0ULL, 49ULL, 75ULL, 150ULL, 250ULL}) {
    env.fields = {x};
    EXPECT_EQ(mgr.evaluate(u1, env), mgr.evaluate(u2, env)) << x;
  }
}

TEST(BddCaches, TerminalCountGrowsOnlyForDistinctSets) {
  spec::Schema s;
  s.add_header("t", "h");
  auto f = s.add_field("x", 8);
  s.mark_queryable(f, spec::MatchHint::kRange);
  BddManager mgr(VarOrder({Subject::field(f)}), DomainMap(s));
  const std::size_t base = mgr.terminal_count();  // drop terminal
  lang::ActionSet a;
  a.add_port(3);
  (void)mgr.terminal(a);
  (void)mgr.terminal(a);
  EXPECT_EQ(mgr.terminal_count(), base + 1);
}

}  // namespace cache_tests
