// The static verifier (camus::verify): diagnostics engine, BDD-exact
// subscription linting, compiled-pipeline checks, and the symbolic
// equivalence proof against the reference MTBDD.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "lang/parser.hpp"
#include "pubsub/durable.hpp"
#include "single_switch.hpp"
#include "spec/itch_spec.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;
using verify::LintCode;
using verify::Report;
using verify::Severity;

std::vector<lang::BoundRule> bind_all(const spec::Schema& schema,
                                      std::string_view text) {
  auto parsed = lang::parse_rules(text);
  EXPECT_TRUE(parsed.ok());
  auto bound = lang::bind_rules(parsed.value(), schema);
  EXPECT_TRUE(bound.ok()) << (bound.ok() ? "" : bound.error().to_string());
  return std::move(bound).take();
}

verify::SubscriptionLint lint(const spec::Schema& schema,
                              std::string_view text, Report& report,
                              verify::SubscriptionLintOptions opts = {}) {
  auto r = verify::lint_subscriptions(schema, bind_all(schema, text), report,
                                      opts);
  EXPECT_TRUE(r.ok());
  return std::move(r).take();
}

// ---------------------------------------------------------------------
// Diagnostics engine
// ---------------------------------------------------------------------

TEST(Diagnostics, SeveritiesCountsAndExitCodes) {
  Report r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.exit_code(), 0);
  r.add(LintCode::kRuleOverlap, "just a note");
  EXPECT_EQ(r.exit_code(), 0);
  r.add(LintCode::kRuleDuplicate, "a warning").rule = 3;
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.exit_code(/*warnings_as_errors=*/true), 1);
  r.add(LintCode::kShadowedEntry, "an error").table = "price";
  EXPECT_TRUE(r.has_errors());
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_EQ(r.count(Severity::kNote), 1u);
  EXPECT_EQ(r.count(Severity::kWarning), 1u);
  EXPECT_EQ(r.count(Severity::kError), 1u);
  EXPECT_EQ(r.count(LintCode::kRuleDuplicate), 1u);
}

TEST(Diagnostics, TextAndJsonRendering) {
  Report r;
  auto& d = r.add(LintCode::kRuleSubsumed, "rule \"a\" subsumed");
  d.rule = 6;
  d.other_rule = 2;
  auto& p = r.add(LintCode::kShadowedEntry, "dead entry");
  p.table = "price";
  p.state = 3;
  p.entry = 1;

  const std::string text = r.to_text();
  EXPECT_NE(text.find("S004 warning"), std::string::npos);
  EXPECT_NE(text.find("[rule 7]"), std::string::npos);  // rendered 1-based
  EXPECT_NE(text.find("P001 error"), std::string::npos);
  EXPECT_NE(text.find("[price state 3 entry 1]"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);

  const std::string json = r.to_json();
  auto parsed = util::json::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const auto& doc = parsed.value();
  const auto* diags = doc.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->array.size(), 2u);
  ASSERT_NE(diags->array[0].find("code"), nullptr);
  EXPECT_EQ(diags->array[0].find("code")->string, "S004");
  EXPECT_EQ(diags->array[0].member_u64("rule"), 6u);  // 0-based in JSON
  ASSERT_NE(diags->array[1].find("table"), nullptr);
  EXPECT_EQ(diags->array[1].find("table")->string, "price");
  const auto* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->member_u64("errors"), 1u);
  EXPECT_EQ(summary->member_u64("warnings"), 1u);
}

// ---------------------------------------------------------------------
// Layer 1: subscription-set linting
// ---------------------------------------------------------------------

TEST(SubscriptionLint, UnsatisfiableDuplicateSameCondition) {
  auto schema = spec::make_itch_schema();
  Report report;
  lint(schema, R"(
    shares < 10 and shares > 20 : fwd(1)
    stock == GOOGL : fwd(2)
    stock == GOOGL : fwd(2)
    stock == GOOGL : fwd(3)
  )",
       report);
  EXPECT_EQ(report.count(LintCode::kRuleUnsatisfiable), 1u);
  EXPECT_EQ(report.count(LintCode::kRuleDuplicate), 1u);
  EXPECT_EQ(report.count(LintCode::kRuleSameCondition), 1u);
  EXPECT_TRUE(report.has_errors());  // S001 is an error
  // Provenance points at the duplicate pair.
  for (const auto& d : report.diagnostics()) {
    if (d.code == LintCode::kRuleDuplicate) {
      EXPECT_EQ(*d.rule, 2u);
      EXPECT_EQ(*d.other_rule, 1u);
    }
  }
}

TEST(SubscriptionLint, SubsumptionProvenByDnfPreFilter) {
  auto schema = spec::make_itch_schema();
  Report report;
  auto r = lint(schema, R"(
    stock == GOOGL and price > 100 : fwd(1)
    stock == GOOGL : fwd(1)
  )",
                report);
  // Single-term pair: the interval pre-filter settles it without a BDD.
  EXPECT_EQ(report.count(LintCode::kRuleSubsumed), 1u);
  EXPECT_EQ(r.stats.bdd_checks, 0u);
  EXPECT_GE(r.stats.dnf_proven, 1u);
  for (const auto& d : report.diagnostics()) {
    if (d.code == LintCode::kRuleSubsumed) {
      EXPECT_EQ(*d.rule, 0u);        // the narrow rule never fires alone
      EXPECT_EQ(*d.other_rule, 1u);  // the broad one carries its actions
    }
  }
}

TEST(SubscriptionLint, SubsumptionNeedsBddForMultiTerm) {
  auto schema = spec::make_itch_schema();
  // price in (10, 30) is covered by (price < 20) ∪ (15 < price < 40), but
  // by neither term alone — only the BDD-exact check can prove it.
  Report report;
  auto r = lint(schema, R"(
    price > 10 and price < 30 : fwd(1)
    price < 20 or (price > 15 and price < 40) : fwd(1)
  )",
                report);
  EXPECT_EQ(report.count(LintCode::kRuleSubsumed), 1u);
  EXPECT_GE(r.stats.bdd_checks, 1u);

  // With BDD escalation disabled the verdict is (soundly) missed.
  Report weak;
  verify::SubscriptionLintOptions opts;
  opts.bdd_exact = false;
  auto r2 = lint(schema, R"(
    price > 10 and price < 30 : fwd(1)
    price < 20 or (price > 15 and price < 40) : fwd(1)
  )",
                 weak, opts);
  EXPECT_EQ(weak.count(LintCode::kRuleSubsumed), 0u);
  EXPECT_EQ(r2.stats.bdd_checks, 0u);
}

TEST(SubscriptionLint, SubsumptionAcrossActionSupersets) {
  auto schema = spec::make_itch_schema();
  // Rule 1's packets always also match rule 2, and rule 2's action set
  // {1,2} is a strict superset of {1}: rule 1 never contributes anything.
  Report report;
  lint(schema, R"(
    stock == GOOGL and price > 50 : fwd(1)
    stock == GOOGL : fwd(1,2)
  )",
       report);
  EXPECT_EQ(report.count(LintCode::kRuleSubsumed), 1u);
}

TEST(SubscriptionLint, OverlapNotesAndCoverage) {
  auto schema = spec::make_itch_schema();
  Report report;
  auto r = lint(schema, R"(
    price > 100 : fwd(1)
    price < 200 : fwd(1)
  )",
                report);
  EXPECT_EQ(report.count(LintCode::kRuleOverlap), 1u);
  EXPECT_EQ(r.stats.overlap_pairs, 1u);

  // Coverage: the pair covers everything, so compiling and asking for a
  // hole finds none...
  auto compiled = compiler::compile_rules(
      schema, bind_all(schema, "price > 100 : fwd(1)\nprice < 200 : fwd(1)"));
  ASSERT_TRUE(compiled.ok());
  Report cov;
  auto hole = verify::check_coverage(*compiled.value().manager,
                                     compiled.value().root, schema, cov);
  EXPECT_FALSE(hole.has_value());
  EXPECT_EQ(cov.count(LintCode::kCoverageHole), 0u);

  // ...while a gap yields a concrete witness packet inside it.
  auto gappy = compiler::compile_rules(
      schema, bind_all(schema, "price > 100 : fwd(1)\nprice < 50 : fwd(1)"));
  ASSERT_TRUE(gappy.ok());
  Report gap;
  auto witness = verify::check_coverage(*gappy.value().manager,
                                        gappy.value().root, schema, gap);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(gap.count(LintCode::kCoverageHole), 1u);
  EXPECT_TRUE(gappy.value().manager->evaluate(gappy.value().root, *witness)
                  .is_drop());
}

TEST(SubscriptionLint, NegligibleSelectivityIgnoresPointConstraints) {
  auto schema = spec::make_itch_schema();
  Report report;
  verify::SubscriptionLintOptions opts;
  opts.negligible_selectivity = 1e-6;
  lint(schema, R"(
    stock == GOOGL : fwd(1)
    price > 10 and price < 13 : fwd(2)
  )",
       report, opts);
  // The exact ticker match is deliberate; the two-value price window on a
  // 32-bit field (~2^-31) is the accident S007 exists for.
  ASSERT_EQ(report.count(LintCode::kRuleNegligible), 1u);
  for (const auto& d : report.diagnostics()) {
    if (d.code == LintCode::kRuleNegligible) {
      EXPECT_EQ(*d.rule, 1u);
    }
  }
}

TEST(SubscriptionLint, PairBudgetTruncatesLoudly) {
  auto schema = spec::make_itch_schema();
  Report report;
  verify::SubscriptionLintOptions opts;
  opts.max_pairs = 1;
  auto r = lint(schema, R"(
    price > 1 : fwd(1)
    price > 2 : fwd(1)
    price > 3 : fwd(1)
    price > 4 : fwd(1)
  )",
                report, opts);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_EQ(report.count(LintCode::kAnalysisTruncated), 1u);
}

TEST(SubscriptionLint, PreFilterPrimitivesAreExact) {
  auto schema = spec::make_itch_schema();
  auto rules = bind_all(schema, R"(
    price > 100 and price < 200 : fwd(1)
    price > 50 : fwd(1)
    price < 50 : fwd(1)
  )");
  auto flat = lang::flatten_rules(rules, schema);
  ASSERT_TRUE(flat.ok());
  const auto& f = flat.value();
  EXPECT_TRUE(verify::term_implies(f[0].terms[0], f[1].terms[0]));
  EXPECT_FALSE(verify::term_implies(f[1].terms[0], f[0].terms[0]));
  EXPECT_TRUE(verify::term_intersects(f[0].terms[0], f[1].terms[0]));
  EXPECT_FALSE(verify::term_intersects(f[0].terms[0], f[2].terms[0]));
  EXPECT_EQ(verify::dnf_implies(f[0], f[1]), verify::PreVerdict::kProven);
  EXPECT_EQ(verify::dnf_implies(f[1], f[0]), verify::PreVerdict::kRefuted);
  EXPECT_TRUE(verify::dnf_intersects(f[0], f[1]));
  EXPECT_FALSE(verify::dnf_intersects(f[0], f[2]));
}

// ---------------------------------------------------------------------
// Layer 2: compiled-pipeline lint (handcrafted pipelines, exact codes)
// ---------------------------------------------------------------------

table::Pipeline one_table(table::Table t,
                          std::vector<table::LeafEntry> leaves) {
  table::Pipeline p;
  p.tables.push_back(std::move(t));
  for (auto& e : leaves) p.leaf.add_entry(std::move(e));
  return p;
}

lang::ActionSetPtr fwd(std::uint16_t port) {
  return std::make_shared<const lang::ActionSet>(lang::ActionSet{{port}, {}});
}

TEST(PipelineLint, ShadowedDuplicateExactEntry) {
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kExact,
                 32);
  t.add_entry({0, table::ValueMatch::exact(5), 1});
  t.add_entry({0, table::ValueMatch::exact(5), 2});  // wins (last write)
  auto p = one_table(std::move(t), {{1, fwd(1), {}}, {2, fwd(2), {}}});
  Report report;
  auto stats = verify::lint_pipeline(p, report);
  EXPECT_EQ(report.count(LintCode::kShadowedEntry), 1u);
  EXPECT_EQ(stats.shadowed_entries, 1u);
  for (const auto& d : report.diagnostics()) {
    if (d.code == LintCode::kShadowedEntry) {
      EXPECT_EQ(*d.entry, 0u);  // the earlier duplicate is the dead one
      EXPECT_EQ(d.severity, Severity::kError);
    }
  }
}

TEST(PipelineLint, ShadowedRangeUnderExactPriority) {
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kRange,
                 32);
  t.add_entry({0, table::ValueMatch::exact(10), 1});
  t.add_entry({0, table::ValueMatch::exact(11), 1});
  t.add_entry({0, table::ValueMatch::range(10, 11), 2});  // fully eclipsed
  auto p = one_table(std::move(t), {{1, fwd(1), {}}, {2, fwd(2), {}}});
  Report report;
  verify::lint_pipeline(p, report);
  EXPECT_EQ(report.count(LintCode::kShadowedEntry), 1u);
}

TEST(PipelineLint, UnreachableStateEntries) {
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kExact,
                 32);
  t.add_entry({0, table::ValueMatch::exact(1), 1});
  t.add_entry({7, table::ValueMatch::exact(2), 1});  // state 7: never set
  auto p = one_table(std::move(t), {{1, fwd(1), {}}});
  Report report;
  auto stats = verify::lint_pipeline(p, report);
  EXPECT_EQ(report.count(LintCode::kUnreachableState), 1u);
  EXPECT_EQ(stats.unreachable_states, 1u);
}

TEST(PipelineLint, DeadWildcardDefault) {
  table::Table t("flag", lang::Subject::field(0), table::MatchKind::kRange,
                 8);
  t.add_entry({0, table::ValueMatch::range(0, 255), 1});  // whole domain
  t.add_entry({0, table::ValueMatch::any(), 2});          // can never fire
  auto p = one_table(std::move(t), {{1, fwd(1), {}}, {2, fwd(2), {}}});
  Report report;
  auto stats = verify::lint_pipeline(p, report);
  EXPECT_EQ(report.count(LintCode::kDeadDefault), 1u);
  EXPECT_EQ(stats.dead_defaults, 1u);
}

TEST(PipelineLint, DanglingTransitionHeuristic) {
  // State 9 is never defined downstream; with a single inbound reference
  // the verifier calls it likely corruption (warning), with several it
  // reads as the normal drop-sink encoding (note).
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kExact,
                 32);
  t.add_entry({0, table::ValueMatch::exact(1), 9});
  t.add_entry({0, table::ValueMatch::exact(2), 1});
  auto p = one_table(std::move(t), {{1, fwd(1), {}}});
  Report report;
  verify::lint_pipeline(p, report);
  ASSERT_EQ(report.count(LintCode::kDanglingTransition), 1u);
  for (const auto& d : report.diagnostics()) {
    if (d.code == LintCode::kDanglingTransition) {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }

  table::Table t2("price", lang::Subject::field(0), table::MatchKind::kExact,
                  32);
  t2.add_entry({0, table::ValueMatch::exact(1), 9});
  t2.add_entry({0, table::ValueMatch::exact(2), 9});
  auto p2 = one_table(std::move(t2), {});
  Report report2;
  verify::lint_pipeline(p2, report2);
  // One diagnostic per dangling entry; both downgrade to notes.
  ASSERT_EQ(report2.count(LintCode::kDanglingTransition), 2u);
  for (const auto& d : report2.diagnostics()) {
    if (d.code == LintCode::kDanglingTransition) {
      EXPECT_EQ(d.severity, Severity::kNote);
    }
  }
}

TEST(PipelineLint, StageAndPipelineBudgets) {
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kExact,
                 32);
  for (std::uint64_t v = 0; v < 5; ++v)
    t.add_entry({0, table::ValueMatch::exact(v), 1});
  auto p = one_table(std::move(t), {{1, fwd(1), {}}});
  verify::PipelineLintOptions opts;
  opts.budget.sram_entries_per_stage = 4;  // 5 exact entries won't fit
  Report report;
  auto stats = verify::lint_pipeline(p, report, opts);
  EXPECT_EQ(report.count(LintCode::kStageOverBudget), 1u);
  EXPECT_EQ(stats.stages_over_budget, 1u);

  verify::PipelineLintOptions tight;
  tight.budget.max_stages = 1;  // table + leaf = 2 stages
  Report report2;
  verify::lint_pipeline(p, report2, tight);
  EXPECT_EQ(report2.count(LintCode::kPipelineOverBudget), 1u);
}

TEST(PipelineLint, StructurallyInvalidPipeline) {
  table::Table t("price", lang::Subject::field(0), table::MatchKind::kRange,
                 32);
  t.add_entry({0, table::ValueMatch::range(0, 10), 1});
  t.add_entry({0, table::ValueMatch::range(5, 20), 2});  // overlap
  auto p = one_table(std::move(t), {{1, fwd(1), {}}});
  Report report;
  verify::lint_pipeline(p, report);
  EXPECT_EQ(report.count(LintCode::kStructureInvalid), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(PipelineLint, CleanCompiledPipelineHasNoErrors) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_rules(schema, bind_all(schema, R"(
    stock == GOOGL and price > 100 : fwd(1)
    stock == MSFT : fwd(2)
  )"));
  ASSERT_TRUE(compiled.ok());
  Report report;
  verify::lint_pipeline(compiled.value().pipeline, report);
  EXPECT_FALSE(report.has_errors()) << report.to_text();
}

// ---------------------------------------------------------------------
// Symbolic equivalence
// ---------------------------------------------------------------------

TEST(Equivalence, ProvesCompiledPipelineEquivalent) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_rules(schema, bind_all(schema, R"(
    stock == GOOGL and price > 100 : fwd(1)
    stock == MSFT and (price < 50 or price > 900) : fwd(2)
    shares > 1000 : fwd(3)
  )"));
  ASSERT_TRUE(compiled.ok());
  const auto& c = compiled.value();
  auto r = verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  EXPECT_TRUE(r.proven_equivalent()) << r.detail;
  EXPECT_GT(r.regions_checked, 0u);
}

TEST(Equivalence, DetectsSingleCorruptedEntry) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_rules(schema, bind_all(schema, R"(
    stock == GOOGL and price > 100 : fwd(1)
    stock == MSFT and price > 200 : fwd(2)
  )"));
  ASSERT_TRUE(compiled.ok());
  auto c = std::move(compiled).take();

  // Redirect one entry to a different successor: a reduced MTBDD's
  // distinct nodes compute distinct functions, so this must be caught.
  bool mutated = false;
  for (auto& t : c.pipeline.tables) {
    const auto& es = t.entries();
    for (std::size_t i = 0; i < es.size() && !mutated; ++i) {
      for (const auto& other : es) {
        if (other.next_state == es[i].next_state) continue;
        table::Entry e = es[i];
        e.next_state = other.next_state;
        t.set_entry(i, e);
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);

  Report report;
  auto r = verify::verify_equivalence(*c.manager, c.root, c.pipeline, schema,
                                      report);
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(report.count(LintCode::kNotEquivalent), 1u);
  // The counterexample is a real diverging packet, not a symbolic claim.
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_NE(c.pipeline.evaluate_actions(*r.counterexample),
            c.manager->evaluate(c.root, *r.counterexample));
}

TEST(Equivalence, CoversValueMappedPipelines) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.domain_compression = true;
  opts.compression_min_entries = 1;  // force maps even on tiny tables
  auto compiled = compiler::compile_rules(schema, bind_all(schema, R"(
    price > 100 and price < 300 : fwd(1)
    price > 250 : fwd(2)
    price < 10 : fwd(3)
  )"),
                                          opts);
  ASSERT_TRUE(compiled.ok());
  auto c = std::move(compiled).take();
  ASSERT_FALSE(c.pipeline.value_maps.empty());
  auto r = verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  EXPECT_TRUE(r.proven_equivalent()) << r.detail;

  // And corruption hiding behind the value map is still found: remap one
  // raw region onto another region's code. Distinct codes are
  // distinguished by the downstream table by construction, so this always
  // changes the computed function.
  auto& map = c.pipeline.value_maps.front();
  std::size_t victim = map.entries().size();
  for (std::size_t i = 0; i + 1 < map.entries().size(); ++i) {
    if (map.entries()[i].next_state != map.entries()[i + 1].next_state) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, map.entries().size());
  table::Entry e = map.entries()[victim];
  e.next_state = map.entries()[victim + 1].next_state;
  map.set_entry(victim, e);
  auto bad = verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  ASSERT_TRUE(bad.completed) << bad.detail;
  EXPECT_FALSE(bad.equivalent);
}

TEST(Equivalence, BudgetExhaustionIsLoudNotWrong) {
  auto schema = spec::make_itch_schema();
  auto compiled = compiler::compile_rules(
      schema, bind_all(schema, "stock == GOOGL and price > 5 : fwd(1)"));
  ASSERT_TRUE(compiled.ok());
  const auto& c = compiled.value();
  verify::EquivalenceOptions opts;
  opts.max_pairs = 1;
  Report report;
  auto r = verify::verify_equivalence(*c.manager, c.root, c.pipeline, schema,
                                      report, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(report.count(LintCode::kVerifierBudget), 1u);
  EXPECT_EQ(report.count(LintCode::kNotEquivalent), 0u);
}

TEST(Equivalence, ItchWorkloadAtScale) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams params;
  params.n_subscriptions = 2000;
  auto subs = workload::generate_itch_subscriptions(schema, params);
  auto compiled = compiler::compile_rules(schema, subs.rules);
  ASSERT_TRUE(compiled.ok());
  const auto& c = compiled.value();
  auto r = verify::check_equivalence(*c.manager, c.root, c.pipeline, schema);
  EXPECT_TRUE(r.proven_equivalent()) << r.detail;
}

// ---------------------------------------------------------------------
// verify_compiled umbrella
// ---------------------------------------------------------------------

TEST(VerifyCompiled, ControllerRejectPolicyKeepsLastGoodPipeline) {
  fixture::SingleSwitch plant;
  pubsub::DurableController& ctl = plant.ctl;
  ctl.set_lint_policy(pubsub::LintPolicy::kReject);
  ASSERT_TRUE(ctl.subscribe(1, "stock == GOOGL").ok());
  auto first = plant.commit_and_install();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const std::uint64_t good = ctl.intended().value()->fabric_digest;

  // An unsatisfiable subscription is an S001 error: the commit is
  // rejected, nothing is journaled and the switch keeps the last-good
  // program.
  ASSERT_TRUE(ctl.subscribe(2, "shares < 10 and shares > 20").ok());
  const std::string journal = plant.storage.load().value();
  auto r = ctl.commit();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("S001"), std::string::npos);
  EXPECT_TRUE(ctl.last_lint().has_errors());
  EXPECT_EQ(ctl.intended().value()->fabric_digest, good);
  EXPECT_EQ(ctl.commit_seq(), 1u);
  EXPECT_EQ(plant.storage.load().value(), journal);
  EXPECT_EQ(plant.sw.program_digest(), good);

  // Without that subscriber the next commit installs cleanly on the
  // last-good program.
  ASSERT_EQ(ctl.unsubscribe(2).value(), 1u);
  ASSERT_TRUE(ctl.subscribe(3, "stock == MSFT").ok());
  auto next = plant.commit_and_install();
  ASSERT_TRUE(next.ok()) << next.error().to_string();
  EXPECT_FALSE(next.value().leaves[0].requires_reprogram);
  EXPECT_FALSE(ctl.last_lint().has_errors());
  EXPECT_EQ(plant.sw.program_digest(),
            ctl.intended().value()->fabric_digest);

  // kWarn records the same findings but accepts the commit.
  ctl.set_lint_policy(pubsub::LintPolicy::kWarn);
  ASSERT_TRUE(ctl.subscribe(2, "shares < 10 and shares > 20").ok());
  auto warned = plant.commit_and_install();
  ASSERT_TRUE(warned.ok()) << warned.error().to_string();
  EXPECT_TRUE(ctl.last_lint().has_errors());
  EXPECT_EQ(ctl.commit_seq(), 3u);
  EXPECT_EQ(plant.sw.program_digest(),
            ctl.intended().value()->fabric_digest);
}

// The policy is not journaled and a rejected commit leaves no record, so
// a restarted controller replays to the last accepted commit.
TEST(VerifyCompiled, RejectedCommitReplaysToLastAccepted) {
  const auto schema = spec::make_itch_schema();
  // A checkpoint after the rejection must not make the rejected program
  // the intent either: the snapshot holds only what was committed.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint" : "exact replay");
    util::MemStorage storage;
    std::uint64_t accepted = 0;
    {
      pubsub::DurableController ctl(schema, storage);
      ASSERT_TRUE(ctl.open().ok());
      ctl.set_lint_policy(pubsub::LintPolicy::kReject);
      ASSERT_TRUE(ctl.subscribe(1, "stock == GOOGL").ok());
      ASSERT_TRUE(ctl.commit().ok());
      accepted = ctl.intended().value()->fabric_digest;
      ASSERT_TRUE(ctl.subscribe(2, "shares < 10 and shares > 20").ok());
      ASSERT_TRUE(ctl.subscribe(3, "stock == MSFT and price > 100").ok());
      ASSERT_TRUE(ctl.subscribe(4, "price > 50 and shares > 5").ok());
      ASSERT_FALSE(ctl.commit().ok());
      if (checkpoint) {
        ASSERT_TRUE(ctl.checkpoint().ok());
      }
    }
    {
      pubsub::DurableController ctl(schema, storage);
      auto info = ctl.open();
      ASSERT_TRUE(info.ok()) << info.error().to_string();
      EXPECT_EQ(info.value().from_snapshot, checkpoint);
      EXPECT_EQ(info.value().commits_replayed, checkpoint ? 0u : 1u);
      EXPECT_EQ(ctl.intended().value()->fabric_digest, accepted);
      // The rejected commit's subscriptions are journaled, not committed.
      EXPECT_EQ(ctl.subscription_count(), 4u);

      ctl.set_lint_policy(pubsub::LintPolicy::kReject);
      ASSERT_FALSE(ctl.commit().ok());
      ASSERT_EQ(ctl.unsubscribe(2).value(), 1u);
      ASSERT_TRUE(ctl.commit().ok());
      EXPECT_NE(ctl.intended().value()->fabric_digest, accepted);
    }
    // The rejected commits left BDD nodes in the compiler, so the accepted
    // one was journaled as a snapshot: replay recompiles its
    // subscriptions from scratch.
    pubsub::DurableController ctl(schema, storage);
    auto info = ctl.open();
    ASSERT_TRUE(info.ok()) << info.error().to_string();
    EXPECT_TRUE(info.value().from_snapshot);
    EXPECT_EQ(info.value().digest_mismatches, 0u);
    util::MemStorage fresh_storage;
    pubsub::DurableController fresh(schema, fresh_storage);
    ASSERT_TRUE(fresh.open().ok());
    ASSERT_TRUE(fresh.subscribe(1, "stock == GOOGL").ok());
    ASSERT_TRUE(fresh.subscribe(3, "stock == MSFT and price > 100").ok());
    ASSERT_TRUE(fresh.subscribe(4, "price > 50 and shares > 5").ok());
    ASSERT_TRUE(fresh.commit().ok());
    EXPECT_EQ(ctl.intended().value()->fabric_digest,
              fresh.intended().value()->fabric_digest);
  }
}

// The gate only inspects: over a churn of satisfiable subscriptions a
// kReject controller accepts every commit and compiles exactly the
// programs an ungated one does.
TEST(VerifyCompiled, GateLeavesProgramsUnchanged) {
  const auto schema = spec::make_itch_schema();
  const std::vector<std::string> symbols = {"GOOGL", "MSFT", "AAPL", "IBM"};
  util::MemStorage gated_storage, plain_storage;
  pubsub::DurableController gated(schema, gated_storage);
  pubsub::DurableController plain(schema, plain_storage);
  ASSERT_TRUE(gated.open().ok());
  ASSERT_TRUE(plain.open().ok());
  gated.set_lint_policy(pubsub::LintPolicy::kReject);
  util::Rng rng(5);
  for (int step = 0; step < 40; ++step) {
    const auto port = static_cast<std::uint16_t>(rng.uniform(1, 8));
    if (rng.chance(0.3)) {
      ASSERT_TRUE(gated.unsubscribe(port).ok());
      ASSERT_TRUE(plain.unsubscribe(port).ok());
    } else {
      const std::string rule = "stock == " + rng.pick(symbols) +
                               " and price > " +
                               std::to_string(rng.uniform(1, 50) * 100);
      ASSERT_TRUE(gated.subscribe(port, rule).ok());
      ASSERT_TRUE(plain.subscribe(port, rule).ok());
    }
    auto a = gated.commit();
    ASSERT_TRUE(a.ok()) << "step " << step << ": " << a.error().to_string();
    ASSERT_TRUE(plain.commit().ok());
    EXPECT_FALSE(gated.last_lint().has_errors()) << "step " << step;
    EXPECT_EQ(gated.intended().value()->fabric_digest,
              plain.intended().value()->fabric_digest)
        << "step " << step;
  }
}

TEST(VerifyCompiled, RunsBothLayers) {
  auto schema = spec::make_itch_schema();
  auto rules = bind_all(schema, R"(
    shares < 10 and shares > 20 : fwd(1)
    stock == GOOGL : fwd(2)
  )");
  auto compiled = compiler::compile_rules(schema, rules);
  ASSERT_TRUE(compiled.ok());
  Report report;
  auto r = verify::verify_compiled(schema, rules, compiled.value(), report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(report.count(LintCode::kRuleUnsatisfiable), 1u);  // layer 1
  EXPECT_EQ(report.count(LintCode::kCoverageHole), 1u);       // BDD layer
  EXPECT_TRUE(r.value().equivalence.proven_equivalent());     // layer 2
}

}  // namespace
