// Differential tests for the control-plane delta currency: the sorted-merge
// table::diff_pipelines and the one-pass table::apply_ops against the
// keyed-set diff and the per-op apply they replaced (reference_delta.hpp).
// Inputs are compiled ITCH pipelines: consecutive commits of seeded churn
// streams, cold compiles under other layouts, and seeded mutations of their
// deltas. The diff must emit the same op-list bytes and accounting; the
// apply must leave the same serialized pipeline (entry order and multicast
// ids included) with the same ApplyStats, or fail with the same U-code and
// message. DeltaCodec.* holds the binary wire format to its contract on
// seeded byte-level mutations of real deltas: a D-coded rejection, or ops
// that re-encode to exactly the bytes read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "reference_delta.hpp"
#include "spec/itch_spec.hpp"
#include "table/delta.hpp"
#include "table/serialize.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace {

using namespace camus;
using table::EntryOp;
using Kind = table::EntryOp::Kind;

// The pipelines of a seeded churn stream: the base commit, then one commit
// per op (one subscription added or removed).
std::vector<table::Pipeline> churn_history(std::uint64_t seed,
                                           std::size_t n_base,
                                           std::size_t n_ops,
                                           compiler::CompileOptions opts) {
  const auto schema = spec::make_itch_schema();
  workload::ChurnParams cp;
  cp.seed = seed;
  cp.subs.seed = seed ^ 0x5eedULL;
  cp.subs.n_subscriptions = n_base;
  cp.subs.n_symbols = 12;
  cp.subs.n_hosts = 16;
  workload::ChurnGenerator churn(schema, cp);
  compiler::IncrementalCompiler inc(schema, opts);
  std::vector<compiler::IncrementalCompiler::SubscriptionId> ids;
  for (const auto& r : churn.base()) ids.push_back(inc.add(r));
  std::vector<table::Pipeline> out;
  for (std::size_t i = 0; i <= n_ops; ++i) {
    if (i > 0) {
      auto op = churn.next();
      if (op.subscribe) {
        if (ids.size() <= op.slot) ids.resize(op.slot + 1);
        ids[op.slot] = inc.add(std::move(op.rule));
      } else {
        inc.remove(ids[op.slot]);
      }
    }
    auto d = inc.commit();
    EXPECT_TRUE(d.ok()) << d.error().to_string();
    if (!d.ok()) break;
    out.push_back(*inc.pipeline().value());
  }
  return out;
}

compiler::CompileOptions exact_first(bool compress) {
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;
  opts.domain_compression = compress;
  return opts;
}

void expect_same_diff(const table::Pipeline* have,
                      const table::Pipeline& want) {
  const table::PipelineDiff got = table::diff_pipelines(have, want);
  const table::PipelineDiff ref = oracle::reference_diff_pipelines(have, want);
  EXPECT_EQ(table::serialize_ops(got.ops), table::serialize_ops(ref.ops));
  EXPECT_EQ(got.ops, ref.ops);
  EXPECT_EQ(got.reused_entries, ref.reused_entries);
  EXPECT_EQ(got.total_entries, ref.total_entries);
  EXPECT_EQ(got.requires_reprogram, ref.requires_reprogram);
}

// What one apply left behind: the patched pipeline's bytes and stats, or
// the error.
struct Outcome {
  bool ok = false;
  std::string pipeline;
  table::ApplyStats stats;
  std::string code;
  std::string message;
};

template <typename Apply>
Outcome apply_with(Apply apply, const table::Pipeline& base,
                   std::span<const EntryOp> ops) {
  table::Pipeline p = base;
  auto r = apply(p, ops);
  Outcome o;
  o.ok = r.ok();
  if (r.ok()) {
    o.pipeline = table::serialize_pipeline(p);
    o.stats = r.value();
  } else {
    o.code = r.error().code;
    o.message = r.error().message;
  }
  return o;
}

// Applies `ops` to copies of `have` both ways; returns the shared U-code
// ("" on success).
std::string expect_same_apply(const table::Pipeline& have,
                              std::span<const EntryOp> ops) {
  const Outcome got = apply_with(
      [](table::Pipeline& p, std::span<const EntryOp> o) {
        return table::apply_ops(p, o);
      },
      have, ops);
  const Outcome ref = apply_with(
      [](table::Pipeline& p, std::span<const EntryOp> o) {
        return oracle::reference_apply_ops(p, o);
      },
      have, ops);
  EXPECT_EQ(got.ok, ref.ok) << got.code << " vs " << ref.code;
  EXPECT_EQ(got.code, ref.code);
  EXPECT_EQ(got.message, ref.message);
  EXPECT_EQ(got.pipeline, ref.pipeline);
  EXPECT_EQ(got.stats.adds, ref.stats.adds);
  EXPECT_EQ(got.stats.removes, ref.stats.removes);
  EXPECT_EQ(got.stats.modifies, ref.stats.modifies);
  return ref.code;
}

EntryOp leaf_op(Kind kind, const table::LeafEntry& e) {
  EntryOp op;
  op.kind = kind;
  op.table = std::string(table::kLeafTableName);
  op.state = e.state;
  op.actions = *e.actions;
  return op;
}

EntryOp field_op(Kind kind, const table::Table& t, const table::Entry& e) {
  EntryOp op;
  op.kind = kind;
  op.table = t.name();
  op.state = e.state;
  op.match = e.match;
  op.next_state = e.next_state;
  return op;
}

// A field table of `p` with at least one entry, picked by the rng.
const table::Table* pick_table(const table::Pipeline& p, util::Rng& rng) {
  std::vector<const table::Table*> nonempty;
  for (const auto& t : p.value_maps)
    if (!t.entries().empty()) nonempty.push_back(&t);
  for (const auto& t : p.tables)
    if (!t.entries().empty()) nonempty.push_back(&t);
  return nonempty.empty() ? nullptr : rng.pick(nonempty);
}

// One seeded mutation of a delta against `have`: drop, duplicate, flip or
// perturb an op, retarget it, reorder, or add ops on live entries.
void mutate(std::vector<EntryOp>& ops, const table::Pipeline& have,
            util::Rng& rng) {
  auto any_op = [&]() -> EntryOp& {
    return ops[static_cast<std::size_t>(rng.uniform(0, ops.size() - 1))];
  };
  switch (rng.uniform(0, 10)) {
    case 0:
      if (!ops.empty())
        ops.erase(ops.begin() +
                  static_cast<std::ptrdiff_t>(rng.uniform(0, ops.size() - 1)));
      break;
    case 1:
      if (!ops.empty()) {
        const EntryOp copy = any_op();
        ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(
                                     rng.uniform(0, ops.size())),
                   copy);
      }
      break;
    case 2:
      if (!ops.empty()) {
        EntryOp& op = any_op();
        op.kind = op.kind == Kind::kAdd ? Kind::kRemove : Kind::kAdd;
      }
      break;
    case 3:
      if (!ops.empty()) {
        EntryOp& op = any_op();
        if (rng.chance(0.5))
          op.state += static_cast<table::StateId>(rng.uniform(1, 3));
        else
          op.next_state += static_cast<table::StateId>(rng.uniform(1, 3));
      }
      break;
    case 4:
      if (!ops.empty()) any_op().table = "tbl_nonexistent";
      break;
    case 5:
      if (!ops.empty()) any_op().kind = Kind::kModify;
      break;
    case 6:
      if (!ops.empty()) {
        EntryOp& op = any_op();
        op.actions.add_port(static_cast<std::uint16_t>(rng.uniform(1, 40)));
      }
      break;
    case 7:
      if (ops.size() > 1) std::swap(any_op(), any_op());
      break;
    case 8:
      // Remove and re-add a live leaf state, with its own or new actions.
      if (!have.leaf.entries().empty()) {
        const auto& e = rng.pick(have.leaf.entries());
        EntryOp re = leaf_op(Kind::kAdd, e);
        if (rng.chance(0.5))
          re.actions.add_port(static_cast<std::uint16_t>(rng.uniform(1, 40)));
        ops.push_back(leaf_op(Kind::kRemove, e));
        ops.push_back(re);
      }
      break;
    case 9:
      // Remove a live field entry (and maybe put it back).
      if (const table::Table* t = pick_table(have, rng)) {
        const auto& e = rng.pick(t->entries());
        ops.push_back(field_op(Kind::kRemove, *t, e));
        if (rng.chance(0.5)) ops.push_back(field_op(Kind::kAdd, *t, e));
      }
      break;
    default:
      // Add an entry that overlaps a live range (U007 when nothing removes
      // the original first).
      if (const table::Table* t = pick_table(have, rng)) {
        table::Entry e = rng.pick(t->entries());
        if (e.match.kind == table::ValueMatch::Kind::kRange) {
          e.match.hi += 1;
          ops.push_back(field_op(Kind::kAdd, *t, e));
        }
      }
      break;
  }
}

TEST(DeltaDifferential, ChurnCommitsDiffAndApplyLikeTheReference) {
  for (const std::uint64_t seed : {11u, 12u}) {
    for (const bool compress : {false, true}) {
      const auto history = churn_history(seed, 60, 40, exact_first(compress));
      ASSERT_GT(history.size(), 1u);
      expect_same_diff(nullptr, history[0]);
      for (std::size_t i = 1; i < history.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " commit " +
                     std::to_string(i));
        expect_same_diff(&history[i - 1], history[i]);
        const auto diff = table::diff_pipelines(&history[i - 1], history[i]);
        if (diff.requires_reprogram) continue;
        EXPECT_EQ(expect_same_apply(history[i - 1], diff.ops), "");
        // Diffs across several commits, both ways.
        if (i >= 5) {
          expect_same_diff(&history[i], history[i - 5]);
          const auto back = table::diff_pipelines(&history[i], history[i - 5]);
          if (!back.requires_reprogram) {
            EXPECT_EQ(expect_same_apply(history[i], back.ops), "");
          }
        }
      }
    }
  }
}

TEST(DeltaDifferential, StageLayoutChangesAndEmptyHave) {
  const auto schema = spec::make_itch_schema();
  const auto plain = churn_history(21, 40, 3, exact_first(false));
  const auto compressed = churn_history(21, 40, 3, exact_first(true));
  const auto declared = churn_history(21, 40, 3, compiler::CompileOptions{});
  const table::Pipeline empty;
  for (const auto* want : {&plain.back(), &compressed.back(),
                           &declared.back()}) {
    expect_same_diff(&empty, *want);
    expect_same_diff(want, empty);
    expect_same_apply(empty, table::diff_pipelines(&empty, *want).ops);
    for (const auto* have : {&plain[0], &compressed[0], &declared[0]}) {
      expect_same_diff(have, *want);
      // A layout change must ship as an image, but its ops still apply
      // (or fail) alike.
      expect_same_apply(*have, table::diff_pipelines(have, *want).ops);
    }
  }
  EXPECT_TRUE(table::diff_pipelines(&plain[0], compressed[0])
                  .requires_reprogram);
  EXPECT_TRUE(table::diff_pipelines(&empty, plain[0]).requires_reprogram);
}

TEST(DeltaDifferential, DuplicateEntriesOnEitherSide) {
  const auto history = churn_history(31, 40, 6, exact_first(false));
  table::Pipeline have = history[0];
  const table::Pipeline& want = history.back();
  // Duplicate a field entry twice and a leaf state once (the shadowed
  // leaf copy carries other actions).
  auto nonempty = std::find_if(have.tables.begin(), have.tables.end(),
                               [](const table::Table& tbl) {
                                 return !tbl.entries().empty();
                               });
  ASSERT_NE(nonempty, have.tables.end());
  table::Table& t = *nonempty;
  const table::Entry dup = t.entries().front();
  t.add_entry(dup);
  t.add_entry(dup);
  ASSERT_FALSE(have.leaf.entries().empty());
  table::LeafEntry shadow = have.leaf.entries().front();
  lang::ActionSet shadow_actions = *shadow.actions;
  shadow_actions.add_port(77);
  shadow.actions =
      std::make_shared<const lang::ActionSet>(std::move(shadow_actions));
  if (shadow.actions->ports.size() > 1)
    shadow.mcast_group = have.mcast.intern(shadow.actions);
  have.leaf.add_entry(shadow);

  expect_same_diff(&have, want);
  expect_same_diff(&want, have);
  expect_same_diff(&have, have);

  const EntryOp del = field_op(Kind::kRemove, t, dup);
  const EntryOp add = field_op(Kind::kAdd, t, dup);
  EXPECT_EQ(expect_same_apply(have, std::vector{del}), "");
  EXPECT_EQ(expect_same_apply(have, std::vector{del, del, del}), "");
  EXPECT_EQ(expect_same_apply(have, std::vector{del, del, del, del}), "U002");
  EXPECT_EQ(expect_same_apply(have, std::vector{add}), "U003");
  EXPECT_EQ(expect_same_apply(have, std::vector{del, del, del, add}), "");
  EXPECT_EQ(expect_same_apply(have, std::vector{del, del, del, add, add}),
            "U003");

  // Leaf removes meet the first entry of their state, then its shadow.
  const table::LeafEntry& first = have.leaf.entries().front();
  const EntryOp leaf_del = leaf_op(Kind::kRemove, first);
  const EntryOp shadow_del = leaf_op(Kind::kRemove, shadow);
  EXPECT_EQ(expect_same_apply(have, std::vector{leaf_del}), "");
  EXPECT_EQ(expect_same_apply(have, std::vector{leaf_del, shadow_del}), "");
  EXPECT_EQ(expect_same_apply(have, std::vector{shadow_del, leaf_del}),
            "U005");
  EXPECT_EQ(expect_same_apply(have, std::vector{leaf_del, leaf_del}), "U005");
}

TEST(DeltaDifferential, LeafRemoveReaddAndMulticastReleases) {
  const auto history = churn_history(41, 60, 2, exact_first(false));
  const table::Pipeline& have = history.back();
  const table::LeafEntry* multi = nullptr;
  const table::LeafEntry* single = nullptr;
  for (const auto& e : have.leaf.entries()) {
    if (e.actions->ports.size() > 1 && !multi) multi = &e;
    if (e.actions->ports.size() == 1 && !single) single = &e;
  }
  ASSERT_NE(multi, nullptr);
  ASSERT_NE(single, nullptr);

  EntryOp to_single = leaf_op(Kind::kModify, *multi);
  to_single.actions = *single->actions;
  EntryOp to_multi = leaf_op(Kind::kModify, *single);
  to_multi.actions = *multi->actions;
  to_multi.actions.add_port(99);
  EntryOp readd = leaf_op(Kind::kAdd, *multi);
  readd.actions.add_port(98);

  using Ops = std::vector<EntryOp>;
  // Releases of a multi-port group: remove, modify away, re-add changed.
  EXPECT_EQ(expect_same_apply(have, Ops{leaf_op(Kind::kRemove, *multi)}), "");
  EXPECT_EQ(expect_same_apply(have, Ops{to_single}), "");
  EXPECT_EQ(expect_same_apply(have, Ops{to_multi}), "");
  EXPECT_EQ(expect_same_apply(have, Ops{to_multi, to_single}), "");
  EXPECT_EQ(expect_same_apply(have, Ops{readd, leaf_op(Kind::kRemove, *multi)}),
            "");
  EXPECT_EQ(expect_same_apply(have, Ops{leaf_op(Kind::kRemove, *multi),
                                        leaf_op(Kind::kAdd, *multi)}),
            "");
  // A modify runs after the removes, so it no longer finds the state.
  EXPECT_EQ(expect_same_apply(have, Ops{leaf_op(Kind::kRemove, *multi),
                                        to_single}),
            "U005");
  EXPECT_EQ(expect_same_apply(have, Ops{readd}), "U006");
  EXPECT_EQ(expect_same_apply(have, Ops{readd, leaf_op(Kind::kRemove, *multi),
                                        readd}),
            "U006");

  // A leaf whose group id names another port set (a hand-built or damaged
  // program) is pointed back at its own port set's group on a release, as
  // re-interning every leaf would.
  ASSERT_GT(have.mcast.size(), 1u);
  table::Pipeline skewed = have;
  table::LeafEntry bent = *multi;
  bent.mcast_group = (*multi->mcast_group + 1) % have.mcast.size();
  ASSERT_TRUE(skewed.leaf.replace_entry(bent.state, bent));
  const table::LeafEntry* other = nullptr;
  for (const auto& e : skewed.leaf.entries())
    if (e.actions->ports.size() > 1 && e.state != multi->state) other = &e;
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(expect_same_apply(skewed, Ops{leaf_op(Kind::kRemove, *other)}),
            "");
}

TEST(DeltaDifferential, FailingDeltasReportTheSameCode) {
  const auto history = churn_history(51, 40, 1, exact_first(false));
  const table::Pipeline& have = history[0];
  const table::Table* t = nullptr;
  for (const auto& tbl : have.tables)
    if (!tbl.entries().empty()) t = &tbl;
  ASSERT_NE(t, nullptr);
  const table::Entry& e = t->entries().front();
  const table::LeafEntry& leaf = have.leaf.entries().front();

  using Ops = std::vector<EntryOp>;
  EntryOp unknown = field_op(Kind::kAdd, *t, e);
  unknown.table = "tbl_nonexistent";
  EntryOp absent = field_op(Kind::kRemove, *t, e);
  absent.next_state += 4242;
  EntryOp field_modify = field_op(Kind::kModify, *t, e);
  EntryOp wrong_actions = leaf_op(Kind::kRemove, leaf);
  wrong_actions.actions.add_port(4000);
  EntryOp absent_leaf = leaf_op(Kind::kModify, leaf);
  absent_leaf.state += 4242;

  EXPECT_EQ(expect_same_apply(have, Ops{unknown}), "U001");
  EXPECT_EQ(expect_same_apply(have, Ops{absent}), "U002");
  EXPECT_EQ(expect_same_apply(have, Ops{field_op(Kind::kAdd, *t, e)}), "U003");
  EXPECT_EQ(expect_same_apply(have, Ops{field_modify}), "U004");
  EXPECT_EQ(expect_same_apply(have, Ops{wrong_actions}), "U005");
  EXPECT_EQ(expect_same_apply(have, Ops{absent_leaf}), "U005");
  EXPECT_EQ(expect_same_apply(have, Ops{leaf_op(Kind::kAdd, leaf)}), "U006");
  // Several failures: the earliest of the first failing pass wins, the
  // removes' before the modifies' before the adds'.
  EXPECT_EQ(expect_same_apply(have, Ops{unknown, absent, wrong_actions}),
            "U002");
  EXPECT_EQ(expect_same_apply(have, Ops{wrong_actions, absent}), "U005");
  EXPECT_EQ(expect_same_apply(have, Ops{unknown, field_modify}), "U004");
  EXPECT_EQ(expect_same_apply(have, Ops{leaf_op(Kind::kAdd, leaf), unknown}),
            "U006");
}

TEST(DeltaDifferential, SeededMutatedDeltas) {
  const auto history = churn_history(61, 50, 30, exact_first(true));
  util::Rng rng(61);
  std::size_t successes = 0;
  std::set<std::string> codes;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform(1, history.size() - 1));
    const table::Pipeline& have = history[i - 1];
    std::vector<EntryOp> ops =
        table::diff_pipelines(&have, history[i]).ops;
    const int mutations = static_cast<int>(rng.uniform(1, 3));
    for (int m = 0; m < mutations; ++m) mutate(ops, have, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string code = expect_same_apply(have, ops);
    if (code.empty())
      ++successes;
    else
      codes.insert(code);
    if (::testing::Test::HasFailure()) break;
  }
  // The mutations reach the success path and every U-code.
  EXPECT_GT(successes, 50u);
  EXPECT_EQ(codes, (std::set<std::string>{"U001", "U002", "U003", "U004",
                                          "U005", "U006", "U007"}));
}

// --- the binary delta wire format ------------------------------------------

// Real deltas: the first commits of the churn_updates --quick episode (500
// subscriptions over 100 symbols and 200 hosts, so an unsubscribe rewrites
// leaves of ~145 ports), then a subscription that updates a state
// variable; and a repair diff that modifies a leaf.
std::vector<std::vector<EntryOp>> codec_corpus() {
  const auto schema = spec::make_itch_schema();
  workload::ChurnParams cp;
  cp.seed = 1;
  cp.subs.seed = 1 ^ 0x5eedULL;
  cp.subs.n_subscriptions = 500;
  cp.subs.n_symbols = 100;
  cp.subs.n_hosts = 200;
  workload::ChurnGenerator churn(schema, cp);
  compiler::IncrementalCompiler inc(schema, exact_first(false));
  std::vector<compiler::IncrementalCompiler::SubscriptionId> ids;
  for (const auto& r : churn.base()) ids.push_back(inc.add(r));
  std::vector<std::vector<EntryOp>> out;
  auto commit = [&] {
    auto d = inc.commit();
    EXPECT_TRUE(d.ok()) << d.error().to_string();
    if (d.ok() && !d.value().ops.empty()) out.push_back(d.value().ops);
  };
  commit();
  out.clear();  // the cold start: adds only, and large
  for (int i = 0; i < 6; ++i) {
    auto op = churn.next();
    if (op.subscribe) {
      if (ids.size() <= op.slot) ids.resize(op.slot + 1);
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      inc.remove(ids[op.slot]);
    }
    commit();
  }
  EXPECT_TRUE(inc.add_source("stock == ZZZZ : fwd(7); update(my_counter)").ok());
  commit();
  // A leaf modify, as reconcile ships one: the diff between two cold
  // compiles whose one leaf differs in its ports.
  auto a = compiler::compile_source(schema, "stock == ZZZZ : fwd(7)");
  auto b = compiler::compile_source(schema, "stock == ZZZZ : fwd(8)");
  EXPECT_TRUE(a.ok() && b.ok());
  out.push_back(
      table::diff_pipelines(&a.value().pipeline, b.value().pipeline).ops);
  return out;
}

// The byte offsets of every u32 count in `wire`, an encoding of `ops`: the
// op count, the stage count, each stage name's length and each leaf op's
// port and state-update counts (the layout in table/delta.hpp).
std::vector<std::size_t> count_offsets(std::string_view wire,
                                       std::span<const EntryOp> ops) {
  auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 4; i-- > 0;)
      v = v << 8 | static_cast<std::uint8_t>(wire[at + i]);
    return v;
  };
  std::vector<std::size_t> out = {8, 12};
  std::size_t at = 16;
  for (std::uint32_t i = 0, n = u32_at(12); i < n; ++i) {
    out.push_back(at);
    at += 4 + u32_at(at);
  }
  for (const EntryOp& op : ops) {
    if (!op.is_leaf()) {
      at += 30;
      continue;
    }
    const std::size_t ports = op.actions.ports.size();
    out.push_back(at + 9);
    out.push_back(at + 13 + 2 * ports);
    at += 17 + 2 * ports + 4 * op.actions.state_updates.size();
  }
  EXPECT_EQ(at, wire.size());
  return out;
}

// The codec's contract on any input: a D-coded rejection, or ops that
// re-encode to exactly those bytes. Returns the code ("" on success).
std::string expect_coded_or_canonical(const std::string& wire) {
  const auto r = table::deserialize_ops(wire);
  if (r.ok()) {
    EXPECT_EQ(table::serialize_ops(r.value()), wire);
    return "";
  }
  const std::string& code = r.error().code;
  EXPECT_TRUE(code.size() == 4 && code[0] == 'D' && code >= "D001" &&
              code <= "D006")
      << "'" << code << "': " << r.error().message;
  return code;
}

TEST(DeltaCodec, MutatedWireFailsCodedOrReencodesExactly) {
  const auto corpus = codec_corpus();
  // The corpus covers every op kind, leaves of more than 100 ports and a
  // leaf with state updates, and each delta round-trips.
  std::set<std::pair<bool, Kind>> kinds;
  std::size_t widest = 0;
  bool updates = false;
  for (const auto& ops : corpus) {
    for (const EntryOp& op : ops) {
      kinds.insert({op.is_leaf(), op.kind});
      widest = std::max(widest, op.actions.ports.size());
      updates |= !op.actions.state_updates.empty();
    }
    auto back = table::deserialize_ops(table::serialize_ops(ops));
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), ops);
  }
  EXPECT_EQ(kinds, (std::set<std::pair<bool, Kind>>{{false, Kind::kAdd},
                                                    {false, Kind::kRemove},
                                                    {true, Kind::kAdd},
                                                    {true, Kind::kRemove},
                                                    {true, Kind::kModify}}));
  EXPECT_GT(widest, 100u);
  EXPECT_TRUE(updates);
  auto empty = table::deserialize_ops(table::serialize_ops({}));
  ASSERT_TRUE(empty.ok()) << empty.error().to_string();
  EXPECT_TRUE(empty.value().empty());

  util::Rng rng(27);
  std::set<std::string> codes;
  for (const auto& ops : corpus) {
    const std::string wire = table::serialize_ops(ops);
    auto at = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform(0, n - 1));
    };
    for (int i = 0; i < 150; ++i) {  // bit flips
      std::string m = wire;
      m[at(m.size())] ^= static_cast<char>(1u << rng.uniform(0, 7));
      codes.insert(expect_coded_or_canonical(m));
    }
    for (int i = 0; i < 50; ++i) {  // truncations
      const std::string m = wire.substr(0, at(wire.size()));
      EXPECT_EQ(expect_coded_or_canonical(m), "D002") << m.size();
    }
    for (int i = 0; i < 50; ++i) {  // inserted bytes
      std::string m = wire;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at(m.size() + 1)),
               static_cast<char>(rng.uniform(0, 255)));
      codes.insert(expect_coded_or_canonical(m));
    }
    for (int i = 0; i < 50; ++i) {  // deleted bytes
      std::string m = wire;
      m.erase(at(m.size()), 1);
      codes.insert(expect_coded_or_canonical(m));
    }
    // Counts set to 2^32-1: rejected before anything is allocated.
    const std::vector<std::size_t> counts = count_offsets(wire, ops);
    for (int i = 0; i < 50; ++i) {
      std::string m = wire;
      m.replace(counts[at(counts.size())], 4, 4, '\xff');
      EXPECT_EQ(expect_coded_or_canonical(m), "D002");
    }
    std::string trailing = wire;
    trailing += '\0';
    EXPECT_EQ(expect_coded_or_canonical(trailing), "D006");
  }
  // Flips, insertions and deletions reach the decoder's checks beyond the
  // header and the lengths, and some decode to other canonical deltas.
  for (const char* code : {"", "D001", "D002", "D003", "D004", "D005"})
    EXPECT_TRUE(codes.count(code)) << code;
}

TEST(DeltaCodec, NonCanonicalOpsEncodeButAreRejected) {
  EntryOp leaf;
  leaf.table = std::string(table::kLeafTableName);
  leaf.actions.ports = {3, 1};
  EntryOp exact;
  exact.table = "tbl_price";
  exact.match = table::ValueMatch::exact(5);
  exact.match.hi = 6;
  EntryOp range;
  range.table = "tbl_price";
  range.match = table::ValueMatch::range(9, 2);
  for (const EntryOp& op : {leaf, exact, range}) {
    const auto r = table::deserialize_ops(table::serialize_ops({&op, 1}));
    ASSERT_FALSE(r.ok()) << op.to_string();
    EXPECT_EQ(r.error().code, "D005") << r.error().message;
  }
}

}  // namespace
