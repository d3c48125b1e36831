// Robustness and differential fuzzing.
//
// Byte-level: random and mutated inputs must never crash the front-ends —
// parsers return errors, decoders return nullopt, valid inputs keep
// round-tripping. The generators (workload::random_text / token_soup)
// and the repro-hint convention are shared with camus-fuzz, so a failing
// seed here reproduces from the command line.
//
// Grammar-level: workload::GrammarFuzzer samples the full subscription
// grammar and verify::run_case cross-checks the compiled artifacts
// against the brute-force AST oracle in all four modes (direct, churn,
// fault, lint). The committed reproducers under tests/corpus/ — minimized
// divergences from past campaigns — are replayed forever, and campaign
// determinism (same seed => same verdict digest) is asserted directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "compiler/compile.hpp"
#include "compiler/incremental.hpp"
#include "lang/eval.hpp"
#include "lang/parser.hpp"
#include "proto/packet.hpp"
#include "proto/pcap.hpp"
#include "spec/itch_spec.hpp"
#include "spec/spec_parser.hpp"
#include "switchsim/switch.hpp"
#include "table/serialize.hpp"
#include "util/intern.hpp"
#include "util/rng.hpp"
#include "verify/fuzz_harness.hpp"
#include "workload/fuzz.hpp"

namespace {

using namespace camus;

// Token soup that looks more like real rules.
std::string rule_soup(util::Rng& rng) {
  static constexpr std::string_view kTokens[] = {
      "stock",  "price",   "shares", "==",   "!=",   "<",     ">",
      "<=",     ">=",      "and",    "or",   "not",  "!",     "(",
      ")",      ":",       "fwd",    "drop", "update", ",",   ";",
      "GOOGL",  "42",      "avg",    "in",   "my_counter", "1.2.3.4",
      "\"X\"",  "0",       "18446744073709551615"};
  return workload::token_soup(rng, kTokens, 1, 25);
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RuleParserNeverCrashes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::string text =
        rng.chance(0.5) ? workload::random_text(rng, 120) : rule_soup(rng);
    (void)lang::parse_rules(text);   // must not crash or hang
    (void)lang::parse_condition(text);
  }
}

TEST_P(FuzzSeeds, SpecParserNeverCrashes) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  static constexpr std::string_view kTokens[] = {
      "header_type", "header", "fields", "{", "}", ";", ":", "(",
      ")",           ",",      "t",      "x", "32", "64", "symbol",
      "@query_field", "@query_counter", "@query_avg", "100"};
  for (int i = 0; i < 2000; ++i) {
    const std::string text = rng.chance(0.5)
                                 ? workload::random_text(rng, 150)
                                 : workload::token_soup(rng, kTokens, 1, 30);
    (void)spec::parse_spec(text);
  }
}

TEST_P(FuzzSeeds, PipelineDeserializerNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x5151);
  // Mutations of a valid serialization.
  const std::string valid =
      "camus-pipeline v1\ninitial_state 0\n"
      "table t subject=f0 kind=range width=8 symbol=0\n"
      "entry 0 range 1 9 1\nleaf\nentry 1 ports=1 updates=- mcast=-\nend\n";
  for (int i = 0; i < 2000; ++i) {
    std::string text = valid;
    const std::size_t flips = 1 + rng.uniform(0, 5);
    for (std::size_t k = 0; k < flips; ++k) {
      const std::size_t pos = rng.uniform(0, text.size() - 1);
      text[pos] = static_cast<char>(rng.uniform(32, 126));
    }
    (void)table::deserialize_pipeline(text);
  }
  for (int i = 0; i < 500; ++i)
    (void)table::deserialize_pipeline(workload::random_text(rng, 300));
}

// Builds a structurally valid MoldUDP64 market-data frame to mutate.
std::vector<std::uint8_t> valid_market_frame(util::Rng& rng) {
  std::vector<proto::ItchAddOrder> msgs;
  const std::size_t n = rng.uniform(0, 5);  // 0 = heartbeat-style frame
  for (std::size_t i = 0; i < n; ++i) {
    proto::ItchAddOrder m;
    m.order_ref = i + 1;
    m.stock = "STK" + std::to_string(rng.uniform(0, 99));
    m.price = static_cast<std::uint32_t>(rng.uniform(1, 1000000));
    m.shares = static_cast<std::uint32_t>(rng.uniform(1, 1000));
    msgs.push_back(std::move(m));
  }
  proto::MoldUdp64Header mold;
  mold.session = "CAMUS00001";
  mold.sequence = rng.uniform(1, 1 << 20);
  proto::EthernetHeader eth;
  return proto::encode_market_data_packet(eth, 0x0a000001, 0xe8010101, mold,
                                          msgs);
}

// The zero-copy scanner and the decoder (one coded parse per layer) must
// agree on accept/reject for EVERY input — truncated, bit-flipped, or
// garbage — every reject must carry a code, and on accepted frames both
// must see the same messages. Runs under ASAN/UBSAN in CI, so any
// out-of-bounds read in the scan fast path is caught here.
TEST_P(FuzzSeeds, MoldUdpDecodersAgreeOnMutatedFrames) {
  util::Rng rng(GetParam() ^ 0x11d);
  proto::MarketDataView view;
  std::vector<std::uint32_t> offsets;

  auto check_agreement = [&](std::span<const std::uint8_t> frame) {
    view = proto::MarketDataView{};
    offsets.clear();
    const bool scanned = proto::scan_market_data_packet(frame, view, offsets);
    const auto checked = proto::decode_market_data_packet_checked(frame);

    ASSERT_EQ(scanned, checked.ok())
        << "scan/decode disagree on a " << frame.size()
        << "-byte frame; diagnostic: "
        << (checked.ok() ? "ok" : checked.error().to_string());
    if (!checked.ok()) {
      // A reject must carry a stable diagnostic code.
      EXPECT_FALSE(checked.error().code.empty());
      return;
    }
    const proto::MarketDataPacket& decoded = checked.value();
    ASSERT_EQ(offsets.size(), decoded.itch.add_orders.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      const auto m = proto::decode_add_order_at(frame, offsets[i]);
      EXPECT_EQ(m.stock, decoded.itch.add_orders[i].stock);
      EXPECT_EQ(m.price, decoded.itch.add_orders[i].price);
      EXPECT_EQ(m.order_ref, decoded.itch.add_orders[i].order_ref);
    }

    // The raw re-framer writes what decode-then-encode writes, byte for
    // byte, for subsets of the scanned messages: none, the first, every
    // other one, and all of them. Flipped bits reach the IP addresses
    // (checksum folds), the IHL, the session bytes and the sequence.
    const auto& all = decoded.itch.add_orders;
    for (int subset = 0; subset < 4; ++subset) {
      std::vector<std::uint32_t> sub_offsets;
      std::vector<proto::ItchAddOrder> sub_msgs;
      for (std::size_t i = 0; i < all.size(); ++i) {
        const bool keep = subset == 1   ? i == 0
                          : subset == 2 ? i % 2 == 0
                                        : subset == 3;
        if (!keep) continue;
        sub_offsets.push_back(offsets[i]);
        sub_msgs.push_back(all[i]);
      }
      // Pre-filled, so a byte the re-framer leaves unwritten shows.
      std::vector<std::uint8_t> built(
          proto::market_frame_raw_size(sub_offsets.size()), 0xa5);
      proto::build_market_frame_raw(view, frame, sub_offsets,
                                    std::span(built));
      const auto expected = proto::encode_market_data_packet(
          decoded.eth, decoded.ip.src, decoded.ip.dst, decoded.itch.mold,
          sub_msgs, decoded.udp.dst_port);
      ASSERT_EQ(built, expected) << "subset " << subset << " of a "
                                 << frame.size() << "-byte frame";
    }
  };

  for (int round = 0; round < 400; ++round) {
    const auto frame = valid_market_frame(rng);

    // Every truncation length, including 0 and the full frame.
    for (std::size_t len = 0; len <= frame.size();
         len += 1 + rng.uniform(0, 6)) {
      check_agreement(std::span(frame.data(), len));
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Bit-flipped copies: 1..8 random flips anywhere in the frame.
    auto mutated = frame;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 7));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.uniform(0, mutated.size() - 1);
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    }
    check_agreement(mutated);
    if (::testing::Test::HasFatalFailure()) return;

    // Truncated AND flipped.
    mutated.resize(rng.uniform(0, mutated.size()));
    if (!mutated.empty()) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^= 0xFF;
      check_agreement(mutated);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_P(FuzzSeeds, PcapParserNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> data(rng.uniform(0, 200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    (void)proto::parse_pcap(data);
    (void)proto::decode_market_data_packet(data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1001, 2002, 3003));

TEST(FuzzRoundTrip, ValidRulesSurviveReprinting) {
  // Parse -> print -> parse -> print must be a fixed point.
  util::Rng rng(777);
  static const std::vector<std::string> kSubjects = {"stock", "price",
                                                     "shares"};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const std::size_t n = 1 + rng.uniform(0, 2);
    for (std::size_t k = 0; k < n; ++k) {
      if (k) text += rng.chance(0.5) ? " and " : " or ";
      if (rng.chance(0.25)) text += "!";
      text += kSubjects[rng.uniform(0, 2)];
      static const char* kOps[] = {"==", "!=", "<", ">", "<=", ">="};
      text += " ";
      text += kOps[rng.uniform(0, 5)];
      text += ' ';
      text += std::to_string(rng.uniform(0, 999));
    }
    text += " : fwd(" + std::to_string(1 + rng.uniform(0, 9)) + ")";
    auto r1 = lang::parse_rule(text);
    ASSERT_TRUE(r1.ok()) << text;
    const std::string p1 = r1.value().to_string();
    auto r2 = lang::parse_rule(p1);
    ASSERT_TRUE(r2.ok()) << p1;
    EXPECT_EQ(r2.value().to_string(), p1);
  }
}

// --- grammar-level fuzzing ---------------------------------------------

class GrammarFuzz : public ::testing::Test {
 protected:
  spec::Schema schema_ = spec::make_itch_schema();
};

TEST_F(GrammarFuzz, SampleIsPureFunctionOfSeedAndIndex) {
  workload::FuzzParams params;
  params.seed = 11;
  const workload::GrammarFuzzer a(schema_, params);
  const workload::GrammarFuzzer b(schema_, params);

  // Same (seed, index) from a fresh fuzzer, out of order, must match.
  const auto s1 = a.sample(5);
  (void)a.sample(7);
  const auto s2 = a.sample(5);
  const auto s3 = b.sample(5);
  EXPECT_EQ(s1.source(), s2.source());
  EXPECT_EQ(s1.source(), s3.source());
  ASSERT_EQ(s1.probes.size(), s3.probes.size());
  for (std::size_t i = 0; i < s1.probes.size(); ++i) {
    EXPECT_EQ(s1.probes[i].fields, s3.probes[i].fields) << i;
    EXPECT_EQ(s1.probes[i].now_us, s3.probes[i].now_us) << i;
  }
  EXPECT_EQ(s1.compress, s3.compress);

  // A different seed must actually change the stream.
  params.seed = 12;
  const workload::GrammarFuzzer c(schema_, params);
  bool any_diff = false;
  for (std::uint64_t i = 0; i < 10 && !any_diff; ++i)
    any_diff = a.sample(i).source() != c.sample(i).source();
  EXPECT_TRUE(any_diff);
}

TEST_F(GrammarFuzz, SamplesAreValidByConstruction) {
  const workload::GrammarFuzzer fuzzer(schema_);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto s = fuzzer.sample(i);
    EXPECT_EQ(s.bound.size(), s.rules.size())
        << "a generated rule failed to bind; "
        << workload::fuzz_repro_hint(s.seed, i);
    auto reparsed = lang::parse_rules(s.source());
    ASSERT_TRUE(reparsed.ok())
        << workload::fuzz_repro_hint(s.seed, i) << ": "
        << reparsed.error().to_string();
    EXPECT_EQ(reparsed.value().size(), s.rules.size());
    EXPECT_FALSE(s.probes.empty());
    for (std::size_t p = 1; p < s.probes.size(); ++p)
      EXPECT_LE(s.probes[p - 1].now_us, s.probes[p].now_us)
          << "probe times must be nondecreasing";
  }
}

TEST_F(GrammarFuzz, ReproSerializationRoundTrips) {
  const workload::GrammarFuzzer fuzzer(schema_);
  const auto s = fuzzer.sample(3);
  verify::FuzzRepro r;
  r.seed = s.seed;
  r.index = s.index;
  r.mode = verify::FuzzMode::kLint;
  r.compress = s.compress;
  r.notes = {"a note", "another note"};
  r.rules = s.rules;
  r.probes = s.probes;

  const std::string text = verify::serialize_repro(r);
  auto parsed = verify::parse_repro(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const verify::FuzzRepro& q = parsed.value();
  EXPECT_EQ(q.seed, r.seed);
  EXPECT_EQ(q.index, r.index);
  EXPECT_EQ(q.mode, r.mode);
  EXPECT_EQ(q.compress, r.compress);
  EXPECT_EQ(q.notes, r.notes);
  ASSERT_EQ(q.rules.size(), r.rules.size());
  for (std::size_t i = 0; i < r.rules.size(); ++i)
    EXPECT_EQ(q.rules[i].to_string(), r.rules[i].to_string()) << i;
  ASSERT_EQ(q.probes.size(), r.probes.size());
  for (std::size_t i = 0; i < r.probes.size(); ++i) {
    EXPECT_EQ(q.probes[i].fields, r.probes[i].fields) << i;
    EXPECT_EQ(q.probes[i].now_us, r.probes[i].now_us) << i;
  }

  EXPECT_FALSE(verify::parse_repro("garbage").ok());
  EXPECT_FALSE(verify::parse_repro("camus-fuzz repro v1\n").ok());
}

TEST_F(GrammarFuzz, MinimizerShrinksAFailingCase) {
  // A sample whose rule set cannot fully bind is the one divergence we can
  // construct deterministically post-fix: run_case flags it in every mode,
  // and the minimizer must strip the healthy rules and probes around it.
  const workload::GrammarFuzzer fuzzer(schema_);
  workload::FuzzSample s = fuzzer.sample(0);
  lang::Rule broken;
  lang::PredExpr p;
  p.subject = "no_such_field";
  p.op = lang::CmpOp::kEq;
  p.literal.kind = lang::Literal::Kind::kInt;
  p.literal.int_value = 1;
  broken.cond = lang::Cond::make_atom(std::move(p));
  broken.actions.push_back([] {
    lang::Action a;
    a.kind = lang::Action::Kind::kFwd;
    a.fwd.ports = {1, 2, 3};
    return a;
  }());
  s.rules.push_back(broken);  // s.bound stays as-is: sizes now differ

  const verify::FuzzCaseResult r = verify::run_case(schema_, s);
  ASSERT_TRUE(r.diverged);

  const verify::FuzzRepro m = verify::minimize(schema_, s, r.mode);
  EXPECT_EQ(m.rules.size(), 1u) << "minimizer kept healthy rules";
  EXPECT_TRUE(m.probes.empty()) << "minimizer kept irrelevant probes";
  // The broken rule's multi-port fwd shrinks to a single port.
  ASSERT_FALSE(m.rules[0].actions.empty());
  EXPECT_LE(m.rules[0].actions[0].fwd.ports.size(), 1u);
  // The reproducer must still reproduce.
  const verify::FuzzCaseResult again = verify::replay_repro(schema_, m);
  EXPECT_TRUE(again.diverged);
}

TEST_F(GrammarFuzz, CampaignIsDeterministic) {
  verify::CampaignOptions opts;
  opts.seed = 21;
  opts.samples = 40;
  const auto r1 = verify::run_campaign(schema_, opts);
  const auto r2 = verify::run_campaign(schema_, opts);
  EXPECT_EQ(r1.samples_run, 40u);
  EXPECT_EQ(r1.verdict_digest, r2.verdict_digest);
  EXPECT_EQ(r1.probes_run, r2.probes_run);
  EXPECT_EQ(r1.divergences, r2.divergences);
  EXPECT_EQ(r1.divergences, 0u)
      << "campaign divergence: " << (r1.failures.empty()
                                         ? ""
                                         : r1.failures.front().detail);

  // Different seed, different digest (the seed is folded in).
  opts.seed = 22;
  const auto r3 = verify::run_campaign(schema_, opts);
  EXPECT_NE(r1.verdict_digest, r3.verdict_digest);
}

TEST_F(GrammarFuzz, CommittedCorpusReplaysGreen) {
  const std::filesystem::path dir = CAMUS_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    auto repro = verify::parse_repro(ss.str());
    ASSERT_TRUE(repro.ok())
        << entry.path() << ": " << repro.error().to_string();
    const verify::FuzzCaseResult r =
        verify::replay_repro(schema_, repro.value());
    EXPECT_FALSE(r.diverged)
        << entry.path() << " regressed: " << r.detail;
    ++replayed;
  }
  // The corpus ships with the repo; an empty directory means the corpus
  // went missing (wrong CAMUS_CORPUS_DIR), not that all bugs are fixed.
  EXPECT_GE(replayed, 2u);
}

// Regression for the first campaign's finding (tests/corpus/seed1_idx29,
// seed1_idx37): a rule set whose union MTBDD stops testing a field mid-
// churn used to shed that stage entirely, and the next commit's entry
// delta targeted a table the switch did not run (U001). Stage
// materialization keeps the stage list stable, so remove/re-add churn
// round-trips through Switch::apply_delta. The corpus cases collapse the
// range-hinted shares stage, whose materialized (empty) form is a range
// table and whose generated form here an exact one: that match-kind flip
// is a reprogram, which the corpus replays take. The exact-hinted stock
// stage collapses the same way with no kind flip, so the deltas ship.
// The range rule pair on shares collapses with no flip either. Its
// union, the terminal fwd(1), holds state 0 at the first commit and must
// give it up when the remove makes `shares > 5` the root: a packet with
// shares <= 5 misses that stage and stays in state 0, and with no
// wildcard entry on a range stage it would otherwise take the terminal's
// leaf entry and forward where the rules drop.
TEST_F(GrammarFuzz, ChurnDeltasSurviveStructuralCollapse) {
  struct Input {
    const char* rules;
    const char* stage;
    std::size_t field;  // index of the stage's field in Env::fields
    std::vector<std::uint64_t> probes;
  };
  const Input inputs[] = {
      {"stock == GOOGL : fwd(2,6)\n"
       "!(stock == GOOGL) : fwd(2,6)\n",
       "add_order.stock",
       1,
       {util::encode_symbol("GOOGL"), util::encode_symbol("GOOG"),
        util::encode_symbol("MSFT"), util::encode_symbol("A")}},
      {"!(shares > 5) : fwd(1)\n"
       "shares > 5 : fwd(1)\n",
       "add_order.shares",
       0,
       {0, 3, 5, 6, 0xffffffffull}},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.rules);
    auto rules = lang::parse_rules(in.rules);
    ASSERT_TRUE(rules.ok());
    auto bound = lang::bind_rules(rules.value(), schema_);
    ASSERT_TRUE(bound.ok());

    compiler::IncrementalCompiler inc(schema_);
    const auto id0 = inc.add(bound.value()[0]);
    inc.add(bound.value()[1]);
    ASSERT_TRUE(inc.commit().ok());
    switchsim::Switch sw(schema_, table::Pipeline(*inc.pipeline().value()));

    // With both rules live the union is constant — but the stage must
    // still exist (empty), or the re-add below cannot ship as a delta.
    EXPECT_NE(inc.pipeline().value()->find_table(in.stage), nullptr);

    // The delta-patched switch and the compiler's own program equal the
    // brute-force oracle over the live rules at every probe.
    auto expect_oracle = [&](const std::vector<lang::BoundRule>& live,
                             const char* when) {
      for (const std::uint64_t v : in.probes) {
        lang::Env e;
        e.fields = {0, 0, 0};
        e.fields[in.field] = v;
        e.states.assign(schema_.state_vars().size(), 0);
        const lang::ActionSet want = lang::brute_eval_rules(live, e);
        EXPECT_EQ(sw.classify(e.fields, 0), want) << when << ", value " << v;
        EXPECT_EQ(inc.pipeline().value()->evaluate_actions(e), want)
            << when << ", value " << v;
      }
    };

    inc.remove(id0);
    auto d1 = inc.commit();
    ASSERT_TRUE(d1.ok());
    EXPECT_FALSE(d1.value().requires_reprogram);
    ASSERT_TRUE(sw.apply_delta(d1.value().ops).ok());
    expect_oracle({bound.value()[1]}, "after the remove");

    inc.add(bound.value()[0]);
    auto d2 = inc.commit();
    ASSERT_TRUE(d2.ok());
    EXPECT_FALSE(d2.value().requires_reprogram);
    ASSERT_TRUE(sw.apply_delta(d2.value().ops).ok());
    expect_oracle(bound.value(), "after the re-add");
  }
}

// Domain compression can create or retire a mapping stage mid-churn (a
// table crossing the compression threshold). An empty mapping stage is not
// pass-through — it would re-code the field to 0 — so such commits must be
// flagged requires_reprogram instead of shipping inapplicable entry ops.
TEST_F(GrammarFuzz, CompressionStructureChangeForcesReprogram) {
  compiler::CompileOptions opts;
  opts.domain_compression = true;
  opts.compression_min_entries = 2;  // tiny threshold to cross both ways
  compiler::IncrementalCompiler inc(schema_, opts);

  auto add_rule = [&](const std::string& src) {
    auto r = inc.add_source(src);
    EXPECT_TRUE(r.ok()) << src;
    return r.ok() ? r.value() : 0;
  };

  // One range rule: below the threshold, no mapping stage.
  const auto id0 = add_rule("price > 100 : fwd(1)");
  ASSERT_TRUE(inc.commit().ok());
  const bool had_map = !inc.pipeline().value()->value_maps.empty();
  switchsim::Switch sw(schema_, table::Pipeline(*inc.pipeline().value()));

  // Grow the price table past the threshold: a mapping stage appears, and
  // the commit must demand a reprogram.
  add_rule("price > 200 : fwd(2)");
  add_rule("price > 300 : fwd(3)");
  add_rule("price < 50 : fwd(4)");
  auto d = inc.commit();
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(inc.pipeline().value()->value_maps.empty())
      << "test premise: compression must kick in";
  if (!had_map) {
    EXPECT_TRUE(d.value().requires_reprogram);
    sw.reprogram(table::Pipeline(*inc.pipeline().value()));
  }

  // Shrink back below the threshold: the mapping stage retires, which must
  // again be a reprogram (an empty map would zero the field).
  inc.remove(id0);
  // Leave one range rule so the table itself survives.
  auto d2 = inc.commit();
  ASSERT_TRUE(d2.ok());
  if (d2.value().requires_reprogram)
    sw.reprogram(table::Pipeline(*inc.pipeline().value()));
  else
    ASSERT_TRUE(sw.apply_delta(d2.value().ops).ok());

  // However it shipped, the switch matches a from-scratch compile.
  auto scratch_rules = lang::parse_rules(
      "price > 200 : fwd(2)\n"
      "price > 300 : fwd(3)\n"
      "price < 50 : fwd(4)\n");
  ASSERT_TRUE(scratch_rules.ok());
  auto scratch_bound = lang::bind_rules(scratch_rules.value(), schema_);
  ASSERT_TRUE(scratch_bound.ok());
  for (std::uint64_t v : {0ULL, 49ULL, 50ULL, 150ULL, 250ULL, 350ULL}) {
    lang::Env e;
    e.fields = {0, 0, v};
    EXPECT_EQ(sw.classify(e.fields, 0),
              lang::brute_eval_rules(scratch_bound.value(), e))
        << "price=" << v;
  }
}

// A short four-mode campaign as part of the default suite: 25 samples
// through direct + churn + fault + lint. The CI fuzz-campaign job runs the
// long version; this keeps every local `ctest` a miniature campaign.
TEST_F(GrammarFuzz, ShortCampaignFindsNoDivergence) {
  verify::CampaignOptions opts;
  opts.seed = 4242;
  opts.samples = 25;
  const auto res = verify::run_campaign(schema_, opts);
  EXPECT_EQ(res.samples_run, 25u);
  EXPECT_EQ(res.divergences, 0u)
      << (res.failures.empty() ? "" : res.failures.front().detail);
  EXPECT_GT(res.probes_run, 0u);
  // The JSON summary must serialize (consumed by the CI job).
  EXPECT_NE(res.to_json().find("\"divergences\":0"), std::string::npos);
}

}  // namespace
