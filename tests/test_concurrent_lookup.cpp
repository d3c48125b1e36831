// Concurrent read-only lookups (run under ThreadSanitizer in CI): a
// Pipeline is plain data and a CompiledPipeline is immutable once built,
// so Pipeline::evaluate and CompiledPipeline::traverse are const and safe
// to call from many threads at once, with nothing to prepare first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "compiler/incremental.hpp"
#include "fault/plan.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/extract.hpp"
#include "table/compiled.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

namespace {

using namespace camus;

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 4;

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

TEST(ConcurrentLookup, EvaluateAndTraverseAfterControllerCompile) {
  auto schema = spec::make_itch_schema();
  const auto symbols = workload::itch_symbols(100);

  // The Figure 5c subscription shape, 300 of them over 16 hosts.
  util::MemStorage storage;
  pubsub::DurableController ctl(schema, storage);
  ASSERT_TRUE(ctl.open().ok());
  util::Rng rng(17);
  for (int i = 0; i < 300; ++i)
    ASSERT_TRUE(ctl.subscribe(0, "stock == " + rng.pick(symbols) +
                                     " and price > " +
                                     std::to_string(rng.uniform(1, 999)) +
                                     " : fwd(" +
                                     std::to_string(rng.uniform(1, 16)) + ")")
                    .ok());
  auto committed = ctl.commit();
  ASSERT_TRUE(committed.ok()) << committed.error().to_string();

  // The controller's intended program, shared exactly as committed.
  const table::Pipeline& pipe = ctl.intended().value()->leaves[0];
  const table::CompiledPipeline cp(pipe);
  ASSERT_TRUE(cp.valid());

  workload::FeedParams fp;
  fp.seed = 23;
  fp.n_messages = 2000;
  fp.symbols = symbols;
  auto feed = workload::generate_feed(fp);

  switchsim::ItchFieldExtractor ex(schema);
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.reserve(feed.messages.size());
  for (const auto& fm : feed.messages) inputs.push_back(ex.extract(fm.msg));
  const std::vector<std::uint64_t> states(schema.state_vars().size(), 0);

  // Single-threaded reference digest over (evaluate, traverse) outcomes.
  std::uint64_t want = 0xcbf29ce484222325ULL;
  {
    lang::Env env;
    env.states = states;
    for (const auto& fields : inputs) {
      env.fields = fields;
      const table::LeafEntry* leaf = pipe.evaluate(env);
      want = fnv_step(want, leaf ? leaf->state : ~0ULL);
      want = fnv_step(want, cp.traverse(fields, states));
    }
  }

  std::vector<std::uint64_t> got(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t h = 0;
      lang::Env env;
      env.states = states;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        h = 0xcbf29ce484222325ULL;
        for (const auto& fields : inputs) {
          env.fields = fields;
          const table::LeafEntry* leaf = pipe.evaluate(env);
          h = fnv_step(h, leaf ? leaf->state : ~0ULL);
          h = fnv_step(h, cp.traverse(fields, states));
        }
      }
      got[t] = h;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << "thread " << t;
}

// The memo decomposition is equally const: concurrent prefix_key /
// run_prefix / finish calls over one shared CompiledPipeline, with and
// without domain compression (whose value-map chains finish() folds).
void prefix_decomposition_is_const(bool domain_compression) {
  auto schema = spec::make_itch_schema();
  workload::ItchSubsParams sp;
  sp.seed = 29;
  sp.n_subscriptions = 200;
  sp.n_symbols = 64;
  sp.n_hosts = 8;
  auto subs = workload::generate_itch_subscriptions(schema, sp);
  compiler::CompileOptions co;
  co.order = bdd::OrderHeuristic::kExactFirst;
  co.domain_compression = domain_compression;
  auto pipeline = compiler::compile_rules(schema, subs.rules, co).take().pipeline;
  ASSERT_EQ(pipeline.value_maps.empty(), !domain_compression);
  const table::CompiledPipeline cp(pipeline);
  ASSERT_TRUE(cp.valid());
  ASSERT_GT(cp.prefix_stages(), 0u);

  workload::FeedParams fp;
  fp.seed = 31;
  fp.n_messages = 1000;
  fp.symbols = subs.symbols;
  auto feed = workload::generate_feed(fp);
  switchsim::ItchFieldExtractor ex(schema);
  std::vector<std::vector<std::uint64_t>> inputs;
  for (const auto& fm : feed.messages) inputs.push_back(ex.extract(fm.msg));
  const std::vector<std::uint64_t> states(schema.state_vars().size(), 0);

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& fields : inputs) {
        const std::uint32_t mid = cp.run_prefix(fields, states);
        if (cp.finish(mid, fields, states) != cp.traverse(fields, states))
          ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
}

TEST(ConcurrentLookup, PrefixDecompositionIsConst) {
  prefix_decomposition_is_const(false);
  prefix_decomposition_is_const(true);
}

// Two-phase install under concurrent readers (TSAN job): while a writer
// repeatedly installs a new pipeline over a faulty control channel and
// rolls back, hot-path readers evaluating through installer.active() (the
// switch's published program) must only ever observe one of the two
// COMPLETE pipelines — never a half-committed image, never a torn
// pointer, even mid-rollback. A data-plane thread runs process_batch on
// the same switch throughout: each batch runs under one complete program,
// so its egress is exactly p1's or p2's.
TEST(ConcurrentLookup, TwoPhaseInstallNeverExposesPartialPipeline) {
  auto schema = spec::make_itch_schema();

  auto compile_set = [&](std::uint64_t seed, std::size_t n) {
    workload::ItchSubsParams sp;
    sp.seed = seed;
    sp.n_subscriptions = n;
    sp.n_symbols = 40;
    sp.n_hosts = 8;
    auto subs = workload::generate_itch_subscriptions(schema, sp);
    return compiler::compile_rules(schema, subs.rules).take().pipeline;
  };
  auto p1 = compile_set(41, 80);
  auto p2 = compile_set(43, 120);

  switchsim::Switch sw(schema, p1);
  pubsub::TwoPhaseInstaller installer(sw);

  // Reference evaluation digests of the only two legal snapshots.
  workload::FeedParams fp;
  fp.seed = 47;
  fp.n_messages = 400;
  auto feed = workload::generate_feed(fp);
  switchsim::ItchFieldExtractor ex(schema);
  std::vector<std::vector<std::uint64_t>> inputs;
  for (const auto& fm : feed.messages) inputs.push_back(ex.extract(fm.msg));
  const std::vector<std::uint64_t> states(schema.state_vars().size(), 0);

  auto digest_of = [&](const table::Pipeline& p) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    lang::Env env;
    env.states = states;
    for (const auto& fields : inputs) {
      env.fields = fields;
      const table::LeafEntry* leaf = p.evaluate(env);
      h = fnv_step(h, leaf ? leaf->state : ~0ULL);
    }
    return h;
  };
  const std::uint64_t want1 = digest_of(p1);
  const std::uint64_t want2 = digest_of(p2);

  const auto packed = workload::pack_feed_frames(feed);
  std::vector<switchsim::Switch::Frame> frames;
  for (const auto& pf : packed)
    frames.push_back({std::span<const std::uint8_t>(pf.bytes), pf.t_us});
  auto egress_digest = [&frames](switchsim::Switch& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& pkt : s.process_batch(frames)) {
      h = fnv_step(h, pkt.port);
      for (const std::uint8_t b : pkt.frame) h = fnv_step(h, b);
    }
    return h;
  };
  switchsim::Switch ref1(schema, p1), ref2(schema, p2);
  const std::uint64_t egress1 = egress_digest(ref1);
  const std::uint64_t egress2 = egress_digest(ref2);
  EXPECT_NE(egress1, egress2);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_snapshots{0};
  std::atomic<int> bad_batches{0};
  std::atomic<std::uint64_t> batches{0};
  std::thread data_plane([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t h = egress_digest(sw);
      if (h != egress1 && h != egress2)
        bad_batches.fetch_add(1, std::memory_order_relaxed);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = installer.active();
        if (!snap) continue;
        const std::uint64_t h = digest_of(*snap);
        if (h != want1 && h != want2)
          bad_snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: clean installs, faulted installs (some abort and implicitly
  // keep last-good), and explicit rollbacks, interleaved, from the data
  // plane's first batch on.
  while (batches.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  fault::FaultSpec spec;
  spec.drop = 0.3;
  spec.corrupt = 0.2;
  for (int round = 0; round < 12; ++round) {
    const fault::Plan plan(spec, 1000 + round);
    (void)installer.install(p2, round % 3 ? &plan : nullptr, 256, 2, 2);
    if (round % 2) (void)installer.rollback();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  data_plane.join();

  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(bad_batches.load(), 0);
  EXPECT_GT(batches.load(), 0u);
  // The final committed snapshot still evaluates to a legal digest.
  const std::uint64_t final_digest = digest_of(*installer.active());
  EXPECT_TRUE(final_digest == want1 || final_digest == want2);
}

// RCU program swap under load (TSAN job): the data-plane thread loops
// process_batch while a control-plane thread patches the running program
// with entry deltas (Switch::apply_delta) and occasional full
// reprogram()s. The reader must only ever execute a complete program
// (ISSUE 5 tentpole item 4); TSAN proves the version-bumped publish and
// the thread-confined snapshot cache never race. Afterwards the patched
// switch must agree bit-for-bit with a freshly built switch running the
// final pipeline.
TEST(ConcurrentLookup, DeltaSwapUnderBatchLoad) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = 53;
  cp.subs.seed = 59;
  cp.subs.n_subscriptions = 60;
  cp.subs.n_symbols = 20;
  cp.subs.n_hosts = 8;
  workload::ChurnGenerator churn(schema, cp);

  compiler::IncrementalCompiler inc(schema, opts);
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());

  workload::FeedParams fp;
  fp.seed = 61;
  fp.n_messages = 1500;
  fp.symbols = churn.symbols();
  const auto packed = workload::pack_feed_frames(workload::generate_feed(fp));
  std::vector<switchsim::Switch::Frame> frames;
  for (const auto& pf : packed)
    frames.push_back({std::span<const std::uint8_t>(pf.bytes), pf.t_us});

  auto egress_digest = [&frames](switchsim::Switch& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& pkt : s.process_batch(frames)) {
      h = fnv_step(h, pkt.port);
      for (const std::uint8_t b : pkt.frame) h = fnv_step(h, b);
    }
    return h;
  };

  // Data-plane thread: the single reader, batching continuously across
  // every swap.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::thread data_plane([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sw.process_batch(frames);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Control-plane thread (this one): 24 churn commits patched in, every
  // sixth swap a full reprogram instead of a delta, from the data plane's
  // first batch on (24 small patches can otherwise all land before the
  // data-plane thread is first scheduled).
  while (batches.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  int update_failures = 0;
  for (int round = 0; round < 24; ++round) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      ASSERT_TRUE(inc.remove(ids.at(op.slot)));
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    if (round % 6 == 5) {
      sw.reprogram(*inc.pipeline().value());
    } else if (auto applied = sw.apply_delta(delta.value().ops);
               !applied.ok()) {
      ++update_failures;
    }
  }
  stop.store(true, std::memory_order_release);
  data_plane.join();

  EXPECT_EQ(update_failures, 0);
  EXPECT_GT(batches.load(), 0u);
  // 1 initial publish + 24 updates, none lost or duplicated.
  EXPECT_EQ(sw.program_version(), 25u);

  // Converged: patched switch == fresh switch on the final pipeline.
  switchsim::Switch fresh(schema, *inc.pipeline().value());
  EXPECT_EQ(egress_digest(sw), egress_digest(fresh));
}

// Leaf action sets are shared by reference between the programs a switch
// publishes, the ones it rolls back to and every copy a reader takes, so
// their reference counts move on three threads at once (TSAN job). The
// control thread stages op deltas, commits them and rolls every third one
// back and re-applies it; the data plane batches throughout; a reader
// copies the published pipeline and walks its sets and groups.
TEST(ConcurrentLookup, SharedLeafSetsAcrossStageCommitRollback) {
  auto schema = spec::make_itch_schema();
  compiler::CompileOptions opts;
  opts.order = bdd::OrderHeuristic::kExactFirst;

  workload::ChurnParams cp;
  cp.seed = 67;
  cp.subs.seed = 71;
  cp.subs.n_subscriptions = 60;
  cp.subs.n_symbols = 20;
  cp.subs.n_hosts = 8;
  workload::ChurnGenerator churn(schema, cp);

  compiler::IncrementalCompiler inc(schema, opts);
  std::map<std::size_t, compiler::IncrementalCompiler::SubscriptionId> ids;
  for (std::size_t slot = 0; slot < churn.base().size(); ++slot)
    ids[slot] = inc.add(churn.base()[slot]);
  ASSERT_TRUE(inc.commit().ok());
  switchsim::Switch sw(schema, *inc.pipeline().value());
  pubsub::TwoPhaseInstaller installer(sw);

  workload::FeedParams fp;
  fp.seed = 73;
  fp.n_messages = 1500;
  fp.symbols = churn.symbols();
  const auto packed = workload::pack_feed_frames(workload::generate_feed(fp));
  std::vector<switchsim::Switch::Frame> frames;
  for (const auto& pf : packed)
    frames.push_back({std::span<const std::uint8_t>(pf.bytes), pf.t_us});
  auto egress_digest = [&frames](switchsim::Switch& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& pkt : s.process_batch(frames)) {
      h = fnv_step(h, pkt.port);
      for (const std::uint8_t b : pkt.frame) h = fnv_step(h, b);
    }
    return h;
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0}, copies{0};
  std::thread data_plane([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sw.process_batch(frames);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::atomic<std::uint64_t> ports_seen{0};
  std::thread copier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const table::Pipeline copy = *installer.active();
      std::uint64_t n = 0;
      for (const table::LeafEntry& e : copy.leaf.entries())
        n += e.actions->ports.size();
      for (std::uint32_t g = 0; g < copy.mcast.size(); ++g)
        n += copy.mcast.ports(g).size();
      ports_seen.fetch_add(n, std::memory_order_relaxed);
      copies.fetch_add(1, std::memory_order_relaxed);
    }
  });

  while (batches.load(std::memory_order_acquire) == 0 ||
         copies.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  int failures = 0;
  std::uint64_t publishes = 1;  // the constructor's
  for (int round = 0; round < 24 && failures == 0; ++round) {
    auto op = churn.next();
    if (op.subscribe) {
      ids[op.slot] = inc.add(std::move(op.rule));
    } else {
      inc.remove(ids.at(op.slot));
      ids.erase(op.slot);
    }
    auto delta = inc.commit();
    if (!delta.ok() || delta.value().requires_reprogram) {
      ++failures;
      break;
    }
    const auto& ops = delta.value().ops;
    pubsub::StagedInstall staged = installer.stage(ops);
    if (!staged.staged || !installer.commit(staged)) {
      ++failures;
      break;
    }
    ++publishes;
    if (round % 3 == 1 && !ops.empty()) {
      // Back to the program the commit replaced, then forward again (an
      // empty delta would re-commit without a publish).
      if (!installer.rollback() || !installer.apply_delta(ops).committed)
        ++failures;
      publishes += 2;
    }
  }
  stop.store(true, std::memory_order_release);
  data_plane.join();
  copier.join();

  EXPECT_EQ(failures, 0);
  EXPECT_GT(ports_seen.load(), 0u);
  EXPECT_EQ(sw.program_version(), publishes);
  switchsim::Switch fresh(schema, *inc.pipeline().value());
  EXPECT_EQ(egress_digest(sw), egress_digest(fresh));
}

}  // namespace
