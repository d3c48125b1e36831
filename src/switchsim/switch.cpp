#include "switchsim/switch.hpp"

#include <algorithm>

#include "proto/generic.hpp"
#include "proto/packet.hpp"
#include "util/flat_map.hpp"

namespace camus::switchsim {

Switch::Switch(spec::Schema schema, table::Pipeline pipeline)
    : schema_(std::make_shared<const spec::Schema>(std::move(schema))),
      slot_(std::make_unique<ProgramSlot>()),
      extractor_(*schema_),
      registers_(*schema_) {
  // Build the lookup indexes now, not lazily under the first packet.
  publish(std::move(pipeline));
}

// Lowers a pipeline into one immutable program generation. Runs outside
// the slot lock where possible: finalize + flatten are the expensive part
// of an update.
std::shared_ptr<Switch::Program> Switch::make_program(
    table::Pipeline pipeline) {
  auto prog = std::make_shared<Program>();
  prog->pipeline = std::move(pipeline);
  prog->pipeline.finalize();
  prog->compiled = table::CompiledPipeline(prog->pipeline);
  prog->prefix_sig = prog->compiled.prefix_signature();
  return prog;
}

void Switch::publish(table::Pipeline pipeline) {
  auto prog = make_program(std::move(pipeline));
  const std::lock_guard<std::mutex> lock(slot_->mu);
  prog->version = (slot_->published ? slot_->published->version : 0) + 1;
  const std::uint64_t v = prog->version;
  slot_->published = std::move(prog);
  // Release store after the locked publish: a reader that sees the new
  // version is guaranteed to find (at least) that program in the slot.
  slot_->version.store(v, std::memory_order_release);
}

void Switch::reprogram(table::Pipeline pipeline) {
  publish(std::move(pipeline));
}

util::Result<table::ApplyStats> Switch::apply_delta(
    std::span<const table::EntryOp> ops) {
  // The whole patch runs under the slot lock so concurrent updaters
  // serialize instead of losing each other's ops (readers only take the
  // lock on a version change, so the data plane stays unblocked on its
  // current snapshot).
  const std::lock_guard<std::mutex> lock(slot_->mu);
  table::Pipeline patched = slot_->published->pipeline;
  auto applied = table::apply_ops(patched, ops);
  if (!applied.ok()) return applied.error();  // running program untouched
  auto prog = make_program(std::move(patched));
  prog->version = slot_->published->version + 1;
  const std::uint64_t v = prog->version;
  slot_->published = std::move(prog);
  slot_->version.store(v, std::memory_order_release);
  return applied;
}

namespace {
util::Error stale_epoch_error(std::uint64_t epoch, std::uint64_t fence,
                              const char* code) {
  return util::Error{"stale controller epoch " + std::to_string(epoch) +
                         " (switch fence at " + std::to_string(fence) + ")",
                     0, 0, code};
}
}  // namespace

util::Result<std::uint64_t> Switch::fence(std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(slot_->mu);
  const std::uint64_t cur = slot_->fence_epoch.load(std::memory_order_relaxed);
  if (epoch < cur) {
    slot_->stale_epoch_rejects.fetch_add(1, std::memory_order_relaxed);
    return stale_epoch_error(epoch, cur, "E141");
  }
  slot_->fence_epoch.store(epoch, std::memory_order_release);
  return epoch;
}

util::Result<std::uint64_t> Switch::reprogram_fenced(
    std::uint64_t epoch, table::Pipeline pipeline) {
  // Lower outside the lock (the expensive part), fence-check inside it so
  // check-and-publish is atomic against a competing newer controller.
  auto prog = make_program(std::move(pipeline));
  const std::lock_guard<std::mutex> lock(slot_->mu);
  const std::uint64_t cur = slot_->fence_epoch.load(std::memory_order_relaxed);
  if (epoch < cur) {
    slot_->stale_epoch_rejects.fetch_add(1, std::memory_order_relaxed);
    return stale_epoch_error(epoch, cur, "E140");
  }
  slot_->fence_epoch.store(epoch, std::memory_order_release);
  prog->version = slot_->published->version + 1;
  const std::uint64_t v = prog->version;
  slot_->published = std::move(prog);
  slot_->version.store(v, std::memory_order_release);
  return v;
}

util::Result<table::ApplyStats> Switch::apply_delta_fenced(
    std::uint64_t epoch, std::span<const table::EntryOp> ops) {
  const std::lock_guard<std::mutex> lock(slot_->mu);
  const std::uint64_t cur = slot_->fence_epoch.load(std::memory_order_relaxed);
  if (epoch < cur) {
    slot_->stale_epoch_rejects.fetch_add(1, std::memory_order_relaxed);
    return stale_epoch_error(epoch, cur, "E140");
  }
  table::Pipeline patched = slot_->published->pipeline;
  auto applied = table::apply_ops(patched, ops);
  if (!applied.ok()) return applied.error();  // running program untouched
  slot_->fence_epoch.store(epoch, std::memory_order_release);
  auto prog = make_program(std::move(patched));
  prog->version = slot_->published->version + 1;
  const std::uint64_t v = prog->version;
  slot_->published = std::move(prog);
  slot_->version.store(v, std::memory_order_release);
  return applied;
}

std::vector<table::StageDigest> Switch::stage_digests() const {
  // Pin the published program instead of touching the data-plane snapshot
  // cache: the reconciliation pass runs from the controller thread while
  // the data plane keeps classifying.
  const auto prog = pin_program();
  return table::stage_digests(prog->pipeline);
}

std::uint64_t Switch::program_digest() const {
  const auto prog = pin_program();
  return table::pipeline_digest(prog->pipeline);
}

const Switch::Program& Switch::current() const {
  const std::uint64_t v = slot_->version.load(std::memory_order_acquire);
  if (!cur_ || cur_->version != v) {
    const std::lock_guard<std::mutex> lock(slot_->mu);
    cur_ = slot_->published;
  }
  return *cur_;
}

const Switch::Program& Switch::current_data_plane() {
  const Program& prog = current();
  // Reconcile the hot-key memo with the program it will serve: entries
  // computed under a different prefix are garbage, entries computed under
  // a bit-identical prefix are still exact (prefix outcomes are a pure
  // function of the key), so a suffix-only update keeps the memo warm.
  //
  // Why keying on prefix_sig alone is sound even for stateful programs:
  // a prefix stage may match on a REGISTER subject (an exact-match state
  // table placed first by kExactFirst ordering), but prefix_key() copies
  // that register's snapshot value into the memo key itself — the same
  // snapshot run_prefix() would read (classify_fast refreshes snap_ on
  // every register-version or timestamp change before probing). So a
  // register update or window rollover never stales a memo entry; it
  // changes the key, and the old entry remains a correct mapping for the
  // old value if it ever recurs. The memoized function is
  //   (key words) -> post-prefix state,
  // fully determined by the prefix tables (pinned by memo_sig_) and the
  // initial state (hashed into prefix_signature()). Regression:
  // ProcessBatch.StatefulPrefixMemoAcrossRegisterRollover in
  // tests/test_batch.cpp drives repeating keys across register rollovers.
  if (prog.prefix_sig != memo_sig_) {
    for (MemoSlot& s : memo_) s.used = false;
    memo_sig_ = prog.prefix_sig;
  }
  if (memo_.empty() && prog.compiled.valid() &&
      prog.compiled.prefix_stages() > 0)
    memo_.resize(kMemoSlots);
  return prog;
}

Switch Switch::make_broadcast(spec::Schema schema,
                              std::vector<std::uint16_t> ports) {
  table::Pipeline pipe;
  table::LeafEntry e;
  e.state = table::kInitialState;
  for (std::uint16_t p : ports) e.actions.add_port(p);
  if (e.actions.ports.size() > 1)
    e.mcast_group = pipe.mcast.intern(e.actions.ports);
  pipe.leaf.add_entry(std::move(e));
  pipe.finalize();
  return Switch(schema, std::move(pipe));
}

const lang::ActionSet& Switch::classify(
    const std::vector<std::uint64_t>& fields, std::uint64_t now_us) {
  static const lang::ActionSet kDrop{};
  const lang::ActionSet* actions =
      classify_fast(current_data_plane(), fields, now_us);
  return actions ? *actions : kDrop;
}

std::vector<Switch::TxCopy> Switch::process(
    std::span<const std::uint8_t> frame, std::uint64_t now_us) {
  ++counters_.rx_frames;
  proto::MarketDataView view;
  offsets_.clear();
  if (!proto::scan_market_data_packet(frame, view, offsets_) ||
      offsets_.empty()) {
    ++counters_.parse_errors;
    return {};
  }
  extractor_.extract_wire(frame.data() + offsets_.front(), fields_scratch_);
  return forward(classify(fields_scratch_, now_us));
}

std::vector<Switch::TxCopy> Switch::process_generic(
    std::span<const std::uint8_t> frame, std::uint64_t now_us) {
  ++counters_.rx_frames;
  auto fields = proto::decode_generic_packet(*schema_, frame);
  if (!fields) {
    ++counters_.parse_errors;
    return {};
  }
  return forward(classify(*fields, now_us));
}

std::vector<Switch::TxCopy> Switch::forward(const lang::ActionSet& actions) {
  // ActionSet::ports is sorted and unique, so its size is the frame's
  // distinct egress port count.
  account_frame(actions.ports.size());
  if (actions.ports.empty()) return {};
  std::vector<TxCopy> out;
  out.reserve(actions.ports.size());
  for (std::uint16_t p : actions.ports) {
    out.push_back({p});
    ++counters_.tx_copies;
  }
  return out;
}

void Switch::refresh_snapshot(std::uint64_t now_us) {
  if (snap_valid_ && snap_now_us_ == now_us &&
      snap_version_ == registers_.version())
    return;
  registers_.snapshot_into(snap_, now_us);
  snap_valid_ = true;
  snap_now_us_ = now_us;
  // Read the version after the snapshot: reading can roll windows over,
  // and the cache must key on the post-roll state.
  snap_version_ = registers_.version();
}

const lang::ActionSet* Switch::classify_fast(
    const Program& prog, const std::vector<std::uint64_t>& fields,
    std::uint64_t now_us) {
  const table::CompiledPipeline& compiled = prog.compiled;
  refresh_snapshot(now_us);
  const lang::ActionSet* actions = nullptr;
  if (compiled.valid()) {
    std::uint32_t leaf;
    const std::size_t np = compiled.prefix_stages();
    if (np > 0 && !memo_.empty()) {
      std::array<std::uint64_t, table::CompiledPipeline::kMaxPrefix> key{};
      compiled.prefix_key(fields, snap_, key.data());
      std::uint64_t h = 0;
      for (std::size_t i = 0; i < np; ++i) h = util::mix64(h ^ key[i]);
      MemoSlot& slot = memo_[h & (kMemoSlots - 1)];
      ++batch_stats_.memo_probes;
      std::uint32_t state;
      if (slot.used && slot.key == key) {
        state = slot.state;
        ++batch_stats_.memo_hits;
      } else {
        state = compiled.run_prefix(fields, snap_);
        slot.key = key;
        slot.state = state;
        slot.used = true;
      }
      leaf = compiled.finish(state, fields, snap_);
    } else {
      leaf = compiled.traverse(fields, snap_);
    }
    actions = compiled.actions(leaf);
  } else {
    // The pipeline could not be flattened (degenerate shape); fall back to
    // the reference evaluator, still with the cached snapshot.
    env_scratch_.fields = fields;
    env_scratch_.states = snap_;
    const table::LeafEntry* l = prog.pipeline.evaluate(env_scratch_);
    actions = l ? &l->actions : nullptr;
  }
  if (actions) {
    for (std::uint32_t var : actions->state_updates) {
      registers_.apply_update(var, fields, now_us);
      ++counters_.state_updates;
    }
  }
  return actions;
}

std::vector<Switch::TxPacket> Switch::process_batch(
    std::span<const Frame> frames) {
  const Program& prog = current_data_plane();
  if (memo_.empty() && prog.compiled.valid() &&
      prog.compiled.prefix_stages() > 0)
    memo_.resize(kMemoSlots);

  // Pass 1: zero-copy scan. Collects per-frame header views and one shared
  // add-order offset array; malformed frames are settled here so the later
  // passes touch only classifiable traffic.
  views_.resize(frames.size());
  offsets_.clear();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(frames.size());
  std::vector<unsigned char> parsed(frames.size(), 0);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ++counters_.rx_frames;
    const auto begin = static_cast<std::uint32_t>(offsets_.size());
    const bool ok =
        proto::scan_market_data_packet(frames[f].data, views_[f], offsets_);
    const auto end = static_cast<std::uint32_t>(offsets_.size());
    if (!ok || begin == end) {
      // Parse error, or no add-order to classify on — same outcome as
      // decode_market_data_packet failing / add_orders.empty().
      ++counters_.parse_errors;
      offsets_.resize(begin);  // drop offsets from a partially-scanned frame
      ranges[f] = {begin, begin};
    } else {
      parsed[f] = 1;
      ranges[f] = {begin, end};
    }
  }

  // Pass 2: classify every message in arrival order (state updates are
  // order-sensitive). Fields come straight off the wire.
  msg_actions_.resize(offsets_.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (!parsed[f]) continue;
    for (std::uint32_t i = ranges[f].first; i < ranges[f].second; ++i) {
      extractor_.extract_wire(frames[f].data.data() + offsets_[i],
                              fields_scratch_);
      msg_actions_[i] = classify_fast(prog, fields_scratch_, frames[f].now_us);
    }
  }

  // Pass 3: re-frame per egress port. Only matched messages are decoded;
  // buckets_ stays sorted by port so the output order matches the
  // reference path's std::map iteration.
  std::vector<TxPacket> out;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (!parsed[f]) continue;
    for (auto& [port, v] : buckets_) v.clear();
    for (std::uint32_t i = ranges[f].first; i < ranges[f].second; ++i) {
      const lang::ActionSet* a = msg_actions_[i];
      if (!a) continue;
      for (std::uint16_t p : a->ports) {
        auto it = std::lower_bound(
            buckets_.begin(), buckets_.end(), p,
            [](const auto& b, std::uint16_t port) { return b.first < port; });
        if (it == buckets_.end() || it->first != p)
          it = buckets_.emplace(it, p, std::vector<std::uint32_t>{});
        it->second.push_back(i);
      }
    }
    std::size_t nonempty = 0;
    for (const auto& [port, v] : buckets_) nonempty += !v.empty();
    account_frame(nonempty);
    if (nonempty == 0) continue;
    for (const auto& [port, v] : buckets_) {
      if (v.empty()) continue;
      msg_offsets_scratch_.resize(v.size());
      for (std::size_t k = 0; k < v.size(); ++k)
        msg_offsets_scratch_[k] = offsets_[v[k]];
      TxPacket tx;
      tx.port = port;
      proto::build_market_frame_raw(views_[f], frames[f].data,
                                    msg_offsets_scratch_, tx.frame);
      out.push_back(std::move(tx));
      ++counters_.tx_copies;
    }
  }
  return out;
}

bool Switch::fits(const table::ResourceBudget& budget) const {
  return budget.fits(current().pipeline.resources());
}

}  // namespace camus::switchsim
