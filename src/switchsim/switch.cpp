#include "switchsim/switch.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "proto/generic.hpp"
#include "proto/packet.hpp"
#include "util/flat_map.hpp"

namespace camus::switchsim {

Switch::Switch(spec::Schema schema, table::Pipeline pipeline)
    : schema_(std::make_shared<const spec::Schema>(std::move(schema))),
      slot_(std::make_unique<ProgramSlot>()),
      extractor_(*schema_),
      registers_(*schema_) {
  reprogram(std::move(pipeline));
}

// Lowers a pipeline into one immutable program generation. Runs outside
// the slot lock: flattening is the expensive part of an update.
std::shared_ptr<const Switch::Program> Switch::make_program(
    table::Pipeline pipeline) {
  auto prog = std::make_shared<Program>();
  prog->pipeline = std::move(pipeline);
  prog->compiled = table::CompiledPipeline(prog->pipeline);
  prog->prefix_sig = prog->compiled.prefix_signature();
  return prog;
}

Switch::Staged Switch::stage(table::Pipeline pipeline) const {
  Staged s;
  s.program_ = make_program(std::move(pipeline));
  return s;
}

util::Result<Switch::Staged> Switch::stage(
    std::span<const table::EntryOp> ops) const {
  Staged s;
  s.base_ = pin_program();
  table::Pipeline next = s.base_->pipeline;
  auto applied = table::apply_ops(next, ops);
  if (!applied.ok()) return applied.error();  // running program untouched
  s.program_ = make_program(std::move(next));
  s.applied_ = applied.value();
  return s;
}

namespace {
util::Error stale_epoch_error(std::uint64_t epoch, std::uint64_t fence,
                              const char* code) {
  return util::Error{"stale controller epoch " + std::to_string(epoch) +
                         " (switch fence at " + std::to_string(fence) + ")",
                     0, 0, code};
}
}  // namespace

util::Result<Switch::Staged> Switch::commit(const Staged& staged,
                                            std::uint64_t epoch) {
  // Check-and-publish is atomic under the slot lock against a competing
  // writer; readers take the lock only on a version change, so the data
  // plane stays unblocked on its current snapshot.
  const std::lock_guard<std::mutex> lock(slot_->mu);
  const std::uint64_t fence =
      slot_->fence_epoch.load(std::memory_order_relaxed);
  if (epoch > 0 && epoch < fence) {
    slot_->stale_epoch_rejects.fetch_add(1, std::memory_order_relaxed);
    return stale_epoch_error(epoch, fence, "E140");
  }
  if (!staged.program_)
    return util::Error{"commit of a program that was never staged", 0, 0,
                       "E144"};
  if (staged.base_ && staged.base_ != slot_->published)
    return util::Error{"delta staged on a program the switch no longer runs",
                       0, 0, "E144"};
  if (epoch > 0) slot_->fence_epoch.store(epoch, std::memory_order_release);
  Staged replaced;
  replaced.program_ = std::exchange(slot_->published, staged.program_);
  replaced.base_ = staged.program_;
  // Release store after the locked publish: a reader that sees the new
  // version is guaranteed to find (at least) that program in the slot.
  slot_->version.fetch_add(1, std::memory_order_release);
  return replaced;
}

void Switch::reprogram(table::Pipeline pipeline) {
  // A full image at epoch 0 passes every check of commit().
  (void)commit(stage(std::move(pipeline)));
}

util::Result<table::ApplyStats> Switch::apply_delta(
    std::span<const table::EntryOp> ops) {
  auto staged = stage(ops);
  if (!staged.ok()) return staged.error();
  auto committed = commit(staged.value());
  if (!committed.ok()) return committed.error();
  return staged.value().applied();
}

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
  if (!cur_ || cur_version_ != v) {
    const std::lock_guard<std::mutex> lock(slot_->mu);
    cur_ = slot_->published;
    cur_version_ = slot_->version.load(std::memory_order_relaxed);
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
  if (memo_.empty() && prog.compiled.prefix_stages() > 0)
    memo_.resize(kMemoSlots);
  return prog;
}

Switch Switch::make_broadcast(spec::Schema schema,
                              std::vector<std::uint16_t> ports) {
  table::Pipeline pipe;
  lang::ActionSet actions;
  for (std::uint16_t p : ports) actions.add_port(p);
  table::LeafEntry e;
  e.state = table::kInitialState;
  e.actions = std::make_shared<const lang::ActionSet>(std::move(actions));
  if (e.actions->ports.size() > 1) e.mcast_group = pipe.mcast.intern(e.actions);
  pipe.leaf.add_entry(std::move(e));
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
  const lang::ActionSet* actions = compiled.actions(leaf);
  if (actions) {
    for (std::uint32_t var : actions->state_updates) {
      registers_.apply_update(var, fields, now_us);
      ++counters_.state_updates;
    }
  }
  return actions;
}

namespace {

// Restores min-heap order below heap[k], the slot whose key last changed,
// in the n-key binary heap at heap[0, n).
void sift_down(std::uint64_t* heap, std::size_t n, std::size_t k) {
  const std::uint64_t key = heap[k];
  for (std::size_t c; (c = 2 * k + 1) < n; k = c) {
    if (c + 1 < n && heap[c + 1] < heap[c]) ++c;
    if (key < heap[c]) break;
    heap[k] = heap[c];
  }
  heap[k] = key;
}

}  // namespace

std::vector<Switch::TxPacket> Switch::process_batch(
    std::span<const Frame> frames) {
  const Program& prog = current_data_plane();

  // Pass 1: zero-copy scan. Collects per-frame header views and one shared
  // add-order offset array; malformed frames are settled here (left with
  // an empty range) so the later passes touch only classifiable traffic.
  views_.resize(frames.size());
  ranges_.resize(frames.size());
  offsets_.clear();
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
      ranges_[f] = {begin, begin};
    } else {
      ranges_[f] = {begin, end};
    }
  }

  // Pass 2: classify every message in arrival order (state updates are
  // order-sensitive). Fields come straight off the wire. Counts the
  // (message, port) pairs, which bound the egress.
  msg_actions_.resize(offsets_.size());
  std::size_t all_pairs = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (std::uint32_t i = ranges_[f].first; i < ranges_[f].second; ++i) {
      extractor_.extract_wire(frames[f].data.data() + offsets_[i],
                              fields_scratch_);
      const lang::ActionSet* a =
          classify_fast(prog, fields_scratch_, frames[f].now_us);
      msg_actions_[i] = a;
      if (a) all_pairs += a->ports.size();
    }
  }

  // Pass 3: re-frame per egress port. Each frame's matched messages are
  // grouped by a k-way merge of their ActionSet::ports lists (sorted,
  // unique): a min-heap holds one cursor per matched message, keyed
  // port << 32 | arrival index, so pops come out ports ascending, arrival
  // order within a port — the reference path's order — in
  // O(pairs * log K) and with no sort. A port's packet is a function of the
  // frame and its list of message offsets, so each distinct list is built
  // once, as an ASIC's replication engine sends one buffered packet to
  // every member port: a hash folded over the offsets picks a candidate in
  // share_, the lists are compared, and a port whose list equals one built
  // for this frame views those bytes. egress_ is sized first, to room for
  // every pair as a packet of its own, so no view moves.
  const std::size_t most = all_pairs * proto::market_frame_raw_size(1);
  if (egress_.size() < most) egress_.resize(most);
  std::vector<TxPacket> out;
  out.reserve(all_pairs);
  std::size_t used = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto [begin, end] = ranges_[f];
    if (begin == end) continue;  // did not parse
    heap_.clear();
    std::size_t pairs = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      const lang::ActionSet* a = msg_actions_[i];
      if (!a || a->ports.empty()) continue;
      heap_.push_back(std::uint64_t{a->ports.front()} << 32 | i);
      pairs += a->ports.size();
    }
    cursor_.assign(end - begin, 0);
    // A frame builds at most one packet per distinct port, so share_ stays
    // at most half full; the slot is the hash's top bits.
    const std::size_t slots = std::bit_ceil(
        std::max<std::size_t>(2, 2 * std::min<std::size_t>(pairs, 1u << 16)));
    if (share_.size() < slots) share_.resize(slots, 0);
    const std::size_t mask = slots - 1;
    const int shift = 64 - std::countr_zero(slots);
    if (lists_.size() < pairs) lists_.resize(pairs);
    std::uint32_t* lists = lists_.data();
    std::uint32_t top = 0;  // lists[0, top) is in use
    built_.clear();

    std::uint64_t* heap = heap_.data();
    std::size_t n = heap_.size();
    for (std::size_t k = n / 2; k-- > 0;) sift_down(heap, n, k);
    const std::size_t first_out = out.size();
    while (n > 0) {
      const auto port = static_cast<std::uint16_t>(heap[0] >> 32);
      const std::uint32_t list = top;
      std::uint64_t hash = 0;
      do {  // pop the top, then replace it with its message's next port
        const auto i = static_cast<std::uint32_t>(heap[0]);
        lists[top++] = offsets_[i];
        hash = (hash ^ offsets_[i]) * 0x9e3779b97f4a7c15ULL;
        const std::vector<std::uint16_t>& ports = msg_actions_[i]->ports;
        std::uint32_t& at = cursor_[i - begin];
        if (++at < ports.size())
          heap[0] = std::uint64_t{ports[at]} << 32 | i;
        else
          heap[0] = heap[--n];
        sift_down(heap, n, 0);
      } while (n > 0 && heap[0] >> 32 == port);
      const std::uint32_t count = top - list;
      const std::size_t size = proto::market_frame_raw_size(count);

      std::size_t slot = hash >> shift;
      const Built* same = nullptr;
      for (; share_[slot] != 0; slot = (slot + 1) & mask) {
        const Built& b = built_[share_[slot] - 1];
        if (b.hash != hash || b.count != count) continue;
        std::uint32_t k = 0;
        while (k < count && lists[b.list + k] == lists[list + k]) ++k;
        if (k == count) {
          same = &b;
          break;
        }
      }
      if (same) {
        top = list;
        out.push_back({port, {egress_.data() + same->at, size}});
        continue;
      }
      proto::build_market_frame_raw(views_[f], frames[f].data,
                                    {lists + list, count},
                                    {egress_.data() + used, size});
      built_.push_back({hash, used, list, count,
                        static_cast<std::uint32_t>(slot)});
      share_[slot] = static_cast<std::uint32_t>(built_.size());
      out.push_back({port, {egress_.data() + used, size}});
      used += size;
    }
    for (const Built& b : built_) share_[b.slot] = 0;
    batch_stats_.packets_built += built_.size();
    const std::size_t ports = out.size() - first_out;
    account_frame(ports);
    counters_.tx_copies += ports;
  }
  return out;
}

bool Switch::fits(const table::ResourceBudget& budget) const {
  return budget.fits(current().pipeline.resources());
}

}  // namespace camus::switchsim
