// The programmable-ASIC substitute: a software model of a reconfigurable
// match-action pipeline. Executes the exact table entries the Camus
// compiler emits — parser, per-stage lookups, state registers, multicast
// replication — and audits resource usage against a Tofino-like budget.
//
// Fidelity notes (see DESIGN.md §1): the model is semantically exact with
// respect to the compiled pipeline. It does not model per-packet ASIC
// timing; the network simulator charges a configurable constant pipeline
// latency instead, which is how a real ASIC behaves at line rate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "proto/packet.hpp"
#include "spec/schema.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/registers.hpp"
#include "table/compiled.hpp"
#include "table/delta.hpp"
#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::switchsim {

// Per-switch counters. Frame-granularity counters count ingress frames,
// uniformly across process(), process_generic() and process_batch(): every
// received frame increments rx_frames and then exactly one of
// parse_errors, dropped, or matched. classify() takes no frame and only
// counts state_updates. tx_copies and state_updates are event counters,
// not frame counters.
//
// multicast_frames semantics (one definition, Switch::account_frame): a
// frame is multicast when it is replicated to MORE THAN ONE DISTINCT
// egress port — for process()/process_generic(), which forward the whole
// frame on one classification, that is the matched ActionSet's (sorted,
// unique) port list; for process_batch(), which classifies every message,
// it is the union of ports over the frame's matched messages. It is
// counted per ingress frame, never per message and never per egress copy,
// so a frame whose every message is unicast to the same port is NOT
// multicast, while a frame whose messages are individually unicast to two
// different ports IS (pinned in tests/test_counters.cpp).
struct SwitchCounters {
  // Ingress frames offered to the switch (parseable or not).
  std::uint64_t rx_frames = 0;
  // Frames the parser rejected (malformed, or no classifiable message).
  std::uint64_t parse_errors = 0;
  // Parsed frames that matched no subscription: nothing was forwarded.
  // For process_batch() this means every message in the frame missed.
  std::uint64_t dropped = 0;
  // Parsed frames forwarded to >= 1 egress port. For process_batch(), a
  // frame counts once if any of its messages matched.
  std::uint64_t matched = 0;
  // Total egress copies emitted. One per (frame, port) pair; for
  // process_batch() one per re-framed per-port packet.
  std::uint64_t tx_copies = 0;
  // Ingress frames replicated to > 1 distinct egress port. Always
  // <= matched; counted per frame, never per message.
  std::uint64_t multicast_frames = 0;
  // Register write-backs performed by matched messages' state updates.
  std::uint64_t state_updates = 0;
};

// Hot-key memo telemetry of the compiled engine, advanced by every entry
// point. Kept out of SwitchCounters, which the tests' reference
// interpreter reproduces exactly; the memo has no reference counterpart.
struct BatchStats {
  std::uint64_t memo_probes = 0;  // hot-key memo lookups attempted
  std::uint64_t memo_hits = 0;    // lookups answered from the memo
};

class Switch {
 public:
  // Takes ownership of the pipeline and a copy of the schema: the switch
  // is self-contained and safe to move or outlive its controller. The
  // pipeline is finalized here (idempotent) so the per-packet lookup path
  // never hits the lazy index build.
  Switch(spec::Schema schema, table::Pipeline pipeline);

  // Builds a broadcast "switch" that forwards every parseable frame to the
  // given ports — the paper's baseline configuration, where filtering
  // happens at the end hosts.
  static Switch make_broadcast(spec::Schema schema,
                               std::vector<std::uint16_t> ports);

  struct TxCopy {
    std::uint16_t port = 0;
  };

  // Entry points. All four classify through one engine (classify_fast():
  // the flattened CompiledPipeline behind a hot-key memo, with
  // Pipeline::evaluate only for pipelines that cannot be flattened);
  // they differ in what they take in and what they emit.

  // Processes one ingress frame at time now_us. Returns the egress ports
  // the frame is replicated to (the frame bytes are unmodified). A packet
  // carrying several ITCH messages is classified on its first add-order,
  // matching the prototype's parser, which extracts one application header.
  // Parses with the same zero-copy scan and wire extraction as
  // process_batch().
  std::vector<TxCopy> process(std::span<const std::uint8_t> frame,
                              std::uint64_t now_us);

  // Classifies pre-extracted field values and applies the matched rule's
  // state updates: the Env-level entry point (fabric delivery sets, the
  // nemesis and fuzz oracles, benchmarks that skip wire encoding).
  const lang::ActionSet& classify(const std::vector<std::uint64_t>& fields,
                                  std::uint64_t now_us);

  struct TxPacket {
    std::uint16_t port = 0;
    std::vector<std::uint8_t> frame;
  };

  // Custom-format path: parses the frame as a generic bit-packed record of
  // the schema's fields (proto::encode_generic_packet framing) and
  // classifies it. This is how non-ITCH applications (identifier routing,
  // load balancing, key-value request steering) run real frames through
  // the switch.
  std::vector<TxCopy> process_generic(std::span<const std::uint8_t> frame,
                                      std::uint64_t now_us);

  // One ingress frame in a batch. `data` must stay alive for the duration
  // of the process_batch() call.
  struct Frame {
    std::span<const std::uint8_t> data;
    std::uint64_t now_us = 0;
  };

  // Message-level forwarding, the data plane proper: classifies every ITCH
  // message of every frame independently, in arrival order, and re-frames
  // per egress port, so each subscriber receives a packet containing
  // exactly its matching messages (with the original MoldUDP session and
  // sequence number). Output is frame by frame in batch order, ports
  // ascending within a frame. State updates fire per matching message;
  // frames whose messages all miss produce no output. Frames are scanned
  // zero-copy (no payload vector, no per-message structs for dropped
  // traffic), register snapshots are cached across messages, and only
  // matched wire blocks are copied into the egress frames. Callers that
  // work frame by frame pass one-frame batches.
  std::vector<TxPacket> process_batch(std::span<const Frame> frames);

  const SwitchCounters& counters() const noexcept { return counters_; }
  const BatchStats& batch_stats() const noexcept { return batch_stats_; }
  // References into the current program snapshot: valid until the calling
  // thread's next process*/classify/reprogram/apply_delta call observes a
  // newer program (the snapshot itself is kept alive until then).
  const table::CompiledPipeline& compiled() const {
    return current().compiled;
  }
  const table::Pipeline& pipeline() const { return current().pipeline; }
  StateRegisters& registers() noexcept { return registers_; }

  // Installs a recompiled pipeline (e.g. from the incremental compiler)
  // without disturbing registers or counters — the runtime analogue of a
  // control-plane table update. The replacement program (finalized
  // pipeline + rebuilt flattened fast path) is built off to the side and
  // published with an atomic version bump: a concurrently running
  // process_batch() keeps reading its complete old snapshot and picks the
  // new one up at its next call (RCU-style; TSAN-exercised in
  // tests/test_concurrent_lookup.cpp). The hot-key memo survives the swap
  // when the new program's prefix stages are bit-identical (see
  // CompiledPipeline::prefix_signature); otherwise it is invalidated on
  // the data-plane thread, never from the updater.
  void reprogram(table::Pipeline pipeline);

  // Patches the running program in place with a control-plane entry delta
  // — how a real ASIC takes incremental table updates from its driver.
  // The delta is applied to a scratch copy of the current pipeline
  // (strict U0xx diagnostics on any desync; the running program is
  // untouched on error), lowered, and published exactly like
  // reprogram(). Registers, counters, and the memo (prefix permitting)
  // are preserved.
  util::Result<table::ApplyStats> apply_delta(
      std::span<const table::EntryOp> ops);

  // Monotone program version, bumped by every successful
  // reprogram()/apply_delta(). Readers can poll it cheaply.
  std::uint64_t program_version() const noexcept {
    return slot_->version.load(std::memory_order_acquire);
  }

  // --- epoch fencing (crash-safe control plane) ---------------------------
  //
  // A controller stamps every program write with its epoch — a monotonic
  // counter it persists in its journal and bumps on every restart. The
  // switch stores the highest epoch it has accepted and rejects writes
  // from any lower epoch, so a crashed controller's delayed or retried
  // messages can never clobber its successor's installs (the classic
  // fencing-token discipline). Unfenced reprogram()/apply_delta() remain
  // for tests and single-controller tools; production paths (the
  // installer) always go through the fenced variants.

  // Raises the fence to `epoch` without writing a program — how a freshly
  // recovered controller locks out its predecessor before reconciling.
  // Idempotent for equal epochs. E141 if `epoch` is below the current
  // fence (a stale controller trying to attach).
  util::Result<std::uint64_t> fence(std::uint64_t epoch);

  // Fenced variants of reprogram()/apply_delta(): the write is accepted
  // only if `epoch` >= the switch's fence (and the fence is raised to
  // `epoch`). A stale epoch is rejected with E140, counted in
  // stale_epoch_rejects(), and leaves the running program untouched.
  // reprogram_fenced returns the new program version on success.
  util::Result<std::uint64_t> reprogram_fenced(std::uint64_t epoch,
                                               table::Pipeline pipeline);
  util::Result<table::ApplyStats> apply_delta_fenced(
      std::uint64_t epoch, std::span<const table::EntryOp> ops);

  // The highest controller epoch this switch has accepted (0 = never
  // fenced) and the number of writes rejected as stale.
  std::uint64_t fence_epoch() const noexcept {
    return slot_->fence_epoch.load(std::memory_order_acquire);
  }
  std::uint64_t stale_epoch_rejects() const noexcept {
    return slot_->stale_epoch_rejects.load(std::memory_order_acquire);
  }

  // --- warm-boot readback -------------------------------------------------
  //
  // What a rebooted switch reports during the reconciliation handshake:
  // order-independent per-stage digests of the program it is running
  // (table::stage_digests semantics — multicast ids and entry order
  // excluded). The controller diffs these against its intended program's
  // digests to find diverged stages without reading any entries. Both are
  // safe from any thread (they pin the published program; the data-plane
  // snapshot cache is not touched).
  std::vector<table::StageDigest> stage_digests() const;
  std::uint64_t program_digest() const;

  // Thread-safe copy of the running program's pipeline — for controller
  // resync after a switch reboot. Unlike pipeline(), never touches the
  // data-plane snapshot cache, so it can run while the data plane is
  // processing.
  table::Pipeline pipeline_snapshot() const {
    return pin_program()->pipeline;
  }

  // Resource audit: whether the compiled pipeline fits the budget.
  bool fits(const table::ResourceBudget& budget = {}) const;
  table::ResourceUsage resources() const {
    return current().pipeline.resources();
  }

 private:
  // One immutable generation of the switch's program: the IR pipeline
  // (fallback evaluator + delta base) and its flattened form. Readers
  // hold a shared_ptr snapshot; updaters publish a wholly new Program.
  struct Program {
    std::uint64_t version = 0;
    table::Pipeline pipeline;
    table::CompiledPipeline compiled;
    // Cached compiled.prefix_signature(): the per-message memo
    // reconciliation check must be O(1), not a rehash of the prefix.
    std::uint64_t prefix_sig = 0;
  };
  // Shared forwarding tail of process()/process_generic(): bumps
  // dropped/matched/multicast_frames/tx_copies and emits one TxCopy per
  // egress port.
  std::vector<TxCopy> forward(const lang::ActionSet& actions);

  // THE frame-outcome accounting, shared by every frame entry point:
  // `distinct_ports` is the number of distinct egress ports the frame is
  // replicated to (0 = dropped). Bumps exactly one of dropped/matched
  // and multicast_frames per the counters comment block above. tx_copies
  // is charged separately, one per emitted copy.
  void account_frame(std::size_t distinct_ports) {
    if (distinct_ports == 0) {
      ++counters_.dropped;
      return;
    }
    ++counters_.matched;
    if (distinct_ports > 1) ++counters_.multicast_frames;
  }

  // Pins the currently published program without touching the
  // data-plane-confined cache (cur_) — safe from any thread; used by the
  // control-plane readbacks.
  std::shared_ptr<const Program> pin_program() const {
    const std::lock_guard<std::mutex> lock(slot_->mu);
    return slot_->published;
  }

  // The engine's classification step, shared by every entry point:
  // returns the matched ActionSet (nullptr on drop) and applies its state
  // updates. Allocation-free — cached register snapshot, flattened
  // traversal with hot-key memo, Pipeline::evaluate fallback when the
  // pipeline could not be flattened. Takes the program explicitly: a
  // batch pins ONE snapshot for all its messages, because the returned
  // pointer aims into that program's interned actions — re-reading
  // current_data_plane() per message could adopt a newer program
  // mid-batch and free the old one while earlier messages' ActionSet
  // pointers are still queued.
  const lang::ActionSet* classify_fast(const Program& prog,
                                       const std::vector<std::uint64_t>& fields,
                                       std::uint64_t now_us);
  // Refreshes snap_ if the register file or timestamp moved.
  void refresh_snapshot(std::uint64_t now_us);

  // Direct-mapped hot-key memo: (prefix key values) -> state after the
  // leading exact stages. Purely a function of the key, so a stale entry
  // cannot exist — only reprogram() must clear it. current_data_plane()
  // sizes it for the first program with a memo prefix.
  struct MemoSlot {
    std::array<std::uint64_t, table::CompiledPipeline::kMaxPrefix> key{};
    std::uint32_t state = 0;
    bool used = false;
  };
  static constexpr std::size_t kMemoSlots = 4096;  // power of two

  // Published-program slot, shared between the data-plane reader and
  // control-plane updaters. Behind a unique_ptr so the Switch stays
  // movable (mutex/atomic are not) and the slot address is stable.
  struct ProgramSlot {
    std::mutex mu;
    std::shared_ptr<const Program> published;  // guarded by mu
    std::atomic<std::uint64_t> version{0};     // == published->version
    // Fencing state (atomics so accessors need no lock; writes happen
    // under mu so check-and-raise is atomic w.r.t. program publication).
    std::atomic<std::uint64_t> fence_epoch{0};
    std::atomic<std::uint64_t> stale_epoch_rejects{0};
  };

  // Builds a Program (finalize + flatten) and swaps it in as the newest
  // generation.
  static std::shared_ptr<Program> make_program(table::Pipeline pipeline);
  void publish(table::Pipeline pipeline);

  // Returns the calling thread's current program snapshot, refreshing the
  // thread-confined cache from the slot when the version moved. The const
  // overload is for accessors; data-plane entry points use the non-const
  // overload, which also reconciles the hot-key memo with the (possibly
  // new) program.
  const Program& current() const;
  const Program& current_data_plane();

  // shared_ptr gives the schema a stable address across Switch moves (the
  // extractor and register file hold references into it).
  std::shared_ptr<const spec::Schema> schema_;
  std::unique_ptr<ProgramSlot> slot_;
  // Data-plane-confined cache of the published program. Mutable so const
  // accessors can refresh it; never touched concurrently (the data plane
  // is single-threaded; updaters only touch slot_).
  mutable std::shared_ptr<const Program> cur_;
  // Prefix signature the memo contents were computed under.
  std::uint64_t memo_sig_ = 0;
  ItchFieldExtractor extractor_;
  StateRegisters registers_;
  SwitchCounters counters_;
  BatchStats batch_stats_;

  std::vector<MemoSlot> memo_;

  // Scratch state reused across data-plane calls (capacity persists).
  bool snap_valid_ = false;
  std::uint64_t snap_version_ = 0;
  std::uint64_t snap_now_us_ = 0;
  std::vector<std::uint64_t> snap_;
  std::vector<std::uint64_t> fields_scratch_;
  std::vector<std::uint32_t> offsets_;  // add-order offsets, all frames
  std::vector<const lang::ActionSet*> msg_actions_;  // parallel to offsets_
  std::vector<proto::MarketDataView> views_;
  std::vector<std::pair<std::uint16_t, std::vector<std::uint32_t>>> buckets_;
  std::vector<std::uint32_t> msg_offsets_scratch_;
  lang::Env env_scratch_;  // fallback path only
};

}  // namespace camus::switchsim
