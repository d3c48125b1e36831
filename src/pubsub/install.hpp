// Two-phase pipeline install with rollback: the controller -> switch
// programming path hardened against control-channel faults.
//
//   stage   — the serialized pipeline (or an incremental commit's entry
//             ops) is shipped in digest-protected chunks over a channel
//             that may drop or corrupt (modelled by a fault::Plan);
//             damaged chunks are retransmitted.
//   verify  — the staged image must match the full-image digest and parse
//             (table::deserialize_pipeline validates structure); then the
//             switch stages it (Switch::stage): it lowers the image, or
//             applies the ops to a copy of the program it runs and lowers
//             that. Ops that do not apply abort here (U0xx).
//   commit  — one Switch::commit() publishes the staged program, fenced by
//             the controller epoch; staged ops land only on the program
//             they were applied to (E144).
//
// The installer holds no pipeline of its own: the switch decides what
// runs, and active() reads it. Any fault before commit leaves the switch
// on the last-good program — a mid-update link failure degrades to "the
// update didn't happen", never to a half-programmed switch. Readers only
// ever observe complete programs through active() (exercised under TSAN in
// tests/test_concurrent_lookup.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "table/pipeline.hpp"
#include "table/serialize.hpp"
#include "util/journal.hpp"  // util::crc32
#include "util/result.hpp"

namespace camus::pubsub {

// --- hardened chunk channel ----------------------------------------------
//
// Every chunk crosses the control channel framed with an explicit header:
// magic, the controller epoch, a per-transfer id, the chunk's index and
// the transfer's total, the payload length, and a CRC-32 over header and
// payload. The receiver assembles chunks into index-addressed slots, so a
// reordered chunk lands in the right place and a duplicated chunk is
// detected against its slot instead of silently corrupting a sequential
// append (the historical failure mode this replaces). Rejections carry
// stable C0xx codes:
//   C001  malformed frame (short, bad magic, length disagreement)
//   C002  CRC mismatch (corrupted on the wire)
//   C003  chunk from another transfer or a different controller epoch
//         (a stray from an abandoned staging attempt)
//   C004  duplicate of an already-accepted chunk (idempotent: the sender
//         treats this as an ACK)
//   C005  chunk index out of range, or total_chunks disagreement

inline constexpr std::uint16_t kChunkMagic = 0xC405;
inline constexpr std::size_t kChunkHeaderBytes =
    2 + 8 + 8 + 4 + 4 + 4 + 4;  // magic..crc

struct ChunkHeader {
  std::uint64_t epoch = 0;
  std::uint64_t xfer_id = 0;
  std::uint32_t chunk_idx = 0;
  std::uint32_t total_chunks = 0;
  std::uint32_t payload_len = 0;
};

// Frames one chunk for the wire (header + CRC + payload).
std::vector<std::uint8_t> encode_chunk(const ChunkHeader& h,
                                       std::span<const std::uint8_t> payload);

// The switch-side assembler for one transfer. Not thread-safe (one
// control channel, one transfer at a time).
class ChunkReceiver {
 public:
  ChunkReceiver(std::uint64_t epoch, std::uint64_t xfer_id,
                std::uint32_t total_chunks, std::size_t chunk_bytes,
                std::size_t image_bytes);

  // Validates and slots one wire frame; returns the accepted chunk index
  // or a C0xx diagnostic (see above).
  util::Result<std::uint32_t> receive(std::span<const std::uint8_t> wire);

  bool complete() const noexcept { return filled_ == total_; }
  std::size_t filled() const noexcept { return filled_; }
  bool has(std::uint32_t idx) const noexcept {
    return idx < have_.size() && have_[idx];
  }

  // Concatenated payloads in index order; only meaningful when complete().
  std::vector<std::uint8_t> assemble() const;

 private:
  std::uint64_t epoch_;
  std::uint64_t xfer_id_;
  std::uint32_t total_;
  std::size_t chunk_bytes_;
  std::size_t image_bytes_;
  std::vector<std::vector<std::uint8_t>> slots_;
  std::vector<bool> have_;
  std::uint32_t filled_ = 0;
};

// Outcome of one install() or apply_delta() call.
struct InstallReport {
  bool committed = false;
  std::size_t attempts = 0;       // full staging attempts
  std::size_t chunks = 0;         // chunks in the image
  std::size_t chunk_sends = 0;    // including retransmits
  std::size_t chunk_retransmits = 0;
  // Channel-hardening telemetry: frames the receiver rejected, by cause,
  // plus frames the channel delivered late (reorder realized).
  std::size_t chunk_crc_rejects = 0;   // C002
  std::size_t chunk_dup_rejects = 0;   // C004 (counted, but acts as ACK)
  std::size_t chunk_malformed = 0;     // C001
  std::size_t chunk_stray_rejects = 0; // C003/C005
  std::size_t chunk_reordered = 0;     // frames delivered out of order
  std::uint64_t epoch = 0;             // controller epoch stamped on writes
  bool fenced_out = false;  // switch rejected the commit as stale (E140)
  std::string error;              // empty when committed
  // apply_delta() only: ops shipped and their kind breakdown as applied.
  std::size_t ops = 0;
  table::ApplyStats applied;
};

// A staged-but-uncommitted install: a full image or an op list crossed
// the channel and passed verification, and the switch staged the program
// it makes, but nothing runs it yet. Dropping a StagedInstall aborts it
// for free.
struct StagedInstall {
  bool staged = false;    // verification passed; program is set
  InstallReport report;   // stage-phase telemetry (committed still false)
  // The program the commit publishes, lowered by the switch: the staged
  // image, or the staged ops applied to the program the switch ran then.
  switchsim::Switch::Staged program;
};

class TwoPhaseInstaller {
 public:
  explicit TwoPhaseInstaller(switchsim::Switch& sw) : sw_(sw) {}

  // Stages, verifies, and commits `pipeline`. `faults` models the control
  // channel (nullptr = reliable); each chunk send consumes one fault-plan
  // decision, so a campaign is exactly reproducible from the plan seed.
  // A chunk is retried up to `chunk_retries` times, a full attempt up to
  // `max_attempts` times; exhaustion aborts with the switch untouched.
  // Equivalent to stage() followed by commit().
  InstallReport install(const table::Pipeline& pipeline,
                        const fault::Plan* faults = nullptr,
                        std::size_t chunk_bytes = 512, int max_attempts = 3,
                        int chunk_retries = 8);

  // Transactional delta install: ships only the entry ops of an
  // incremental commit — stage() of the op list, then commit(). An
  // empty op list commits trivially without touching the channel.
  InstallReport apply_delta(std::span<const table::EntryOp> ops,
                            const fault::Plan* faults = nullptr,
                            std::size_t chunk_bytes = 512,
                            int max_attempts = 3, int chunk_retries = 8);

  // Phase split for transactions that span switches: stage() ships and
  // verifies a pipeline or an op list and has the switch stage the
  // program it makes (Switch::stage); nothing is published. A delta that
  // does not apply to the program the switch runs aborts at once
  // (retrying the channel cannot fix a controller/switch desync). A
  // coordinator stages on every switch and commits only when every
  // StagedInstall::staged.
  StagedInstall stage(const table::Pipeline& pipeline,
                      const fault::Plan* faults = nullptr,
                      std::size_t chunk_bytes = 512, int max_attempts = 3,
                      int chunk_retries = 8);
  StagedInstall stage(std::span<const table::EntryOp> ops,
                      const fault::Plan* faults = nullptr,
                      std::size_t chunk_bytes = 512, int max_attempts = 3,
                      int chunk_retries = 8);

  // Publishes s's staged program with one Switch::commit at this
  // installer's epoch. Updates s.report in place and returns
  // s.report.committed: false on a stale epoch (E140), when the switch no
  // longer runs the program s's ops were staged on (E144), or when s was
  // never staged.
  bool commit(StagedInstall& s);

  // Re-commits the program the last successful commit replaced (undo of
  // the last install or apply_delta), without copying or lowering it
  // again. False when there is nothing to roll back to, when the switch
  // has been written since that commit (E144), or when the switch fences
  // the write out as stale.
  bool rollback();

  // The program the switch runs (Switch::pipeline_snapshot: shared, not
  // copied), safe for concurrent read-only evaluation. Never observes a
  // partially staged image.
  std::shared_ptr<const table::Pipeline> active() const {
    return sw_.pipeline_snapshot();
  }

  std::uint64_t commits() const noexcept { return commits_; }

  // --- crash-safety hooks -------------------------------------------------

  // Stamps every subsequent commit and rollback with this controller
  // epoch, so a crashed predecessor's stragglers are rejected (E140)
  // instead of clobbering this controller's installs. Epoch 0 (the
  // default) commits unfenced, for single-controller tools and tests.
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  // The switch this installer programs (reconciliation reads its digests).
  switchsim::Switch& target() noexcept { return sw_; }

 private:
  // One staging attempt: ships `bytes` in explicitly framed, CRC-checked,
  // slot-addressed chunks over the faultable channel (drop, corruption,
  // duplication, and reordering are all exercised; see ChunkReceiver).
  // False when any chunk exhausts its retries. `send_index` advances once
  // per send so a whole campaign replays from the fault-plan seed.
  bool stage_attempt(std::span<const std::uint8_t> bytes,
                     std::size_t chunk_bytes, const fault::Plan* faults,
                     int chunk_retries, std::uint64_t& send_index,
                     InstallReport& report, std::vector<std::uint8_t>& staged);

  // The stage+verify loop behind both stage() overloads.
  StagedInstall stage_image(const std::string& image, bool ops,
                            const fault::Plan* faults, std::size_t chunk_bytes,
                            int max_attempts, int chunk_retries);

  switchsim::Switch& sw_;
  // What the last successful commit replaced, staged onto the program it
  // published (Switch::commit's return); empty after a rollback.
  switchsim::Switch::Staged previous_;
  std::uint64_t commits_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_xfer_id_ = 1;
};

}  // namespace camus::pubsub
