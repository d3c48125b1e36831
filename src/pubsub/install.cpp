#include "pubsub/install.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace camus::pubsub {

namespace {

// The whole-image digest stage_image compares between the bytes it ships
// and the bytes staged. It never leaves stage_image, so it is free to take
// eight bytes a step: each step (xor, odd multiply, xorshift) is a
// bijection of the state, so one changed word or byte always changes the
// digest.
std::uint64_t image_digest(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = (0xcbf29ce484222325ULL ^ bytes.size()) * kMul;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  for (; n > 0; ++p, --n) h = (h ^ *p) * kMul;
  return h;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_chunk(const ChunkHeader& h,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(kChunkHeaderBytes + payload.size());
  put_u16(wire, kChunkMagic);
  put_u64(wire, h.epoch);
  put_u64(wire, h.xfer_id);
  put_u32(wire, h.chunk_idx);
  put_u32(wire, h.total_chunks);
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  // CRC over everything framed so far plus the payload: a flipped bit in
  // header or body both fail the check.
  std::uint32_t crc = util::crc32(std::span<const std::uint8_t>(wire));
  crc = util::crc32(payload, crc);
  put_u32(wire, crc);
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

ChunkReceiver::ChunkReceiver(std::uint64_t epoch, std::uint64_t xfer_id,
                             std::uint32_t total_chunks,
                             std::size_t chunk_bytes, std::size_t image_bytes)
    : epoch_(epoch),
      xfer_id_(xfer_id),
      total_(total_chunks),
      chunk_bytes_(chunk_bytes),
      image_bytes_(image_bytes),
      slots_(total_chunks),
      have_(total_chunks, false) {}

util::Result<std::uint32_t> ChunkReceiver::receive(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < kChunkHeaderBytes)
    return util::Error{"chunk frame shorter than header", 0, 0, "C001"};
  const std::uint8_t* p = wire.data();
  if (get_u16(p) != kChunkMagic)
    return util::Error{"chunk frame has bad magic", 0, 0, "C001"};
  ChunkHeader h;
  h.epoch = get_u64(p + 2);
  h.xfer_id = get_u64(p + 10);
  h.chunk_idx = get_u32(p + 18);
  h.total_chunks = get_u32(p + 22);
  h.payload_len = get_u32(p + 26);
  const std::uint32_t crc = get_u32(p + 30);
  if (wire.size() != kChunkHeaderBytes + h.payload_len)
    return util::Error{"chunk frame length disagrees with header", 0, 0,
                       "C001"};
  // CRC covers the header (minus the CRC field itself) and the payload.
  std::uint32_t want = util::crc32(wire.subspan(0, kChunkHeaderBytes - 4));
  want = util::crc32(wire.subspan(kChunkHeaderBytes), want);
  if (crc != want)
    return util::Error{"chunk CRC mismatch", 0, 0, "C002"};
  if (h.epoch != epoch_ || h.xfer_id != xfer_id_)
    return util::Error{"chunk from another transfer (epoch " +
                           std::to_string(h.epoch) + ", xfer " +
                           std::to_string(h.xfer_id) + ")",
                       0, 0, "C003"};
  if (h.total_chunks != total_ || h.chunk_idx >= total_)
    return util::Error{"chunk index " + std::to_string(h.chunk_idx) +
                           " out of range of " + std::to_string(total_),
                       0, 0, "C005"};
  // Every chunk but the last must be exactly chunk_bytes_; the last holds
  // the remainder. A wrong-sized payload for its slot is malformed.
  const std::size_t want_len =
      h.chunk_idx + 1 == total_
          ? image_bytes_ - static_cast<std::size_t>(h.chunk_idx) * chunk_bytes_
          : chunk_bytes_;
  if (h.payload_len != want_len)
    return util::Error{"chunk payload length wrong for its slot", 0, 0,
                       "C001"};
  if (have_[h.chunk_idx])
    return util::Error{"duplicate of accepted chunk " +
                           std::to_string(h.chunk_idx),
                       0, 0, "C004"};
  const auto payload = wire.subspan(kChunkHeaderBytes);
  slots_[h.chunk_idx].assign(payload.begin(), payload.end());
  have_[h.chunk_idx] = true;
  ++filled_;
  return h.chunk_idx;
}

std::vector<std::uint8_t> ChunkReceiver::assemble() const {
  std::vector<std::uint8_t> out;
  out.reserve(image_bytes_);
  for (const auto& s : slots_) out.insert(out.end(), s.begin(), s.end());
  return out;
}

bool TwoPhaseInstaller::rollback() {
  const switchsim::Switch::Staged previous = std::exchange(previous_, {});
  return previous && sw_.commit(previous, epoch_).ok();
}

bool TwoPhaseInstaller::stage_attempt(std::span<const std::uint8_t> bytes,
                                      std::size_t chunk_bytes,
                                      const fault::Plan* faults,
                                      int chunk_retries,
                                      std::uint64_t& send_index,
                                      InstallReport& report,
                                      std::vector<std::uint8_t>& staged) {
  staged.clear();
  ChunkReceiver rx(epoch_, next_xfer_id_,
                   static_cast<std::uint32_t>(report.chunks), chunk_bytes,
                   bytes.size());
  ++next_xfer_id_;

  // Frames the channel is holding back (reorder decisions): they arrive
  // after the sender's next transmission, exercising out-of-order and
  // late-duplicate handling at the receiver.
  std::vector<std::vector<std::uint8_t>> delayed;
  auto classify = [&](const util::Result<std::uint32_t>& r) {
    if (r.ok()) return;
    const std::string& code = r.error().code;
    if (code == "C001") ++report.chunk_malformed;
    else if (code == "C002") ++report.chunk_crc_rejects;
    else if (code == "C004") ++report.chunk_dup_rejects;
    else ++report.chunk_stray_rejects;  // C003/C005
  };
  auto flush_delayed = [&] {
    for (auto& w : delayed) {
      ++report.chunk_reordered;
      classify(rx.receive(w));
    }
    delayed.clear();
  };

  for (std::size_t c = 0; c < report.chunks; ++c) {
    const std::size_t off = c * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, bytes.size() - off);
    ChunkHeader h;
    h.epoch = epoch_;
    h.xfer_id = next_xfer_id_ - 1;
    h.chunk_idx = static_cast<std::uint32_t>(c);
    h.total_chunks = static_cast<std::uint32_t>(report.chunks);

    bool delivered = false;
    for (int t = 0; t <= chunk_retries; ++t) {
      // Held-back frames from earlier sends arrive now — after at least
      // one later transmission, i.e. reordered.
      flush_delayed();
      ++report.chunk_sends;
      if (t > 0) ++report.chunk_retransmits;
      std::vector<std::uint8_t> wire =
          encode_chunk(h, bytes.subspan(off, len));
      bool dropped = false, dup = false, held = false;
      if (faults && faults->enabled()) {
        const fault::Decision d = faults->decision(send_index);
        if (d.corrupt_bits > 0) faults->corrupt(send_index, wire);
        ++send_index;
        dropped = d.drop;
        dup = d.duplicate;
        held = d.delay_us > 0;
      } else {
        ++send_index;
      }
      if (dropped) continue;  // lost on the wire; no ACK, retransmit
      if (held) {
        // In flight but displaced: the sender times out (no ACK) and
        // retransmits; the frame still lands later.
        delayed.push_back(std::move(wire));
        continue;
      }
      auto r = rx.receive(wire);
      classify(r);
      if (dup) classify(rx.receive(wire));  // duplicated on the wire
      // A duplicate of an accepted chunk means this slot is already
      // staged (possibly by a late reordered frame) — that IS an ACK.
      if (r.ok() || r.error().code == "C004") {
        delivered = true;
        break;
      }
    }
    if (!delivered) {
      // One last chance: a held-back frame still in flight may fill the
      // slot on arrival.
      flush_delayed();
      if (!rx.has(static_cast<std::uint32_t>(c))) return false;
    }
  }
  flush_delayed();
  if (!rx.complete()) return false;
  staged = rx.assemble();
  return true;
}

StagedInstall TwoPhaseInstaller::stage_image(const std::string& image,
                                             bool ops,
                                             const fault::Plan* faults,
                                             std::size_t chunk_bytes,
                                             int max_attempts,
                                             int chunk_retries) {
  StagedInstall out;
  out.report.epoch = epoch_;
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size());
  const std::uint64_t digest = image_digest(bytes);
  const std::string what = ops ? "delta" : "image";

  chunk_bytes = std::max<std::size_t>(chunk_bytes, 1);
  out.report.chunks = (image.size() + chunk_bytes - 1) / chunk_bytes;

  // Every chunk send consumes one decision index from the fault plan, so
  // the whole install (retransmits included) replays from the seed.
  std::uint64_t send_index = 0;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++out.report.attempts;

    // --- Stage: ship framed, CRC-checked chunks; retry damaged ones.
    std::vector<std::uint8_t> staged;
    if (!stage_attempt(bytes, chunk_bytes, faults, chunk_retries, send_index,
                       out.report, staged)) {
      out.report.error = "staging failed: chunk retries exhausted";
      continue;  // next full attempt; switch untouched
    }

    // --- Verify: whole-image digest, then parse + structural validation.
    if (image_digest(staged) != digest) {
      out.report.error = "staged " + what + " digest mismatch";
      continue;
    }
    const std::string_view wire(reinterpret_cast<const char*>(staged.data()),
                                staged.size());
    if (!ops) {
      auto parsed = table::deserialize_pipeline(wire);
      if (!parsed.ok()) {
        out.report.error =
            "staged image rejected: " + parsed.error().to_string();
        continue;
      }
      out.program = sw_.stage(std::move(parsed).take());
    } else {
      auto parsed = table::deserialize_ops(wire);
      if (!parsed.ok()) {
        out.report.error =
            "staged delta rejected: " + parsed.error().to_string();
        continue;
      }
      // The switch applies the ops to a copy of the program it runs. A
      // delta that does not land exactly (U0xx) means the controller and
      // switch disagree about the installed state — aborting here is what
      // keeps them from silently diverging, and retrying cannot fix it.
      auto staged = sw_.stage(parsed.value());
      if (!staged.ok()) {
        out.report.error =
            "delta does not apply: " + staged.error().to_string();
        return out;
      }
      out.program = std::move(staged).take();
    }
    out.staged = true;
    out.report.error.clear();
    return out;
  }

  if (out.report.error.empty())
    out.report.error = "install attempts exhausted";
  return out;
}

StagedInstall TwoPhaseInstaller::stage(const table::Pipeline& pipeline,
                                       const fault::Plan* faults,
                                       std::size_t chunk_bytes,
                                       int max_attempts, int chunk_retries) {
  return stage_image(table::serialize_pipeline(pipeline), /*ops=*/false,
                     faults, chunk_bytes, max_attempts, chunk_retries);
}

StagedInstall TwoPhaseInstaller::stage(std::span<const table::EntryOp> ops,
                                       const fault::Plan* faults,
                                       std::size_t chunk_bytes,
                                       int max_attempts, int chunk_retries) {
  StagedInstall out =
      stage_image(table::serialize_ops(ops), /*ops=*/true, faults,
                  chunk_bytes, max_attempts, chunk_retries);
  out.report.ops = ops.size();
  return out;
}

bool TwoPhaseInstaller::commit(StagedInstall& s) {
  if (!s.staged) {
    if (s.report.error.empty())
      s.report.error = "commit of an image that was never staged";
    return false;
  }
  auto replaced = sw_.commit(s.program, epoch_);
  if (!replaced.ok()) {
    // E140: a newer controller owns the switch; retrying cannot help.
    s.report.fenced_out = replaced.error().code == "E140";
    s.report.error =
        "switch rejected the commit: " + replaced.error().to_string();
    return false;
  }
  previous_ = std::move(replaced).take();
  ++commits_;
  s.report.applied = s.program.applied();
  s.report.committed = true;
  s.report.error.clear();
  return true;
}

InstallReport TwoPhaseInstaller::install(const table::Pipeline& pipeline,
                                         const fault::Plan* faults,
                                         std::size_t chunk_bytes,
                                         int max_attempts, int chunk_retries) {
  StagedInstall s = stage(pipeline, faults, chunk_bytes, max_attempts,
                          chunk_retries);
  if (s.staged) commit(s);
  return s.report;
}

InstallReport TwoPhaseInstaller::apply_delta(
    std::span<const table::EntryOp> ops, const fault::Plan* faults,
    std::size_t chunk_bytes, int max_attempts, int chunk_retries) {
  if (ops.empty()) {
    // A no-op commit ships nothing and commits trivially: the running
    // program already is the target.
    InstallReport report;
    report.epoch = epoch_;
    report.committed = true;
    return report;
  }
  StagedInstall s = stage(ops, faults, chunk_bytes, max_attempts,
                          chunk_retries);
  if (s.staged) commit(s);
  return s.report;
}

}  // namespace camus::pubsub
