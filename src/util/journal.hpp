// Durable write-ahead journal for control-plane state (the crash-safety
// substrate of pubsub::DurableController). A Journal frames typed records
// over a StableStorage byte log with per-record CRCs; replay() walks the
// log back into records, tolerating a *torn tail* — the suffix a crash cut
// mid-write — while still distinguishing it from mid-log corruption.
//
// Crash model (what the nemesis harness injects): append() buffers bytes
// and sync() makes everything appended so far durable. A crash discards
// any bytes appended after the last sync, possibly leaving a prefix of
// them (the torn tail) — exactly the contract of a POSIX file behind
// write()+fsync(). Journal::append syncs after every record, so a record
// whose append() returned ok survives any later crash (write-ahead: callers
// journal an operation before acting on it).
//
// Diagnostics (stable J-codes, util::Result convention):
//   J001  record header malformed mid-log (bad magic)
//   J002  record payload CRC mismatch mid-log
//   J003  journal byte stream rejected by storage
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace camus::util {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the chunk-channel and
// journal framing checksum. Stronger mixing than FNV for short inputs and
// a stable wire constant. Computed eight bytes a step (slicing-by-8).
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 0);
std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

// Abstract append-only byte log with explicit durability. Implementations
// define what survives a crash; the Journal only ever appends, syncs,
// loads, and (for snapshot compaction) atomically replaces the contents.
class StableStorage {
 public:
  virtual ~StableStorage() = default;

  virtual Result<bool> append(std::string_view bytes) = 0;
  // Makes every byte appended so far durable.
  virtual Result<bool> sync() = 0;
  // The current contents (durable prefix + not-yet-synced suffix). After a
  // crash only the durable prefix (plus any torn tail) remains.
  virtual Result<std::string> load() const = 0;
  // Atomically replaces the contents (snapshot compaction). Durable on
  // return, like rename(2) over a synced temp file.
  virtual Result<bool> replace(std::string_view contents) = 0;
};

// In-memory storage with an explicit crash lever — the unit-test and
// nemesis-harness backend. crash(torn) truncates to the synced prefix
// plus up to `torn` additional bytes (the torn tail a mid-write crash
// leaves), after which load() observes exactly what a restarted process
// would read off disk.
class MemStorage final : public StableStorage {
 public:
  Result<bool> append(std::string_view bytes) override;
  Result<bool> sync() override;
  Result<std::string> load() const override;
  Result<bool> replace(std::string_view contents) override;

  // Simulates a process/host crash: unsynced bytes are lost except for a
  // torn tail of at most `torn_tail_bytes`.
  void crash(std::size_t torn_tail_bytes = 0);

  std::size_t size() const noexcept { return buf_.size(); }
  std::size_t synced_size() const noexcept { return synced_; }
  std::uint64_t syncs() const noexcept { return syncs_; }

 private:
  std::string buf_;
  std::size_t synced_ = 0;
  std::uint64_t syncs_ = 0;
};

// File-backed storage (bench/CLI realism): append+fsync on sync(),
// write-temp+rename on replace(). Not crash-injected in tests — the
// simulated MemStorage is — but lets the recovery bench measure replay
// against a real filesystem.
class FileStorage final : public StableStorage {
 public:
  explicit FileStorage(std::string path);

  Result<bool> append(std::string_view bytes) override;
  Result<bool> sync() override;
  Result<std::string> load() const override;
  Result<bool> replace(std::string_view contents) override;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::string pending_;  // appended since last sync
};

// One journal record. Payloads are opaque bytes to the journal; the
// controller layers its own line formats on top.
enum class RecordType : std::uint8_t {
  kEpoch = 1,          // controller took a new epoch
  kSubscribe = 2,      // intended-state mutation
  kUnsubscribe = 3,    // intended-state mutation
  kCommit = 4,         // compiler commit boundary (digest payload)
  kInstallBegin = 5,   // two-phase install entered flight
  kInstallCommit = 6,  // install landed on the switch
  kInstallAbort = 7,   // install failed; switch kept last-good
  kSnapshot = 8,       // checkpoint: full intended state, compacted
};

struct Record {
  RecordType type = RecordType::kEpoch;
  std::string payload;

  friend bool operator==(const Record&, const Record&) = default;
};

struct ReplayResult {
  std::vector<Record> records;
  // Byte offset just past each replayed record — the crash-point sweep
  // truncates the log at every one of these boundaries.
  std::vector<std::size_t> record_ends;
  std::size_t bytes_replayed = 0;
  // Bytes past the last whole record (a torn tail, discarded silently —
  // the write they belonged to never returned ok to its caller).
  std::size_t torn_bytes = 0;
};

class Journal {
 public:
  explicit Journal(StableStorage& storage) : storage_(storage) {}

  // Frames, appends, and syncs one record: when this returns ok the
  // record survives any later crash.
  Result<bool> append(RecordType type, std::string_view payload);

  // Parses a raw journal byte stream. A truncated/corrupt record at the
  // very end is a torn tail (reported, not fatal); anything invalid with
  // valid-looking bytes after it is corruption (J001/J002).
  static Result<ReplayResult> replay_bytes(std::string_view bytes);

  // load() + replay_bytes().
  Result<ReplayResult> replay() const;

  // Atomically replaces the log with `records` (snapshot compaction).
  Result<bool> compact(std::span<const Record> records);

  // Frames a record exactly as append() writes it (exposed so tests and
  // the crash sweep can compute boundaries without a storage).
  static std::string frame(RecordType type, std::string_view payload);

  std::uint64_t appended() const noexcept { return appended_; }
  StableStorage& storage() noexcept { return storage_; }

 private:
  StableStorage& storage_;
  std::uint64_t appended_ = 0;
};

}  // namespace camus::util
