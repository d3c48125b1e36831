#include "util/journal.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace camus::util {

namespace {

constexpr std::uint8_t kMagic = 0xA6;
// Header: magic(1) type(1) len(4) crc(4), little-endian fixed.
constexpr std::size_t kHeaderBytes = 10;

// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups fold
// eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
  return t;
}

const CrcTables& crc_tables() {
  static const CrcTables t = make_crc_tables();
  return t;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_u32(reinterpret_cast<const char*>(p));
    const std::uint32_t hi = get_u32(reinterpret_cast<const char*>(p + 4));
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  return crc32(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
      seed);
}

// --- MemStorage -----------------------------------------------------------

Result<bool> MemStorage::append(std::string_view bytes) {
  buf_.append(bytes);
  return true;
}

Result<bool> MemStorage::sync() {
  synced_ = buf_.size();
  ++syncs_;
  return true;
}

Result<std::string> MemStorage::load() const { return buf_; }

Result<bool> MemStorage::replace(std::string_view contents) {
  buf_.assign(contents);
  synced_ = buf_.size();
  ++syncs_;
  return true;
}

void MemStorage::crash(std::size_t torn_tail_bytes) {
  const std::size_t keep =
      std::min(buf_.size(), synced_ + torn_tail_bytes);
  buf_.resize(keep);
  synced_ = std::min(synced_, keep);
}

// --- FileStorage ----------------------------------------------------------

FileStorage::FileStorage(std::string path) : path_(std::move(path)) {}

Result<bool> FileStorage::append(std::string_view bytes) {
  pending_.append(bytes);
  return true;
}

Result<bool> FileStorage::sync() {
  if (pending_.empty()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (!f)
    return Error{"journal open failed: " + path_, 0, 0, "J003"};
  const std::size_t n =
      std::fwrite(pending_.data(), 1, pending_.size(), f);
  const bool ok = n == pending_.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return Error{"journal write failed: " + path_, 0, 0, "J003"};
  pending_.clear();
  return true;
}

Result<std::string> FileStorage::load() const {
  std::string out;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f) {
    std::array<char, 1 << 16> chunk;
    std::size_t n;
    while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
      out.append(chunk.data(), n);
    std::fclose(f);
  }
  out.append(pending_);
  return out;
}

Result<bool> FileStorage::replace(std::string_view contents) {
  pending_.clear();
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error{"journal open failed: " + tmp, 0, 0, "J003"};
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = n == contents.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0)
    return Error{"journal replace failed: " + path_, 0, 0, "J003"};
  return true;
}

// --- Journal --------------------------------------------------------------

std::string Journal::frame(RecordType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  // CRC covers the type byte and the payload, so a record of the right
  // length with the wrong type still fails.
  std::uint32_t c = crc32(std::string_view(&out[1], 1));
  c = crc32(payload, c);
  put_u32(out, c);
  out.append(payload);
  return out;
}

Result<bool> Journal::append(RecordType type, std::string_view payload) {
  if (auto a = storage_.append(frame(type, payload)); !a.ok())
    return a.error();
  if (auto s = storage_.sync(); !s.ok()) return s.error();
  ++appended_;
  return true;
}

Result<ReplayResult> Journal::replay_bytes(std::string_view bytes) {
  ReplayResult out;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    // Header truncated at EOF: torn tail.
    if (remaining < kHeaderBytes) {
      out.torn_bytes = remaining;
      break;
    }
    const char* p = bytes.data() + off;
    if (static_cast<std::uint8_t>(p[0]) != kMagic)
      return Error{"journal: bad record magic at byte " + std::to_string(off),
                   0, 0, "J001"};
    const std::uint8_t type = static_cast<std::uint8_t>(p[1]);
    const std::uint32_t len = get_u32(p + 2);
    const std::uint32_t want_crc = get_u32(p + 6);
    if (remaining < kHeaderBytes + len) {
      // Payload truncated at EOF: torn tail (the append never synced).
      out.torn_bytes = remaining;
      break;
    }
    const std::string_view payload(p + kHeaderBytes, len);
    std::uint32_t c = crc32(std::string_view(p + 1, 1));
    c = crc32(payload, c);
    if (c != want_crc) {
      // A bad CRC on the final record is a torn write; earlier it is
      // corruption the storage should never produce.
      if (off + kHeaderBytes + len == bytes.size()) {
        out.torn_bytes = remaining;
        break;
      }
      return Error{"journal: record CRC mismatch at byte " +
                       std::to_string(off),
                   0, 0, "J002"};
    }
    Record r;
    r.type = static_cast<RecordType>(type);
    r.payload.assign(payload);
    out.records.push_back(std::move(r));
    off += kHeaderBytes + len;
    out.record_ends.push_back(off);
  }
  out.bytes_replayed = off;
  return out;
}

Result<ReplayResult> Journal::replay() const {
  auto loaded = storage_.load();
  if (!loaded.ok()) return loaded.error();
  return replay_bytes(loaded.value());
}

Result<bool> Journal::compact(std::span<const Record> records) {
  std::string image;
  for (const Record& r : records) image += frame(r.type, r.payload);
  if (auto rep = storage_.replace(image); !rep.ok()) return rep.error();
  return true;
}

}  // namespace camus::util
