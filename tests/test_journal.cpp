// Journal framing, crash/torn-tail semantics, snapshot compaction, and the
// hardened chunk channel (explicit headers, CRC, dup/reorder rejection).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pubsub/install.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace {

using camus::pubsub::ChunkHeader;
using camus::pubsub::ChunkReceiver;
using camus::pubsub::encode_chunk;
using camus::pubsub::kChunkHeaderBytes;
using camus::util::Journal;
using camus::util::MemStorage;
using camus::util::Record;
using camus::util::RecordType;

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(camus::util::crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, SeedChains) {
  const std::string all = "hello world";
  const std::uint32_t whole = camus::util::crc32(std::string_view(all));
  const std::uint32_t part =
      camus::util::crc32(std::string_view("world"),
                         camus::util::crc32(std::string_view("hello ")));
  EXPECT_EQ(whole, part);
}

// The slicing-by-8 CRC against the byte-at-a-time definition, at every
// length 0-64 from every start offset 0-7 (so the 8-byte steps run
// unaligned), chained from several seeds.
TEST(Crc32, SlicedMatchesBytewiseReference) {
  auto reference = [](std::span<const std::uint8_t> bytes,
                      std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
      c ^= b;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  camus::util::Rng rng(32);
  std::vector<std::uint8_t> buf(64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + start, len);
      for (const std::uint32_t seed : {0u, 0xCBF43926u, 0xFFFFFFFFu})
        ASSERT_EQ(camus::util::crc32(bytes, seed), reference(bytes, seed))
            << "start " << start << " len " << len << " seed " << seed;
    }
  }
}

// --- MemStorage crash model ----------------------------------------------

TEST(MemStorage, CrashDiscardsUnsyncedBytes) {
  MemStorage st;
  ASSERT_TRUE(st.append("durable").ok());
  ASSERT_TRUE(st.sync().ok());
  ASSERT_TRUE(st.append("volatile").ok());
  EXPECT_EQ(st.size(), 15u);
  EXPECT_EQ(st.synced_size(), 7u);

  st.crash();
  EXPECT_EQ(st.load().value(), "durable");
}

TEST(MemStorage, CrashKeepsTornTail) {
  MemStorage st;
  ASSERT_TRUE(st.append("durable").ok());
  ASSERT_TRUE(st.sync().ok());
  ASSERT_TRUE(st.append("lost-write").ok());
  st.crash(4);
  EXPECT_EQ(st.load().value(), "durablelost");
}

TEST(MemStorage, ReplaceIsDurable) {
  MemStorage st;
  ASSERT_TRUE(st.append("old").ok());
  ASSERT_TRUE(st.sync().ok());
  ASSERT_TRUE(st.replace("new contents").ok());
  st.crash();
  EXPECT_EQ(st.load().value(), "new contents");
}

// --- Journal framing and replay ------------------------------------------

TEST(Journal, RoundTripsRecords) {
  MemStorage st;
  Journal j(st);
  ASSERT_TRUE(j.append(RecordType::kEpoch, "1").ok());
  ASSERT_TRUE(j.append(RecordType::kSubscribe, "3 0 stock == IBM : fwd(3)").ok());
  ASSERT_TRUE(j.append(RecordType::kCommit, "1 12345").ok());

  auto replay = j.replay();
  ASSERT_TRUE(replay.ok());
  const auto& r = replay.value();
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].type, RecordType::kEpoch);
  EXPECT_EQ(r.records[1].payload, "3 0 stock == IBM : fwd(3)");
  EXPECT_EQ(r.records[2].type, RecordType::kCommit);
  EXPECT_EQ(r.torn_bytes, 0u);
  // record_ends marks one boundary per record, ending at the stream size.
  ASSERT_EQ(r.record_ends.size(), 3u);
  EXPECT_EQ(r.record_ends.back(), r.bytes_replayed);
}

TEST(Journal, AppendSurvivesCrash) {
  MemStorage st;
  Journal j(st);
  ASSERT_TRUE(j.append(RecordType::kSubscribe, "synced").ok());
  st.crash();  // append() synced, so the record must survive
  auto replay = j.replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].payload, "synced");
}

TEST(Journal, TornTailAtEofIsTolerated) {
  MemStorage st;
  Journal j(st);
  ASSERT_TRUE(j.append(RecordType::kSubscribe, "whole record").ok());
  const std::string frame =
      Journal::frame(RecordType::kCommit, "half-written record");
  // A crash mid-write leaves a prefix of the next frame.
  ASSERT_TRUE(st.append(frame.substr(0, frame.size() / 2)).ok());
  ASSERT_TRUE(st.sync().ok());

  auto replay = j.replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().torn_bytes, frame.size() / 2);
}

TEST(Journal, EveryTornPrefixOfTheLastRecordReplays) {
  // The torn tail can cut at ANY byte of the last frame — all of them must
  // replay to exactly the preceding records.
  const std::string head = Journal::frame(RecordType::kEpoch, "7");
  const std::string tail = Journal::frame(RecordType::kCommit, "1 999");
  for (std::size_t cut = 0; cut < tail.size(); ++cut) {
    auto replay = Journal::replay_bytes(head + tail.substr(0, cut));
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    EXPECT_EQ(replay.value().records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(replay.value().torn_bytes, cut) << "cut=" << cut;
  }
}

TEST(Journal, MidLogBadMagicIsJ001) {
  std::string bytes = Journal::frame(RecordType::kEpoch, "1") +
                      Journal::frame(RecordType::kCommit, "1 42");
  bytes[0] ^= 0xFF;  // corrupt the FIRST record's magic — not a torn tail
  auto replay = Journal::replay_bytes(bytes);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "J001");
}

TEST(Journal, MidLogCrcMismatchIsJ002) {
  const std::string first = Journal::frame(RecordType::kSubscribe, "payload");
  std::string bytes = first + Journal::frame(RecordType::kCommit, "1 42");
  bytes[first.size() - 2] ^= 0x01;  // flip a payload byte of record 1
  auto replay = Journal::replay_bytes(bytes);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "J002");
}

TEST(Journal, CompactReplacesHistoryWithSnapshot) {
  MemStorage st;
  Journal j(st);
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(
        j.append(RecordType::kSubscribe, "sub " + std::to_string(i)).ok());
  const std::size_t before = st.size();

  const Record snap{RecordType::kSnapshot, "epoch 3\nsub 1 0 x"};
  ASSERT_TRUE(j.compact(std::span<const Record>(&snap, 1)).ok());
  EXPECT_LT(st.size(), before);

  auto replay = j.replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0], snap);
}

// --- Chunk channel --------------------------------------------------------

std::vector<std::uint8_t> payload_of(char fill, std::size_t n) {
  return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

TEST(ChunkChannel, HappyPathAssembles) {
  const auto p0 = payload_of('a', 8);
  const auto p1 = payload_of('b', 8);
  const auto p2 = payload_of('c', 4);
  ChunkReceiver rx(/*epoch=*/5, /*xfer_id=*/9, /*total=*/3,
                   /*chunk_bytes=*/8, /*image_bytes=*/20);
  auto send = [&](std::uint32_t idx, const std::vector<std::uint8_t>& p) {
    ChunkHeader h{5, 9, idx, 3, static_cast<std::uint32_t>(p.size())};
    return rx.receive(as_span(encode_chunk(h, as_span(p))));
  };
  EXPECT_EQ(send(0, p0).value(), 0u);
  EXPECT_EQ(send(1, p1).value(), 1u);
  EXPECT_EQ(send(2, p2).value(), 2u);
  ASSERT_TRUE(rx.complete());
  const auto image = rx.assemble();
  ASSERT_EQ(image.size(), 20u);
  EXPECT_EQ(image[0], 'a');
  EXPECT_EQ(image[8], 'b');
  EXPECT_EQ(image[16], 'c');
}

TEST(ChunkChannel, ReorderedChunksSlotCorrectly) {
  const auto p = payload_of('x', 6);
  ChunkReceiver rx(1, 1, 2, 6, 12);
  ChunkHeader h1{1, 1, 1, 2, 6};
  ChunkHeader h0{1, 1, 0, 2, 6};
  EXPECT_TRUE(rx.receive(as_span(encode_chunk(h1, as_span(p)))).ok());
  EXPECT_FALSE(rx.complete());
  EXPECT_TRUE(rx.has(1));
  EXPECT_FALSE(rx.has(0));
  EXPECT_TRUE(rx.receive(as_span(encode_chunk(h0, as_span(p)))).ok());
  EXPECT_TRUE(rx.complete());
}

TEST(ChunkChannel, ShortFrameIsC001) {
  ChunkReceiver rx(1, 1, 1, 8, 8);
  std::vector<std::uint8_t> wire(kChunkHeaderBytes - 1, 0);
  auto r = rx.receive(as_span(wire));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "C001");
}

TEST(ChunkChannel, BadMagicIsC001) {
  const auto p = payload_of('q', 8);
  ChunkReceiver rx(1, 1, 1, 8, 8);
  auto wire = encode_chunk(ChunkHeader{1, 1, 0, 1, 8}, as_span(p));
  wire[0] ^= 0xFF;
  auto r = rx.receive(as_span(wire));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "C001");
}

TEST(ChunkChannel, CorruptionIsC002EverywhereInTheFrame) {
  // A bit flip at ANY byte past the magic must be caught by the CRC.
  const auto p = payload_of('z', 16);
  for (std::size_t at = 2; at < kChunkHeaderBytes + 16; ++at) {
    ChunkReceiver rx(3, 4, 1, 16, 16);
    auto wire = encode_chunk(ChunkHeader{3, 4, 0, 1, 16}, as_span(p));
    wire[at] ^= 0x10;
    auto r = rx.receive(as_span(wire));
    ASSERT_FALSE(r.ok()) << "at=" << at;
    // Header damage may surface as C001 (length disagreement), C003
    // (epoch/xfer no longer match), or C005 (index now out of range)
    // before the CRC check — but NEVER as an accepted chunk.
    EXPECT_TRUE(r.error().code == "C002" || r.error().code == "C001" ||
                r.error().code == "C003" || r.error().code == "C005")
        << "at=" << at << " code=" << r.error().code;
  }
}

TEST(ChunkChannel, StrayEpochOrTransferIsC003) {
  const auto p = payload_of('s', 8);
  ChunkReceiver rx(/*epoch=*/2, /*xfer_id=*/10, 1, 8, 8);
  auto stale_epoch = encode_chunk(ChunkHeader{1, 10, 0, 1, 8}, as_span(p));
  auto stale_xfer = encode_chunk(ChunkHeader{2, 9, 0, 1, 8}, as_span(p));
  EXPECT_EQ(rx.receive(as_span(stale_epoch)).error().code, "C003");
  EXPECT_EQ(rx.receive(as_span(stale_xfer)).error().code, "C003");
  EXPECT_EQ(rx.filled(), 0u);
}

TEST(ChunkChannel, DuplicateOfAcceptedChunkIsC004) {
  const auto p = payload_of('d', 8);
  ChunkReceiver rx(1, 1, 2, 8, 16);
  const auto wire = encode_chunk(ChunkHeader{1, 1, 0, 2, 8}, as_span(p));
  ASSERT_TRUE(rx.receive(as_span(wire)).ok());
  auto dup = rx.receive(as_span(wire));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, "C004");
  EXPECT_EQ(rx.filled(), 1u);  // the slot was not double-counted
}

TEST(ChunkChannel, IndexOutOfRangeIsC005) {
  const auto p = payload_of('i', 8);
  ChunkReceiver rx(1, 1, 2, 8, 16);
  auto bad_idx = encode_chunk(ChunkHeader{1, 1, 7, 2, 8}, as_span(p));
  auto bad_total = encode_chunk(ChunkHeader{1, 1, 0, 5, 8}, as_span(p));
  EXPECT_EQ(rx.receive(as_span(bad_idx)).error().code, "C005");
  EXPECT_EQ(rx.receive(as_span(bad_total)).error().code, "C005");
}

TEST(ChunkChannel, FuzzedFramesNeverCrashOrMiscount) {
  // Random mutations of valid frames: the receiver must reject cleanly or
  // accept the untouched frame — and assemble the exact image regardless.
  camus::util::Rng rng(0xC0FFEE);
  std::vector<std::uint8_t> image(100);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.next());

  ChunkReceiver rx(7, 7, 7, 16, image.size());
  for (std::uint32_t c = 0; c < 7; ++c) {
    const std::size_t off = c * 16;
    const std::size_t len = std::min<std::size_t>(16, image.size() - off);
    const std::span<const std::uint8_t> payload(image.data() + off, len);
    ChunkHeader h{7, 7, c, 7, static_cast<std::uint32_t>(len)};
    const auto good = encode_chunk(h, payload);
    // A few mutated copies first (all must be rejected)...
    for (int m = 0; m < 8; ++m) {
      auto bad = good;
      bad[rng.uniform(0, bad.size() - 1)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(0, 254));
      auto r = rx.receive(as_span(bad));
      if (r.ok()) {
        // Astronomically unlikely (CRC collision); tolerate only an exact
        // re-accept of the same index.
        EXPECT_EQ(r.value(), c);
      }
    }
    // ...then the real one.
    auto r = rx.receive(as_span(good));
    EXPECT_TRUE(r.ok() || r.error().code == "C004");
  }
  ASSERT_TRUE(rx.complete());
  EXPECT_EQ(rx.assemble(), image);
}

}  // namespace
