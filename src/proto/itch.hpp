// MoldUDP64 framing and Nasdaq TotalView-ITCH 5.0 add-order messages — the
// application protocol of the paper's case study.
//
// MoldUDP64 downstream packet:
//   session (10 ASCII bytes) | sequence number (u64) | message count (u16)
//   then per message: length (u16) | payload
//
// ITCH 5.0 add-order ('A') message, 36 bytes:
//   type 'A' | stock locate u16 | tracking u16 | timestamp u48 (ns since
//   midnight) | order reference u64 | buy/sell 'B'/'S' | shares u32 |
//   stock (8 ASCII, space padded) | price u32 (fixed point, 4 decimals)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "proto/wire.hpp"
#include "util/result.hpp"

namespace camus::proto {

inline constexpr char kItchAddOrder = 'A';
inline constexpr char kItchOrderExecuted = 'E';
inline constexpr char kItchTrade = 'P';
inline constexpr char kItchOrderCancel = 'X';

struct MoldUdp64Header {
  std::string session = "CAMUS00001";  // exactly 10 bytes on the wire
  std::uint64_t sequence = 0;
  std::uint16_t message_count = 0;

  static constexpr std::size_t kSize = 20;
  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);
};

// MoldUDP64 retransmission request — the upstream packet of the real
// protocol: a receiver that detects a sequence gap asks the sender to
// re-send `count` messages starting at `sequence`.
struct MoldUdp64Request {
  std::string session = "CAMUS00001";  // exactly 10 bytes on the wire
  std::uint64_t sequence = 0;
  std::uint16_t count = 0;

  static constexpr std::size_t kSize = 20;
  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);
};

struct ItchAddOrder {
  std::uint16_t stock_locate = 0;
  std::uint16_t tracking = 0;
  std::uint64_t timestamp_ns = 0;  // 48-bit on the wire
  std::uint64_t order_ref = 0;
  char side = 'B';  // 'B' buy / 'S' sell
  std::uint32_t shares = 0;
  std::string stock;      // up to 8 ASCII chars, unpadded
  std::uint32_t price = 0;  // fixed point with 4 implied decimals

  static constexpr std::size_t kSize = 36;

  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);  // expects the 'A' byte included

  // The stock symbol as the 64-bit wire encoding the compiler matches on.
  std::uint64_t stock_key() const;
};

// ITCH 5.0 order-executed ('E') message, 31 bytes: an order on the book
// traded against.
struct ItchOrderExecuted {
  std::uint16_t stock_locate = 0;
  std::uint16_t tracking = 0;
  std::uint64_t timestamp_ns = 0;
  std::uint64_t order_ref = 0;
  std::uint32_t executed_shares = 0;
  std::uint64_t match_number = 0;

  static constexpr std::size_t kSize = 31;
  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);
};

// ITCH 5.0 non-displayable trade ('P') message, 44 bytes.
struct ItchTrade {
  std::uint16_t stock_locate = 0;
  std::uint16_t tracking = 0;
  std::uint64_t timestamp_ns = 0;
  std::uint64_t order_ref = 0;
  char side = 'B';
  std::uint32_t shares = 0;
  std::string stock;
  std::uint32_t price = 0;
  std::uint64_t match_number = 0;

  static constexpr std::size_t kSize = 44;
  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);
};

// ITCH 5.0 order-cancel ('X') message, 23 bytes.
struct ItchOrderCancel {
  std::uint16_t stock_locate = 0;
  std::uint16_t tracking = 0;
  std::uint64_t timestamp_ns = 0;
  std::uint64_t order_ref = 0;
  std::uint32_t cancelled_shares = 0;

  static constexpr std::size_t kSize = 23;
  void encode(Writer& w) const;
  [[nodiscard]] bool decode(Reader& r);
};

// A decoded market-data packet payload: the MoldUDP header plus its
// add-order messages. Other recognized types are tallied; unknown message
// types are counted in skipped_messages. (The subscription pipeline
// classifies add-orders, matching the paper's prototype.)
struct ItchPacket {
  MoldUdp64Header mold;
  std::vector<ItchAddOrder> add_orders;
  std::size_t executed_messages = 0;
  std::size_t trade_messages = 0;
  std::size_t cancel_messages = 0;
  std::size_t skipped_messages = 0;
};

// Wire-encodes any supported message type for mixed-payload packets.
std::vector<std::uint8_t> encode_itch_message(const ItchAddOrder& m);
std::vector<std::uint8_t> encode_itch_message(const ItchOrderExecuted& m);
std::vector<std::uint8_t> encode_itch_message(const ItchTrade& m);
std::vector<std::uint8_t> encode_itch_message(const ItchOrderCancel& m);

// Encodes a MoldUDP64 payload from pre-encoded message blocks.
std::vector<std::uint8_t> encode_itch_payload_raw(
    const MoldUdp64Header& mold,
    const std::vector<std::vector<std::uint8_t>>& messages);

// Encodes a MoldUDP64 datagram payload carrying the given messages.
std::vector<std::uint8_t> encode_itch_payload(
    const MoldUdp64Header& mold, const std::vector<ItchAddOrder>& messages);

// Decodes a MoldUDP64 payload. A framing error is a coded reject: F008
// truncated header, F009 truncated message length, F010 message length
// past the buffer.
util::Result<ItchPacket> decode_itch_payload_checked(
    std::span<const std::uint8_t> payload);

// decode_itch_payload_checked without the diagnostic: nullopt on reject.
std::optional<ItchPacket> decode_itch_payload(
    std::span<const std::uint8_t> payload);

}  // namespace camus::proto
