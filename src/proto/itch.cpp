#include "proto/itch.hpp"

#include <array>

#include "util/intern.hpp"

namespace camus::proto {

void MoldUdp64Header::encode(Writer& w) const {
  w.fixed_string(session, 10);
  w.u64(sequence);
  w.u16(message_count);
}

bool MoldUdp64Header::decode(Reader& r) {
  std::array<std::uint8_t, 10> sess{};
  if (!r.bytes(sess)) return false;
  session.assign(sess.begin(), sess.end());
  // Strip trailing spaces for convenience; encode re-pads.
  while (!session.empty() && session.back() == ' ') session.pop_back();
  return r.u64(sequence) && r.u16(message_count);
}

void MoldUdp64Request::encode(Writer& w) const {
  w.fixed_string(session, 10);
  w.u64(sequence);
  w.u16(count);
}

bool MoldUdp64Request::decode(Reader& r) {
  std::array<std::uint8_t, 10> sess{};
  if (!r.bytes(sess)) return false;
  session.assign(sess.begin(), sess.end());
  while (!session.empty() && session.back() == ' ') session.pop_back();
  return r.u64(sequence) && r.u16(count);
}

void ItchAddOrder::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kItchAddOrder));
  w.u16(stock_locate);
  w.u16(tracking);
  w.u48(timestamp_ns & 0xffffffffffffULL);
  w.u64(order_ref);
  w.u8(static_cast<std::uint8_t>(side));
  w.u32(shares);
  w.fixed_string(stock, 8);
  w.u32(price);
}

bool ItchAddOrder::decode(Reader& r) {
  std::uint8_t type = 0;
  if (!r.u8(type) || type != static_cast<std::uint8_t>(kItchAddOrder))
    return false;
  std::uint8_t side_byte = 0;
  std::array<std::uint8_t, 8> sym{};
  if (!(r.u16(stock_locate) && r.u16(tracking) && r.u48(timestamp_ns) &&
        r.u64(order_ref) && r.u8(side_byte) && r.u32(shares) &&
        r.bytes(sym) && r.u32(price)))
    return false;
  side = static_cast<char>(side_byte);
  if (side != 'B' && side != 'S') return false;
  stock.assign(sym.begin(), sym.end());
  while (!stock.empty() && stock.back() == ' ') stock.pop_back();
  return true;
}

std::uint64_t ItchAddOrder::stock_key() const {
  return util::encode_symbol(stock);
}

void ItchOrderExecuted::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kItchOrderExecuted));
  w.u16(stock_locate);
  w.u16(tracking);
  w.u48(timestamp_ns & 0xffffffffffffULL);
  w.u64(order_ref);
  w.u32(executed_shares);
  w.u64(match_number);
}

bool ItchOrderExecuted::decode(Reader& r) {
  std::uint8_t type = 0;
  if (!r.u8(type) || type != static_cast<std::uint8_t>(kItchOrderExecuted))
    return false;
  return r.u16(stock_locate) && r.u16(tracking) && r.u48(timestamp_ns) &&
         r.u64(order_ref) && r.u32(executed_shares) && r.u64(match_number);
}

void ItchTrade::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kItchTrade));
  w.u16(stock_locate);
  w.u16(tracking);
  w.u48(timestamp_ns & 0xffffffffffffULL);
  w.u64(order_ref);
  w.u8(static_cast<std::uint8_t>(side));
  w.u32(shares);
  w.fixed_string(stock, 8);
  w.u32(price);
  w.u64(match_number);
}

bool ItchTrade::decode(Reader& r) {
  std::uint8_t type = 0;
  if (!r.u8(type) || type != static_cast<std::uint8_t>(kItchTrade))
    return false;
  std::uint8_t side_byte = 0;
  std::array<std::uint8_t, 8> sym{};
  if (!(r.u16(stock_locate) && r.u16(tracking) && r.u48(timestamp_ns) &&
        r.u64(order_ref) && r.u8(side_byte) && r.u32(shares) &&
        r.bytes(sym) && r.u32(price) && r.u64(match_number)))
    return false;
  side = static_cast<char>(side_byte);
  stock.assign(sym.begin(), sym.end());
  while (!stock.empty() && stock.back() == ' ') stock.pop_back();
  return true;
}

void ItchOrderCancel::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kItchOrderCancel));
  w.u16(stock_locate);
  w.u16(tracking);
  w.u48(timestamp_ns & 0xffffffffffffULL);
  w.u64(order_ref);
  w.u32(cancelled_shares);
}

bool ItchOrderCancel::decode(Reader& r) {
  std::uint8_t type = 0;
  if (!r.u8(type) || type != static_cast<std::uint8_t>(kItchOrderCancel))
    return false;
  return r.u16(stock_locate) && r.u16(tracking) && r.u48(timestamp_ns) &&
         r.u64(order_ref) && r.u32(cancelled_shares);
}

namespace {
template <typename Msg>
std::vector<std::uint8_t> encode_one(const Msg& m) {
  Writer w;
  m.encode(w);
  return w.take();
}
}  // namespace

std::vector<std::uint8_t> encode_itch_message(const ItchAddOrder& m) {
  return encode_one(m);
}
std::vector<std::uint8_t> encode_itch_message(const ItchOrderExecuted& m) {
  return encode_one(m);
}
std::vector<std::uint8_t> encode_itch_message(const ItchTrade& m) {
  return encode_one(m);
}
std::vector<std::uint8_t> encode_itch_message(const ItchOrderCancel& m) {
  return encode_one(m);
}

std::vector<std::uint8_t> encode_itch_payload_raw(
    const MoldUdp64Header& mold,
    const std::vector<std::vector<std::uint8_t>>& messages) {
  Writer w;
  MoldUdp64Header hdr = mold;
  hdr.message_count = static_cast<std::uint16_t>(messages.size());
  hdr.encode(w);
  for (const auto& m : messages) {
    w.u16(static_cast<std::uint16_t>(m.size()));
    w.bytes(m);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_itch_payload(
    const MoldUdp64Header& mold, const std::vector<ItchAddOrder>& messages) {
  Writer w;
  MoldUdp64Header hdr = mold;
  hdr.message_count = static_cast<std::uint16_t>(messages.size());
  hdr.encode(w);
  for (const auto& m : messages) {
    w.u16(static_cast<std::uint16_t>(ItchAddOrder::kSize));
    m.encode(w);
  }
  return w.take();
}

util::Result<ItchPacket> decode_itch_payload_checked(
    std::span<const std::uint8_t> payload) {
  const auto fail = [](const char* code, const char* msg) {
    return util::Error(msg, 0, 0, code);
  };
  Reader r(payload);
  ItchPacket pkt;
  if (!pkt.mold.decode(r)) return fail("F008", "truncated MoldUDP64 header");
  for (std::uint16_t i = 0; i < pkt.mold.message_count; ++i) {
    std::uint16_t len = 0;
    if (!r.u16(len)) return fail("F009", "truncated MoldUDP64 message length");
    if (r.remaining() < len)
      return fail("F010", "MoldUDP64 message overruns payload");
    const char type =
        len > 0 ? static_cast<char>(payload[r.position()]) : '\0';
    if (type == kItchAddOrder && len == ItchAddOrder::kSize) {
      ItchAddOrder msg;
      const std::size_t before = r.position();
      if (msg.decode(r)) {
        pkt.add_orders.push_back(std::move(msg));
        continue;
      }
      // Malformed body: skip the declared length from where it started.
      const std::size_t consumed = r.position() - before;
      if (!r.skip(len - consumed))
        return fail("F010", "MoldUDP64 message overruns payload");
      ++pkt.skipped_messages;
    } else {
      if (!r.skip(len))
        return fail("F010", "MoldUDP64 message overruns payload");
      if (type == kItchOrderExecuted && len == ItchOrderExecuted::kSize)
        ++pkt.executed_messages;
      else if (type == kItchTrade && len == ItchTrade::kSize)
        ++pkt.trade_messages;
      else if (type == kItchOrderCancel && len == ItchOrderCancel::kSize)
        ++pkt.cancel_messages;
      else
        ++pkt.skipped_messages;
    }
  }
  return pkt;
}

std::optional<ItchPacket> decode_itch_payload(
    std::span<const std::uint8_t> payload) {
  auto pkt = decode_itch_payload_checked(payload);
  if (!pkt.ok()) return std::nullopt;
  return std::move(pkt).take();
}

}  // namespace camus::proto
