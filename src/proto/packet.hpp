// Full market-data packet assembly: Ethernet / IPv4 / UDP / MoldUDP64 /
// ITCH. This is the wire format the publisher emits, the switch simulator
// parses, and the subscriber consumes.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "proto/headers.hpp"
#include "proto/itch.hpp"
#include "util/result.hpp"

namespace camus::proto {

inline constexpr std::uint16_t kItchUdpPort = 26400;
// UDP destination port for MoldUDP64 retransmission requests (upstream).
inline constexpr std::uint16_t kItchRequestUdpPort = 26401;

struct MarketDataPacket {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;
  ItchPacket itch;
};

// Builds the full frame. IP total length, UDP length, checksums, and the
// MoldUDP message count are computed here.
std::vector<std::uint8_t> encode_market_data_packet(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Header& mold, const std::vector<ItchAddOrder>& messages,
    std::uint16_t udp_dst_port = kItchUdpPort);

// Raw-block variant: the message blocks are spliced in pre-encoded, as
// retransmission replies are served straight from a retransmit store
// without a decode/encode round trip. Seals the UDP checksum.
std::vector<std::uint8_t> encode_market_data_packet_raw(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Header& mold,
    const std::vector<std::vector<std::uint8_t>>& blocks,
    std::uint16_t udp_dst_port = kItchUdpPort);

// Parses a full frame, rejecting anything that is not a well-formed
// UDP/ITCH packet (wrong ethertype, truncated headers, framing errors).
// A reject names the layer that failed with a stable code (F001..F007 for
// the headers, F008..F010 from decode_itch_payload_checked) so feed
// handlers can classify malformed input instead of silently dropping it.
// Packets on other UDP ports still parse — filtering on port is a policy
// decision left to callers.
util::Result<MarketDataPacket> decode_market_data_packet_checked(
    std::span<const std::uint8_t> frame);

// decode_market_data_packet_checked without the diagnostic: nullopt on
// reject.
std::optional<MarketDataPacket> decode_market_data_packet(
    std::span<const std::uint8_t> frame);

// Full frame carrying a MoldUDP64 retransmission request, addressed to
// kItchRequestUdpPort. The UDP checksum is sealed.
std::vector<std::uint8_t> encode_retransmit_request(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Request& req);

// Parses a retransmission-request frame; nullopt when the frame is not a
// well-formed UDP packet on kItchRequestUdpPort carrying a request.
std::optional<MoldUdp64Request> decode_retransmit_request(
    std::span<const std::uint8_t> frame);

// Computes and writes the UDP checksum (RFC 768, IPv4 pseudo-header) of a
// UDP/IPv4 frame in place, so bit-level corruption anywhere in the UDP
// segment is detectable. Returns false (frame untouched) when the frame is
// not UDP/IPv4 or the UDP length is inconsistent.
bool seal_udp_checksum(std::span<std::uint8_t> frame);

// Verifies the UDP checksum of a UDP/IPv4 frame. A zero checksum means
// "not computed" and verifies as true, per RFC 768; a malformed frame
// (not UDP/IPv4, inconsistent lengths) verifies as false so callers treat
// it as loss.
bool verify_udp_checksum(std::span<const std::uint8_t> frame);

// Rewrites the MoldUDP64 sequence field of a market-data frame in place —
// the egress sequencer re-stamps switch output with dense per-port
// sequence numbers. Does NOT reseal the UDP checksum; call
// seal_udp_checksum afterwards. Returns false (frame untouched) when the
// frame is not a UDP/IPv4 packet with a complete MoldUDP64 header.
bool rewrite_mold_sequence(std::span<std::uint8_t> frame,
                           std::uint64_t sequence);

// Bytes of the Ethernet, IPv4 (no options), UDP and MoldUDP64 headers that
// open every re-framed market-data packet.
inline constexpr std::size_t kMarketHeaderSize =
    EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize +
    MoldUdp64Header::kSize;

// Zero-copy parse for the batched fast path: header fields needed to
// re-frame per-port output, without materializing the payload or the
// per-message structs.
struct MarketDataView {
  EthernetHeader eth;
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::uint16_t udp_dst_port = 0;
  MoldUdp64Header mold;
  // The header every egress packet of the frame shares, built once by the
  // scan: the frame's Ethernet header, the canonical IPv4 header
  // Ipv4Header::encode writes for ip_src/ip_dst, UDP from kItchUdpPort to
  // udp_dst_port, and the frame's MoldUDP64 session and sequence. The IPv4
  // total length and checksum, the UDP length and the message count are
  // zero; build_market_frame_raw patches them per packet.
  std::array<std::uint8_t, kMarketHeaderSize> egress_header{};
  // One's-complement sum of egress_header's IPv4 words, not folded: a
  // packet's IPv4 checksum is this plus its total length, folded and
  // complemented.
  std::uint32_t ip_partial_sum = 0;
};

// Scans a frame in place. Returns true exactly when
// decode_market_data_packet would return a packet, filling `view` (its
// egress header included) and appending the frame-relative offset of every
// well-formed 36-byte add-order message (type byte included) to
// `add_order_offsets` — the same messages, in the same order, as
// MarketDataPacket::itch.add_orders. `add_order_offsets` is not cleared
// (callers batch offsets across frames).
bool scan_market_data_packet(std::span<const std::uint8_t> frame,
                             MarketDataView& view,
                             std::vector<std::uint32_t>& add_order_offsets);

// Decodes one add-order message from a frame offset previously produced by
// scan_market_data_packet (bounds already validated by the scan).
ItchAddOrder decode_add_order_at(std::span<const std::uint8_t> frame,
                                 std::uint32_t offset);

// Size in bytes of the frame build_market_frame_raw writes for
// `n_messages` add-orders.
constexpr std::size_t market_frame_raw_size(std::size_t n_messages) {
  return kMarketHeaderSize + n_messages * (2 + ItchAddOrder::kSize);
}

// The one re-framer of the batched path: writes into `out` the exact bytes
// encode_market_data_packet(view.eth, view.ip_src, view.ip_dst, view.mold,
// <decoded messages at msg_offsets>, view.udp_dst_port) would produce. It
// copies view.egress_header, patches the four per-packet fields (the IPv4
// checksum from view.ip_partial_sum, bit-identical to internet_checksum),
// and copies each scanned add-order straight out of the source frame with
// its 2-byte length prefix. Decode->encode round-trips every scanned block
// byte-identically — all fields are full-width big-endian, and the
// trailing-space strip / re-pad of the stock and session strings restores
// the original bytes — so no per-message decode or Writer is needed.
// `msg_offsets` come from scan_market_data_packet on `src_frame`, which
// filled `view`. `out` must be exactly market_frame_raw_size(
// msg_offsets.size()) bytes; nothing is allocated.
void build_market_frame_raw(const MarketDataView& view,
                            std::span<const std::uint8_t> src_frame,
                            std::span<const std::uint32_t> msg_offsets,
                            std::span<std::uint8_t> out);

// The same bytes into a vector, resized to fit.
void build_market_frame_raw(const MarketDataView& view,
                            std::span<const std::uint8_t> src_frame,
                            std::span<const std::uint32_t> msg_offsets,
                            std::vector<std::uint8_t>& out);

}  // namespace camus::proto
