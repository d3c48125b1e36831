#include "proto/packet.hpp"

#include <algorithm>
#include <cstring>

namespace camus::proto {

std::vector<std::uint8_t> encode_market_data_packet(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Header& mold, const std::vector<ItchAddOrder>& messages,
    std::uint16_t udp_dst_port) {
  const std::vector<std::uint8_t> payload =
      encode_itch_payload(mold, messages);

  Writer w;
  eth.encode(w);

  Ipv4Header ip;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.total_len = static_cast<std::uint16_t>(Ipv4Header::kSize +
                                            UdpHeader::kSize + payload.size());
  ip.encode(w);

  UdpHeader udp;
  udp.src_port = kItchUdpPort;
  udp.dst_port = udp_dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.encode(w);

  w.bytes(payload);
  return w.take();
}

std::optional<MarketDataPacket> decode_market_data_packet(
    std::span<const std::uint8_t> frame) {
  auto pkt = decode_market_data_packet_checked(frame);
  if (!pkt.ok()) return std::nullopt;
  return std::move(pkt).take();
}

namespace {

inline std::uint64_t read_be(const std::uint8_t* p, unsigned n) noexcept {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

inline void write_be(std::uint8_t* p, std::uint64_t v, unsigned n) noexcept {
  for (unsigned i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * (n - 1 - i)));
}

// Adds the big-endian 16-bit words of p[0, n) to a one's-complement
// accumulator, without folding.
std::uint32_t ones_acc(const std::uint8_t* p, std::size_t n,
                       std::uint32_t acc) {
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    acc += (static_cast<std::uint32_t>(p[i]) << 8) | p[i + 1];
  if (i < n) acc += static_cast<std::uint32_t>(p[i]) << 8;
  return acc;
}

}  // namespace

bool scan_market_data_packet(std::span<const std::uint8_t> frame,
                             MarketDataView& view,
                             std::vector<std::uint32_t>& add_order_offsets) {
  // Layer headers: the accept/reject rules below mirror
  // decode_market_data_packet step for step (differential-tested), minus
  // the payload copy and per-message struct construction.
  const std::uint8_t* p = frame.data();
  std::size_t len = frame.size();
  if (len < EthernetHeader::kSize) return false;
  view.eth.dst = read_be(p, 6);
  view.eth.src = read_be(p + 6, 6);
  view.eth.ether_type = static_cast<std::uint16_t>(read_be(p + 12, 2));
  if (view.eth.ether_type != kEtherTypeIpv4) return false;
  std::size_t off = EthernetHeader::kSize;

  if (len - off < Ipv4Header::kSize) return false;
  const std::uint8_t ver_ihl = p[off];
  if ((ver_ihl >> 4) != 4) return false;
  const std::size_t ihl_bytes = static_cast<std::size_t>(ver_ihl & 0xf) * 4;
  if (ihl_bytes < Ipv4Header::kSize) return false;
  if (len - off < ihl_bytes) return false;
  // Checksum mismatches are not rejected, matching Ipv4Header::decode.
  if (p[off + 9] != kIpProtoUdp) return false;
  const std::uint8_t* ip_addrs = p + off + 12;  // source, then destination
  view.ip_src = static_cast<std::uint32_t>(read_be(ip_addrs, 4));
  view.ip_dst = static_cast<std::uint32_t>(read_be(ip_addrs + 4, 4));
  off += ihl_bytes;

  if (len - off < UdpHeader::kSize) return false;
  const std::uint8_t* udp_dst = p + off + 2;
  view.udp_dst_port = static_cast<std::uint16_t>(read_be(udp_dst, 2));
  const auto udp_len = static_cast<std::uint16_t>(read_be(p + off + 4, 2));
  off += UdpHeader::kSize;
  if (udp_len < UdpHeader::kSize) return false;
  const std::size_t payload_len = udp_len - UdpHeader::kSize;
  if (len - off < payload_len) return false;
  const std::size_t payload_end = off + payload_len;  // trailing bytes ignored

  // MoldUDP64 header.
  if (payload_end - off < MoldUdp64Header::kSize) return false;
  const std::uint8_t* mold = p + off;
  view.mold.session.assign(reinterpret_cast<const char*>(p + off), 10);
  while (!view.mold.session.empty() && view.mold.session.back() == ' ')
    view.mold.session.pop_back();
  view.mold.sequence = read_be(p + off + 10, 8);
  view.mold.message_count = static_cast<std::uint16_t>(read_be(p + off + 18, 2));
  off += MoldUdp64Header::kSize;

  for (std::uint16_t i = 0; i < view.mold.message_count; ++i) {
    if (payload_end - off < 2) return false;
    const auto msg_len = static_cast<std::uint16_t>(read_be(p + off, 2));
    off += 2;
    if (payload_end - off < msg_len) return false;
    // A well-formed add-order is exactly kSize bytes of type 'A' with a
    // valid side byte; anything else (including an 'A' block with a bad
    // side) is skipped, as in decode_itch_payload.
    if (msg_len == ItchAddOrder::kSize &&
        p[off] == static_cast<std::uint8_t>(kItchAddOrder)) {
      const std::uint8_t side = p[off + 19];
      if (side == 'B' || side == 'S')
        add_order_offsets.push_back(static_cast<std::uint32_t>(off));
    }
    off += msg_len;
  }

  // The egress header, field for field what encode_market_data_packet
  // writes for this view, with the per-packet fields left zero.
  std::uint8_t* h = view.egress_header.data();
  std::memcpy(h, p, EthernetHeader::kSize);
  std::uint8_t* ip = h + EthernetHeader::kSize;
  ip[0] = 0x45;                 // version 4, IHL 5
  ip[1] = 0;                    // diffserv
  write_be(ip + 2, 0, 2);       // total length: per packet
  write_be(ip + 4, 0, 2);       // identification
  write_be(ip + 6, 0x4000, 2);  // flags: don't fragment
  ip[8] = 64;                   // default ttl
  ip[9] = kIpProtoUdp;
  write_be(ip + 10, 0, 2);      // checksum: per packet
  std::memcpy(ip + 12, ip_addrs, 8);
  std::uint8_t* udp = ip + Ipv4Header::kSize;
  write_be(udp, kItchUdpPort, 2);
  std::memcpy(udp + 2, udp_dst, 2);
  write_be(udp + 4, 0, 4);  // length: per packet; checksum not computed
  // Session and sequence as on the wire: the decoder's trailing-space
  // strip and the encoder's re-pad restore the same ten session bytes.
  std::memcpy(udp + UdpHeader::kSize, mold, 18);
  write_be(udp + UdpHeader::kSize + 18, 0, 2);  // message count: per packet
  view.ip_partial_sum = ones_acc(ip, Ipv4Header::kSize, 0);
  return true;
}

ItchAddOrder decode_add_order_at(std::span<const std::uint8_t> frame,
                                 std::uint32_t offset) {
  Reader r(frame.subspan(offset, ItchAddOrder::kSize));
  ItchAddOrder msg;
  const bool ok = msg.decode(r);
  (void)ok;  // the scan validated the block
  return msg;
}

void build_market_frame_raw(const MarketDataView& view,
                            std::span<const std::uint8_t> src_frame,
                            std::span<const std::uint32_t> msg_offsets,
                            std::span<std::uint8_t> out) {
  constexpr std::size_t kBlock = 2 + ItchAddOrder::kSize;
  const std::size_t payload =
      MoldUdp64Header::kSize + msg_offsets.size() * kBlock;
  // Lengths and count wrap to 16 bits, as in encode_market_data_packet.
  const auto ip_len = static_cast<std::uint16_t>(Ipv4Header::kSize +
                                                 UdpHeader::kSize + payload);
  std::uint32_t sum = view.ip_partial_sum + ip_len;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);

  std::uint8_t* p = out.data();
  std::memcpy(p, view.egress_header.data(), kMarketHeaderSize);
  std::uint8_t* ip = p + EthernetHeader::kSize;
  write_be(ip + 2, ip_len, 2);
  write_be(ip + 10, ~sum, 2);
  std::uint8_t* udp = ip + Ipv4Header::kSize;
  write_be(udp + 4, UdpHeader::kSize + payload, 2);
  write_be(udp + UdpHeader::kSize + 18, msg_offsets.size(), 2);

  // The scan accepted each block only behind a length prefix of
  // ItchAddOrder::kSize, so prefix and block are copied together.
  std::uint8_t* q = p + kMarketHeaderSize;
  for (std::uint32_t off : msg_offsets) {
    std::memcpy(q, src_frame.data() + off - 2, kBlock);
    q += kBlock;
  }
}

void build_market_frame_raw(const MarketDataView& view,
                            std::span<const std::uint8_t> src_frame,
                            std::span<const std::uint32_t> msg_offsets,
                            std::vector<std::uint8_t>& out) {
  out.resize(market_frame_raw_size(msg_offsets.size()));
  build_market_frame_raw(view, src_frame, msg_offsets, std::span(out));
}

namespace {

// Locates the UDP segment of an IPv4/UDP frame: byte offsets of the IPv4
// header and the UDP header, plus the UDP length (header + payload).
// False for non-UDP/IPv4 frames and frames shorter than their UDP length.
bool locate_udp(std::span<const std::uint8_t> frame, std::size_t* ip_off_out,
                std::size_t* udp_off_out, std::size_t* udp_len_out) {
  if (frame.size() <
      EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize)
    return false;
  const std::uint8_t* p = frame.data();
  if (read_be(p + 12, 2) != kEtherTypeIpv4) return false;
  const std::size_t ip_off = EthernetHeader::kSize;
  const std::uint8_t ver_ihl = p[ip_off];
  if ((ver_ihl >> 4) != 4) return false;
  const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0xf) * 4;
  if (ihl < Ipv4Header::kSize) return false;
  if (frame.size() < ip_off + ihl + UdpHeader::kSize) return false;
  if (p[ip_off + 9] != kIpProtoUdp) return false;
  const std::size_t udp_off = ip_off + ihl;
  const auto udp_len = static_cast<std::size_t>(read_be(p + udp_off + 4, 2));
  if (udp_len < UdpHeader::kSize) return false;
  if (frame.size() < udp_off + udp_len) return false;
  *ip_off_out = ip_off;
  *udp_off_out = udp_off;
  *udp_len_out = udp_len;
  return true;
}

// RFC 768 checksum over the IPv4 pseudo-header and the UDP segment, with
// the checksum field itself read as zero. 0x0000 results are mapped to
// 0xffff — zero on the wire means "not computed".
std::uint16_t udp_checksum_value(std::span<const std::uint8_t> frame,
                                 std::size_t ip_off, std::size_t udp_off,
                                 std::size_t udp_len) {
  const std::uint8_t* p = frame.data();
  std::uint32_t acc = 0;
  acc = ones_acc(p + ip_off + 12, 8, acc);  // src + dst addresses
  acc += kIpProtoUdp;
  acc += static_cast<std::uint32_t>(udp_len);
  acc = ones_acc(p + udp_off, 6, acc);  // ports + length, skip checksum
  acc = ones_acc(p + udp_off + UdpHeader::kSize, udp_len - UdpHeader::kSize,
                 acc);
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  const auto sum = static_cast<std::uint16_t>(~acc & 0xffff);
  return sum == 0 ? 0xffff : sum;
}

}  // namespace

bool seal_udp_checksum(std::span<std::uint8_t> frame) {
  std::size_t ip_off = 0, udp_off = 0, udp_len = 0;
  if (!locate_udp(frame, &ip_off, &udp_off, &udp_len)) return false;
  const std::uint16_t sum =
      udp_checksum_value(frame, ip_off, udp_off, udp_len);
  write_be(frame.data() + udp_off + 6, sum, 2);
  return true;
}

bool verify_udp_checksum(std::span<const std::uint8_t> frame) {
  std::size_t ip_off = 0, udp_off = 0, udp_len = 0;
  if (!locate_udp(frame, &ip_off, &udp_off, &udp_len)) return false;
  const auto stored =
      static_cast<std::uint16_t>(read_be(frame.data() + udp_off + 6, 2));
  if (stored == 0) return true;  // unsealed: unverified, accepted
  return udp_checksum_value(frame, ip_off, udp_off, udp_len) == stored;
}

bool rewrite_mold_sequence(std::span<std::uint8_t> frame,
                           std::uint64_t sequence) {
  std::size_t ip_off = 0, udp_off = 0, udp_len = 0;
  if (!locate_udp(frame, &ip_off, &udp_off, &udp_len)) return false;
  if (udp_len < UdpHeader::kSize + MoldUdp64Header::kSize) return false;
  write_be(frame.data() + udp_off + UdpHeader::kSize + 10, sequence, 8);
  return true;
}

std::vector<std::uint8_t> encode_market_data_packet_raw(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Header& mold,
    const std::vector<std::vector<std::uint8_t>>& blocks,
    std::uint16_t udp_dst_port) {
  const std::vector<std::uint8_t> payload =
      encode_itch_payload_raw(mold, blocks);

  Writer w;
  eth.encode(w);

  Ipv4Header ip;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.total_len = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  ip.encode(w);

  UdpHeader udp;
  udp.src_port = kItchUdpPort;
  udp.dst_port = udp_dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.encode(w);

  w.bytes(payload);
  std::vector<std::uint8_t> frame = w.take();
  seal_udp_checksum(frame);
  return frame;
}

std::vector<std::uint8_t> encode_retransmit_request(
    const EthernetHeader& eth, std::uint32_t ip_src, std::uint32_t ip_dst,
    const MoldUdp64Request& req) {
  Writer pw;
  req.encode(pw);
  const std::vector<std::uint8_t> payload = pw.take();

  Writer w;
  eth.encode(w);

  Ipv4Header ip;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.total_len = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  ip.encode(w);

  UdpHeader udp;
  udp.src_port = kItchRequestUdpPort;
  udp.dst_port = kItchRequestUdpPort;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.encode(w);

  w.bytes(payload);
  std::vector<std::uint8_t> frame = w.take();
  seal_udp_checksum(frame);
  return frame;
}

std::optional<MoldUdp64Request> decode_retransmit_request(
    std::span<const std::uint8_t> frame) {
  Reader r(frame);
  EthernetHeader eth;
  if (!eth.decode(r) || eth.ether_type != kEtherTypeIpv4) return std::nullopt;
  Ipv4Header ip;
  if (!ip.decode(r) || ip.protocol != kIpProtoUdp) return std::nullopt;
  UdpHeader udp;
  if (!udp.decode(r) || udp.dst_port != kItchRequestUdpPort)
    return std::nullopt;
  if (udp.length < UdpHeader::kSize + MoldUdp64Request::kSize)
    return std::nullopt;
  MoldUdp64Request req;
  if (!req.decode(r)) return std::nullopt;
  return req;
}

util::Result<MarketDataPacket> decode_market_data_packet_checked(
    std::span<const std::uint8_t> frame) {
  const auto fail = [](const char* code, const char* msg) {
    return util::Error(msg, 0, 0, code);
  };
  Reader r(frame);
  MarketDataPacket pkt;
  if (!pkt.eth.decode(r)) return fail("F001", "truncated Ethernet header");
  if (pkt.eth.ether_type != kEtherTypeIpv4)
    return fail("F002", "ether_type is not IPv4");
  if (!pkt.ip.decode(r))
    return fail("F003", "truncated or malformed IPv4 header");
  if (pkt.ip.protocol != kIpProtoUdp)
    return fail("F004", "IP protocol is not UDP");
  if (!pkt.udp.decode(r)) return fail("F005", "truncated UDP header");
  if (pkt.udp.length < UdpHeader::kSize)
    return fail("F006", "UDP length shorter than its header");
  const std::size_t payload_len = pkt.udp.length - UdpHeader::kSize;
  if (r.remaining() < payload_len)
    return fail("F007", "UDP payload truncated");

  std::vector<std::uint8_t> payload(payload_len);
  if (!r.bytes(payload)) return fail("F007", "UDP payload truncated");
  auto itch = decode_itch_payload_checked(payload);
  if (!itch.ok()) return itch.error();
  pkt.itch = std::move(itch).take();
  return pkt;
}

}  // namespace camus::proto
