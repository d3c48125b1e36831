// Bandwidth-waste experiment (the paper's motivation, §4: "Many financial
// companies subscribe to the Nasdaq feed and broadcast it to all of their
// servers... Typically, each server is only interested in a very small
// subset of stocks. Therefore, broadcasting the feed wastes resources.").
//
// N trading servers each subscribe to a slice of the symbol universe. We
// measure the bytes delivered to servers under (a) broadcast + host
// filtering and (b) Camus switch filtering, at both packet granularity and
// message granularity (the message-splitting mode of the switch).
#include <cstdio>

#include <map>

#include "pubsub/controller.hpp"
#include "pubsub/endpoints.hpp"
#include "spec/itch_spec.hpp"
#include "util/stats.hpp"
#include "workload/feed.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

int main() {
  std::printf("Bandwidth waste: broadcast vs in-network filtering\n");
  std::printf("16 servers, each subscribed to ~6 of 100 symbols\n\n");

  const std::size_t kServers = 16;
  auto symbols = workload::itch_symbols(100);

  pubsub::Controller ctl(spec::make_itch_schema());
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const std::uint16_t server = static_cast<std::uint16_t>(1 + s % kServers);
    auto ok = ctl.subscribe(server, "stock == " + symbols[s]);
    if (!ok.ok()) {
      std::fprintf(stderr, "%s\n", ok.error().to_string().c_str());
      return 1;
    }
  }
  auto sw = ctl.build_switch();
  if (!sw.ok()) {
    std::fprintf(stderr, "%s\n", sw.error().to_string().c_str());
    return 1;
  }

  workload::FeedParams fp;
  fp.seed = 99;
  fp.n_messages = 100000;
  fp.symbols = symbols;
  fp.watched_fraction = 0.01;
  auto feed = workload::generate_feed(fp);

  pubsub::Publisher pub;
  std::uint64_t feed_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t camus_pkt_bytes = 0;   // packet-level filtering
  std::uint64_t camus_msg_bytes = 0;   // message-level splitting
  std::uint64_t camus_pkt_copies = 0, camus_msg_copies = 0;

  // Ground truth: which server wants each symbol.
  std::map<std::string, std::uint16_t> server_of;
  for (std::size_t s = 0; s < symbols.size(); ++s)
    server_of[symbols[s]] = static_cast<std::uint16_t>(1 + s % kServers);

  std::uint64_t total_matches = 0;     // (message, interested server) pairs
  std::uint64_t pkt_delivered = 0;     // pairs delivered, packet mode
  std::uint64_t msg_delivered = 0;     // pairs delivered, splitting mode
  std::uint64_t bcast_packets = 0;

  // Batch several messages per packet: the publisher's natural framing,
  // and the case that separates the two switch modes.
  const std::size_t kBatch = 4;
  for (std::size_t i = 0; i + kBatch <= feed.messages.size(); i += kBatch) {
    std::vector<proto::ItchAddOrder> msgs;
    for (std::size_t k = 0; k < kBatch; ++k)
      msgs.push_back(feed.messages[i + k].msg);
    const auto frame = pub.publish_batch(msgs);
    const std::uint64_t t = feed.messages[i].t_us;
    feed_bytes += frame.size();
    broadcast_bytes += frame.size() * kServers;
    bcast_packets += kServers;
    total_matches += kBatch;  // every symbol has exactly one subscriber

    // Packet granularity: the prototype's parser classifies a packet by
    // its first message; whole-packet copies go to that message's ports.
    for (const auto& copy : sw.value().process(frame, t)) {
      camus_pkt_bytes += frame.size();
      ++camus_pkt_copies;
      for (const auto& m : msgs)
        if (server_of[m.stock] == copy.port) ++pkt_delivered;
    }
    // Message splitting: each server receives exactly its messages.
    const switchsim::Switch::Frame in{frame, t};
    for (const auto& tx : sw.value().process_batch({&in, 1})) {
      camus_msg_bytes += tx.frame.size();
      ++camus_msg_copies;
      auto pkt = proto::decode_market_data_packet(tx.frame);
      if (pkt) msg_delivered += pkt->itch.add_orders.size();
    }
  }

  util::TextTable table({"delivery mode", "bytes to servers", "packets",
                         "vs broadcast", "coverage"});
  auto row = [&](const char* label, std::uint64_t bytes,
                 std::uint64_t copies, std::uint64_t delivered) {
    table.add_row({label, std::to_string(bytes), std::to_string(copies),
                   util::TextTable::fmt(
                       100.0 * static_cast<double>(bytes) /
                           static_cast<double>(broadcast_bytes),
                       1) +
                       "%",
                   util::TextTable::fmt(100.0 *
                                            static_cast<double>(delivered) /
                                            static_cast<double>(total_matches),
                                        1) +
                       "%"});
  };
  row("broadcast to all servers", broadcast_bytes, bcast_packets,
      total_matches);
  row("Camus, packet granularity", camus_pkt_bytes, camus_pkt_copies,
      pkt_delivered);
  row("Camus, message splitting", camus_msg_bytes, camus_msg_copies,
      msg_delivered);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\n'coverage' = interested-(server,message) pairs actually "
      "delivered.\nPacket-granularity filtering (the workshop prototype's "
      "first-message parser)\nremoves the broadcast waste but misses "
      "matches deeper in batched packets;\nmessage splitting delivers "
      "exactly the subscribed content.\n");
  return 0;
}
