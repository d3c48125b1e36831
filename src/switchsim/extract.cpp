#include "switchsim/extract.hpp"

namespace camus::switchsim {

namespace {

// Big-endian field offsets inside the 36-byte add-order wire block:
// type(1) locate(2) tracking(2) timestamp(6) order_ref(8) side(1)
// shares(4) stock(8) price(4).
inline constexpr std::size_t kOffLocate = 1;
inline constexpr std::size_t kOffTimestamp = 5;
inline constexpr std::size_t kOffOrderRef = 11;
inline constexpr std::size_t kOffSide = 19;
inline constexpr std::size_t kOffShares = 20;
inline constexpr std::size_t kOffStock = 24;
inline constexpr std::size_t kOffPrice = 32;

inline std::uint64_t read_be(const std::uint8_t* p, unsigned n) noexcept {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

ItchFieldExtractor::ItchFieldExtractor(const spec::Schema& schema) {
  sources_.reserve(schema.fields().size());
  masks_.reserve(schema.fields().size());
  for (const auto& f : schema.fields()) {
    Source s = Source::kZero;
    if (f.name == "shares") s = Source::kShares;
    else if (f.name == "price") s = Source::kPrice;
    else if (f.name == "stock") s = Source::kStock;
    else if (f.name == "side") s = Source::kSide;
    else if (f.name == "timestamp") s = Source::kTimestamp;
    else if (f.name == "order_ref") s = Source::kOrderRef;
    else if (f.name == "locate" || f.name == "stock_locate")
      s = Source::kLocate;
    sources_.push_back(s);
    masks_.push_back(f.umax());
  }
}

std::vector<std::uint64_t> ItchFieldExtractor::extract(
    const proto::ItchAddOrder& msg) const {
  std::vector<std::uint64_t> out;
  extract_into(msg, out);
  return out;
}

void ItchFieldExtractor::extract_into(const proto::ItchAddOrder& msg,
                                      std::vector<std::uint64_t>& out) const {
  out.resize(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    std::uint64_t v = 0;
    switch (sources_[i]) {
      case Source::kZero: break;
      case Source::kShares: v = msg.shares; break;
      case Source::kPrice: v = msg.price; break;
      case Source::kStock: v = msg.stock_key(); break;
      case Source::kSide: v = static_cast<std::uint64_t>(msg.side); break;
      case Source::kTimestamp: v = msg.timestamp_ns; break;
      case Source::kOrderRef: v = msg.order_ref; break;
      case Source::kLocate: v = msg.stock_locate; break;
    }
    out[i] = v & masks_[i];
  }
}

void ItchFieldExtractor::extract_wire(const std::uint8_t* msg,
                                      std::vector<std::uint64_t>& out) const {
  out.resize(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    std::uint64_t v = 0;
    switch (sources_[i]) {
      case Source::kZero: break;
      case Source::kShares: v = read_be(msg + kOffShares, 4); break;
      case Source::kPrice: v = read_be(msg + kOffPrice, 4); break;
      case Source::kStock: v = read_be(msg + kOffStock, 8); break;
      case Source::kSide: v = msg[kOffSide]; break;
      case Source::kTimestamp:
        // decode masks the 48-bit timestamp on the way in; the wire field
        // is 6 bytes, so the masked read matches.
        v = read_be(msg + kOffTimestamp, 6);
        break;
      case Source::kOrderRef: v = read_be(msg + kOffOrderRef, 8); break;
      case Source::kLocate: v = read_be(msg + kOffLocate, 2); break;
    }
    out[i] = v & masks_[i];
  }
}

}  // namespace camus::switchsim
