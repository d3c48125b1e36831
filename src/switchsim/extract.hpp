// Field extraction: builds the Env.fields vector the compiled pipeline
// matches on from a decoded ITCH add-order message, driven by the schema's
// field names (the spec's header declarations are the parser
// configuration, mirroring the paper's static compilation step).
#pragma once

#include <cstdint>
#include <vector>

#include "lang/bound.hpp"
#include "proto/itch.hpp"
#include "spec/schema.hpp"

namespace camus::switchsim {

class ItchFieldExtractor {
 public:
  explicit ItchFieldExtractor(const spec::Schema& schema);

  // Values for every schema field, in field-id order. Field names map to
  // add-order attributes: shares, price, stock (8-byte symbol encoding),
  // side ('B'/'S' byte), timestamp, order_ref, locate. Names with no
  // add-order counterpart read 0.
  std::vector<std::uint64_t> extract(const proto::ItchAddOrder& msg) const;

  // Allocation-free variant for hot loops: resizes `out` to the field
  // count and overwrites it. Bit-identical to extract().
  void extract_into(const proto::ItchAddOrder& msg,
                    std::vector<std::uint64_t>& out) const;

  // Zero-copy variant for the batched fast path: reads straight from a
  // well-formed 36-byte add-order wire block (type byte included) as
  // validated by proto::scan_market_data_packet. Bit-identical to
  // decoding the block and calling extract() on it — in particular the
  // raw 8 stock bytes big-endian equal ItchAddOrder::stock_key(), because
  // the wire symbol field is space-padded exactly like
  // util::encode_symbol's padding.
  void extract_wire(const std::uint8_t* msg,
                    std::vector<std::uint64_t>& out) const;

  std::size_t field_count() const noexcept { return sources_.size(); }

 private:
  enum class Source : std::uint8_t {
    kZero,
    kShares,
    kPrice,
    kStock,
    kSide,
    kTimestamp,
    kOrderRef,
    kLocate,
  };
  std::vector<Source> sources_;  // per field id
  std::vector<std::uint64_t> masks_;
};

}  // namespace camus::switchsim
