#include <cstring>

#include "bench.hpp"

namespace perfbench {

Calibrator::Calibrator() : buf_(1 << 20), out_(1 << 16), slots_(4096) {
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  for (auto& b : buf_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 11);
  }
}

double Calibrator::sample() {
  constexpr std::size_t kRecord = 48, kCopy = 36;
  const std::int64_t t0 = now_ns();
  std::size_t o = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t off = 0; off + kRecord <= buf_.size(); off += kRecord) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::size_t k = 0; k < 8; ++k)
        h = (h ^ buf_[off + 11 + k]) * 0x100000001b3ULL;
      std::uint64_t& slot = slots_[h & (slots_.size() - 1)];
      if (slot == h || (h & 3) == 0) {
        std::memcpy(&out_[o], &buf_[off], kCopy);
        o = o + 2 * kCopy > out_.size() ? 0 : o + kCopy;
      }
      slot = h;
      sink_ += h;
    }
  }
  times_.push_back(static_cast<double>(now_ns() - t0));
  const std::size_t n = std::min(times_.size(), kWindow);
  return kNominalNs /
         median(std::vector<double>(
             times_.end() - static_cast<std::ptrdiff_t>(n), times_.end()));
}

double Calibrator::median_ns() const { return median(times_); }

}  // namespace perfbench
