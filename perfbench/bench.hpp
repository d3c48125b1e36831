// Shared declarations of the Camus benchmark (see README.md): the
// workload definitions and their generated inputs, the output checker
// against the brute-force AST oracle, the host-speed calibrator and the
// in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lang/bound.hpp"
#include "spec/schema.hpp"
#include "switchsim/extract.hpp"
#include "switchsim/switch.hpp"
#include "workload/churn.hpp"
#include "workload/feed.hpp"

namespace perfbench {

using namespace camus;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  // Subscription distribution (workload::ItchSubsParams).
  std::size_t n_subs = 0;
  std::size_t n_symbols = 0;
  std::size_t n_hosts = 200;
  // Feed distribution (nasdaq-replay arrivals).
  double zipf_s = 0;
  std::uint64_t price_min = 0;
  std::uint64_t price_max = 0;
  std::size_t feed_msgs = 0;
  // Run shape: updates_per_s x --seconds rounds. In a quiet workload each
  // round first replays the feed under the cold-compiled program for its
  // share of --seconds, and the data-plane figures come from those
  // segments; a churn workload takes them from the batches after each
  // update. Every round then commits and installs one subscribe or
  // unsubscribe op and runs batches_per_update batches on the updated
  // switch (a churn round then forwards, untimed, to the end of its share of
  // --seconds). The round count depends on --seconds only, not on speed: the
  // installed program keeps growing with every delta (multicast groups are
  // not reclaimed), so a speed-dependent count would make memory and
  // data-plane figures depend on how fast the updates ran.
  bool quiet = true;
  double updates_per_s = 0;
  std::size_t updates(double seconds) const noexcept {
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(updates_per_s * seconds + 0.5));
  }
  std::size_t batches_per_update = 0;
};

// Looks a workload up by name; false if unknown. `tiny` shrinks every size
// for the self-test.
bool find_workload(std::string_view name, bool tiny, WorkloadSpec& out);

constexpr std::size_t kMsgsPerFrame = 4;
constexpr std::size_t kBatchFrames = 64;

// Everything the program under test is given, generated from the seed.
struct Inputs {
  workload::ChurnGenerator churn;  // base rules + the op stream
  workload::Feed feed;
  std::vector<workload::PackedFrame> frames;
  // frames sliced into kBatchFrames-frame process_batch calls.
  std::vector<std::vector<switchsim::Switch::Frame>> batches;
  std::vector<std::uint32_t> batch_msgs;  // ingress messages per batch
  std::vector<std::size_t> batch_first;   // feed index of each batch's first

  Inputs(const spec::Schema& schema, const WorkloadSpec& w,
         std::uint64_t seed);
};

// --- output checking --------------------------------------------------------

// Compares a batch's egress with lang::brute_eval_rules over the rules live
// at that batch, for every ingress message of the batch.
class Checker {
 public:
  Checker(const spec::Schema& schema, const workload::Feed& feed,
          bool perturb);

  // Checks every ingress message of batch `b`. Returns the number of
  // messages that disagreed plus egress packets that are not one of the
  // batch's messages.
  std::size_t check(const Inputs& in, std::size_t b,
                    const std::vector<switchsim::Switch::TxPacket>& egress,
                    const std::vector<lang::BoundRule>& live);

  std::uint64_t checked() const noexcept { return checked_; }

 private:
  switchsim::ItchFieldExtractor extractor_;
  const workload::Feed& feed_;
  // Self-test hook: corrupts the first expected port set, so a run must
  // report a failure.
  bool perturb_;
  std::uint64_t checked_ = 0;
};

// Order-sensitive digest of a batch's egress (port, frame bytes).
std::uint64_t egress_digest(
    const std::vector<switchsim::Switch::TxPacket>& egress,
    std::uint64_t seed = 0xcbf29ce484222325ULL);

// --- host-speed calibration -------------------------------------------------

// A fixed kernel that belongs to the benchmark, not to the program under
// test: FNV-1a over 8 bytes of every 48-byte record of a 1 MiB buffer, a
// 4,096-slot table probe and a 36-byte copy for about a quarter of the
// records, four passes. On a shared host its time moves with the speed the
// host gives this core (cache and memory contention from other tenants), as
// the data plane's does. sample() runs it once and returns the factor
// kNominalNs / (median of its last kWindow times); a time measured right
// after it, multiplied by the factor, reads as if the host ran at the speed
// at which the kernel takes exactly kNominalNs.
class Calibrator {
 public:
  static constexpr double kNominalNs = 1e6;
  static constexpr std::size_t kWindow = 5;

  Calibrator();
  double sample();
  // Median kernel time over every sample of the run, in ns.
  double median_ns() const;
  std::uint64_t sink() const noexcept { return sink_; }

 private:
  std::vector<std::uint8_t> buf_, out_;
  std::vector<std::uint64_t> slots_;
  std::vector<double> times_;
  std::uint64_t sink_ = 0;
};

// --- tracing ----------------------------------------------------------------

// In-memory spans: name, start, end, parent span and the id of the batch or
// update the span belongs to. Self time (duration minus the part covered by
// child spans) is accumulated per name as spans close; the first
// `keep_limit` spans are kept verbatim and written out by flush().
class Tracer {
 public:
  explicit Tracer(std::size_t keep_limit) : keep_limit_(keep_limit) {}

  void begin(const char* name, std::uint64_t id);
  void end();

  // Sum of self time over every closed span of this name, in ns.
  double self_ns(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  // Writes the kept spans as JSON lines; false on I/O error.
  bool flush(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t parent;  // index into kept_, -1 for none / not kept
    std::int64_t kept;    // own index into kept_, -1 when not kept
  };
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t end;
    std::int64_t parent;
  };
  struct Total {
    double self_ns = 0;
    std::size_t count = 0;
  };
  std::size_t keep_limit_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::map<std::string, Total> totals_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t id) : t_(t) {
    if (t_) t_->begin(name, id);
  }
  ~Scope() {
    if (t_) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
