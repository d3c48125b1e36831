// Discrete-event simulation core for the end-to-end latency experiments
// (Figure 7). Time is in microseconds (double): the latencies of interest
// span ~1us (switch pipeline) to ~100s of us (host queueing), well within
// double precision over experiment horizons of seconds.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace camus::netsim {

class Simulator {
 public:
  using Callback = std::function<void()>;

  double now_us() const noexcept { return now_; }

  // Schedules a callback at absolute time t_us (>= now).
  void at(double t_us, Callback cb);

  // Runs until the event queue is empty or now exceeds until_us.
  void run(double until_us = 1e18);

 private:
  struct Event {
    double t;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// A point-to-point link: serialization at a fixed bandwidth plus constant
// propagation delay, FIFO. transmit() returns the arrival time at the far
// end and advances the link's busy horizon.
class Link {
 public:
  Link(double gbps, double propagation_us)
      : bits_per_us_(gbps * 1e3), prop_us_(propagation_us) {}

  double transmit(double t_ready_us, std::size_t frame_bytes) {
    const double start = t_ready_us > busy_until_ ? t_ready_us : busy_until_;
    const double ser_us = static_cast<double>(frame_bytes) * 8 / bits_per_us_;
    busy_until_ = start + ser_us;
    return busy_until_ + prop_us_;
  }

 private:
  double bits_per_us_;
  double prop_us_;
  double busy_until_ = 0;
};

// A single FIFO server with deterministic per-item service time — models
// the subscriber CPU processing (filtering) incoming messages serially.
// With a finite queue limit, items arriving when the backlog already holds
// `queue_limit` waiting items are dropped (the paper's "broadcasting all
// packets to servers builds queues at switches and servers, which
// increases delay and the chances of packet drops").
class FifoServer {
 public:
  explicit FifoServer(double service_us, std::size_t queue_limit = 0)
      : service_us_(service_us), queue_limit_(queue_limit) {}

  // Returns the completion time of an item arriving at t_us, or a negative
  // value if the queue is full and the item is dropped.
  double serve(double t_us) {
    const double start = t_us > busy_until_ ? t_us : busy_until_;
    if (queue_limit_ != 0 && service_us_ > 0) {
      const double backlog = start - t_us;
      const auto queued =
          static_cast<std::size_t>(backlog / service_us_ + 0.5);
      if (queued > queue_limit_) {
        ++dropped_;
        return -1;
      }
    }
    busy_until_ = start + service_us_;
    return busy_until_;
  }

  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  double service_us_;
  std::size_t queue_limit_;
  double busy_until_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace camus::netsim
