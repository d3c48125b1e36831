#include "netsim/sim.hpp"

#include <stdexcept>

namespace camus::netsim {

void Simulator::at(double t_us, Callback cb) {
  if (t_us < now_)
    throw std::invalid_argument("Simulator::at: scheduling in the past");
  queue_.push(Event{t_us, next_seq_++, std::move(cb)});
}

void Simulator::run(double until_us) {
  while (!queue_.empty()) {
    if (queue_.top().t > until_us) break;
    // Moving the callback out before popping keeps it alive while it runs
    // (the callback may schedule further events).
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.t;
    ev.cb();
  }
}

}  // namespace camus::netsim
