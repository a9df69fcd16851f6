// Discrete-event simulator: a clock plus an ordered event queue.
//
// All timing in the reproduction — DNS latency, TCP/TLS handshakes, request
// waterfalls, page-load times — advances this virtual clock, so experiment
// results are bit-identical across runs and machines.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"

namespace origin::netsim {

class Simulator {
 public:
  using Action = std::function<void()>;

  origin::util::SimTime now() const { return now_; }

  void schedule_at(origin::util::SimTime when, Action action);
  void schedule(origin::util::Duration delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  // Runs the next event; false when the queue is empty.
  bool run_one();

  // Runs events until the queue drains (or the safety cap trips, which
  // indicates a scheduling loop and fails loudly).
  void run_until_idle(std::size_t max_events = 10'000'000);

  // Runs events with timestamps <= `deadline`, then sets the clock to it.
  void run_until(origin::util::SimTime deadline);

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    origin::util::SimTime when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // A binary heap under Later (std::push_heap/pop_heap): the earliest
  // event is at the front, and run_one moves it out instead of copying
  // its closure.
  std::vector<Event> queue_;
  origin::util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace origin::netsim
