#include "netsim/simulator.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace origin::netsim {

namespace {
constexpr std::size_t kInitialEvents = 64;
}  // namespace

void Simulator::schedule_at(origin::util::SimTime when, Action action) {
  // Events can never fire in the past; clamp to now (zero-delay events are
  // common for immediate callbacks).
  if (when < now_) when = now_;
  if (queue_.size() == queue_.capacity()) {
    // Geometric growth from a small floor: the heap reaches its high-water
    // mark in a few reallocations and keeps that capacity.
    queue_.reserve(std::max<std::size_t>(kInitialEvents, 2 * queue_.size()));
  }
  queue_.push_back(Event{when, next_seq_++, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Simulator::run_one() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  now_ = event.when;
  ++executed_;
  event.action();
  return true;
}

void Simulator::run_until_idle(std::size_t max_events) {
  std::size_t n = 0;
  while (run_one()) {
    if (++n > max_events) {
      ORIGIN_CHECK(false, "netsim: event budget exhausted (scheduling loop?)");
    }
  }
}

void Simulator::run_until(origin::util::SimTime deadline) {
  while (!queue_.empty() && queue_.front().when <= deadline) run_one();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace origin::netsim
