#include "sim/scheduler.h"

#include <utility>

namespace vp::sim {

bool Scheduler::PopLive(SimTime limit, Event* out) {
  while (!heap_.empty() && heap_.front().when <= limit) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    *out = std::move(heap_.back());
    heap_.pop_back();
    if (!slots_.Release(out->slot)) return true;
    out->fn = nullptr;  // Cancelled: drop its captures now.
  }
  return false;
}

bool Scheduler::RunOne() {
  Event ev;
  if (!PopLive(kSimTimeMax, &ev)) return false;
  VP_CHECK(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

uint64_t Scheduler::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (true) {
    Event ev;
    if (!PopLive(deadline, &ev)) break;
    VP_CHECK(ev.when >= now_);
    now_ = ev.when;
    ++executed_;
    ++n;
    ev.fn();
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

uint64_t Scheduler::RunUntilIdle(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && RunOne()) ++n;
  return n;
}

}  // namespace vp::sim
