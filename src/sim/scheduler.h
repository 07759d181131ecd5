// The discrete-event kernel: a virtual clock and an event queue.
//
// Determinism: events at equal times fire in the order they were scheduled
// (a monotone sequence number breaks ties), so a run is a pure function of
// the seed and the scenario script.
#ifndef VPART_SIM_SCHEDULER_H_
#define VPART_SIM_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace vp::sim {

/// Handle for a scheduled event; used to cancel it. It is the event's
/// (generation, slot) SlotTable handle, never 0.
using EventId = SlotTable::Handle;
inline constexpr EventId kInvalidEvent = SlotTable::kInvalid;

/// Single-threaded discrete-event scheduler.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now (delay >= 0). Returns a handle
  /// that can be passed to Cancel.
  EventId ScheduleAfter(Duration delay, std::function<void()> fn) {
    VP_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  EventId ScheduleAt(SimTime when, std::function<void()> fn) {
    VP_CHECK(when >= now_);
    const EventId id = slots_.Acquire();
    heap_.push_back(Event{when, next_seq_++, SlotTable::SlotOf(id),
                          std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return id;
  }

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a no-op: the handle's generation no longer matches
  /// its slot, even if a later event reuses the slot.
  void Cancel(EventId id) { slots_.Cancel(id); }

  /// True if any (possibly cancelled) event is still queued.
  bool HasWork() const { return !heap_.empty(); }

  /// Pops the next event. If it was cancelled it is discarded without
  /// running and without advancing the clock. Returns false when the queue
  /// is empty.
  bool RunOne();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline`. Returns the number of events executed.
  uint64_t RunUntil(SimTime deadline);

  /// Runs until no events remain (or `max_events` executed, as a runaway
  /// guard). Returns the number of events executed.
  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

  /// Total events executed since construction.
  uint64_t events_executed() const { return executed_; }

  /// Cancelled-but-not-yet-popped events (bounded by queue size; tests use
  /// this to pin the no-leak invariant).
  size_t cancelled_pending() const { return slots_.cancelled(); }

  /// Slots ever allocated: the queue's high-water size, which bounds all
  /// cancellation bookkeeping.
  size_t slot_capacity() const { return slots_.capacity(); }

 private:
  struct Event {
    SimTime when = 0;
    uint64_t seq = 0;  // Scheduling order; breaks ties between equal `when`s.
    uint32_t slot = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among simultaneous events.
    }
  };

  /// Moves the earliest event with `when <= limit` out of the heap into
  /// `*out`, freeing its slot and discarding cancelled events on the way.
  /// Returns false when no live event is due by `limit`.
  bool PopLive(SimTime limit, Event* out);

  SimTime now_ = kSimTimeZero;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  /// Min-heap on (when, seq) via std::push_heap/pop_heap; popped events are
  /// moved out, never copied.
  std::vector<Event> heap_;
  /// One slot per queued event: its generation and cancelled bit.
  SlotTable slots_;
};

}  // namespace vp::sim

#endif  // VPART_SIM_SCHEDULER_H_
