// Generation-checked slots: the cancellation bookkeeping of a timer queue
// without hashing.
//
// Every queued entry owns one slot for as long as it sits in its queue.
// The entry's handle is (generation, slot); cancelling flips the slot's
// cancelled bit after checking that the handle's generation is the slot's
// current one, and the pop that removes the entry frees the slot, bumping
// its generation. A handle kept past its entry's pop (the common "cancel
// my timeout after it fired" pattern) therefore names an older generation
// and cancels nothing, even once the slot is reused by a later entry.
// Freed slots go on a LIFO free list, so the table never holds more slots
// than the queue's high-water size.
//
// Used by sim::Scheduler (one table for the event queue) and by
// runtime::ThreadRuntime (one per shard timer heap). Single-threaded.
#ifndef VPART_SIM_SLOT_TABLE_H_
#define VPART_SIM_SLOT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace vp::sim {

class SlotTable {
 public:
  /// (generation << kSlotBits) | slot. Generations start at 1, so no handle
  /// is 0. Handles fit in 59 bits, leaving ThreadRuntime room for its shard
  /// and kind tags in a 64-bit TaskId.
  using Handle = uint64_t;
  static constexpr int kSlotBits = 24;
  static constexpr int kGenerationBits = 35;
  static constexpr Handle kInvalid = 0;

  static uint32_t SlotOf(Handle h) {
    return static_cast<uint32_t>(h & ((Handle{1} << kSlotBits) - 1));
  }

  /// Takes a slot for a newly queued entry and returns the entry's handle.
  Handle Acquire() {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      VP_CHECK_MSG(slots_.size() < (size_t{1} << kSlotBits),
                   "slot table full: more queued entries than slots");
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.state = kQueued;
    return (s.generation << kSlotBits) | slot;
  }

  /// Marks the entry `h` cancelled. Returns false, changing nothing, when
  /// `h` names no queued entry: invalid, never issued, already cancelled,
  /// or stale (its entry was popped; the slot may hold a newer one).
  bool Cancel(Handle h) {
    const uint32_t slot = SlotOf(h);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.state != kQueued || (h >> kSlotBits) != s.generation) return false;
    s.state = kCancelled;
    ++cancelled_;
    return true;
  }

  /// Frees `slot` as its entry leaves the queue. Returns true iff the entry
  /// had been cancelled (the caller discards it instead of running it).
  bool Release(uint32_t slot) {
    Slot& s = slots_[slot];
    VP_CHECK(s.state != kFree);
    const bool cancelled = s.state == kCancelled;
    if (cancelled) --cancelled_;
    s.state = kFree;
    s.generation = s.generation == kMaxGeneration ? 1 : s.generation + 1;
    free_.push_back(slot);
    return cancelled;
  }

  /// Cancelled entries not yet released.
  size_t cancelled() const { return cancelled_; }
  /// Slots ever allocated: the queue's high-water size.
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr uint64_t kMaxGeneration =
      (uint64_t{1} << kGenerationBits) - 1;
  enum State : uint8_t { kFree, kQueued, kCancelled };
  struct Slot {
    uint64_t generation = 1;
    State state = kFree;
  };

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  size_t cancelled_ = 0;
};

}  // namespace vp::sim

#endif  // VPART_SIM_SLOT_TABLE_H_
