// Causal tracing: every logical transaction (and every view-change
// attempt) gets a trace id that rides along on net::Message.trace through
// physical operations, 2PC messages, and reliable-channel retransmits, and
// the instrumented components emit spans keyed by that id.
//
// Span taxonomy (cat / name):
//   * txn  / "txn"              — async span, Begin → Decide, coordinator.
//   * txn  / "2pc.outcome"      — async span, decision broadcast → last
//                                 participant ack (presumed-abort phase 2).
//   * phys / "phys.read"/"phys.write" — complete events at the
//                                 coordinator, issue → reply.
//   * rel  / "rel.retransmit"   — instant event per retransmission,
//                                 carrying the trace id of the payload it
//                                 repeats (this is what makes retransmit
//                                 storms attributable to transactions).
//   * vp   / "vp.view_change"   — async span, invitation (kNewVp received
//                                 or creation started) → copy-update
//                                 complete (R5 recovery drained).
//   * vp   / "vp.join"          — instant event at CommitToVp.
//
// Output is Chrome trace_event JSON ({"traceEvents": [...]}), loadable in
// Perfetto / chrome://tracing. pid and tid are both the processor id, ts is
// runtime time in microseconds (simulated or steady-clock — both backends
// already share the unit).
//
// The tracer is disabled by default and all record calls early-return, so
// instrumentation is near-free when idle; trace ids are only assigned
// (NewTraceId() returns nonzero) while enabled. Event recording takes a
// mutex — acceptable because tracing is an opt-in diagnostic mode, not an
// always-on path.
#ifndef VPART_OBS_TRACE_H_
#define VPART_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace vp::obs {

struct TraceEvent {
  char phase = 'i';  // 'X' complete, 'b'/'e' async begin/end, 'i' instant
  uint64_t id = 0;   // trace id; pairs async begin/end (with cat + name)
  ProcessorId proc = 0;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;  // complete events only
  std::string name;
  std::string cat;
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Fresh nonzero trace id while enabled; 0 (meaning "untraced") when
  /// disabled, so disabled runs carry no ids at all.
  uint64_t NewTraceId() {
    if (!enabled()) return 0;
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  using Args = std::vector<std::pair<std::string, std::string>>;

  void Complete(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                uint64_t dur_us, std::string name, std::string cat,
                Args args = {});
  void AsyncBegin(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                  std::string name, std::string cat, Args args = {});
  void AsyncEnd(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                std::string name, std::string cat, Args args = {});
  void Instant(uint64_t trace, ProcessorId proc, uint64_t ts_us,
               std::string name, std::string cat, Args args = {});

  size_t event_count() const;
  /// Snapshot of the recorded events (test and tooling introspection).
  std::vector<TraceEvent> events() const;
  /// Chrome trace_event JSON document.
  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

  /// Process-global always-disabled tracer: the fallback for components
  /// constructed without an explicit tracer, so call sites never
  /// null-check.
  static Tracer* Disabled();

 private:
  void Record(TraceEvent e);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  /// A deque, not a vector: appends never relocate earlier events, so a
  /// long traced run never stalls every strand on one growth copy.
  std::deque<TraceEvent> events_;
};

}  // namespace vp::obs

#endif  // VPART_OBS_TRACE_H_
