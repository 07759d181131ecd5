// ThreadRuntime: the runtime interfaces implemented over real threads.
//
//   * Executor — one serialized strand per processor, pinned to a *shard*
//     (strand % workers). Each shard is owned by exactly one worker thread
//     and carries its own lock-free MPSC mailbox for due-now tasks plus a
//     worker-private timer heap for delayed tasks. Tasks of one strand
//     never run concurrently (single consumer per shard is the
//     serialization); strands on distinct shards run genuinely in
//     parallel. The hot path — ScheduleAfter(0, ...) from message handlers
//     and client threads — is one lock-free mailbox push: no shared lock,
//     no condvar unless the target worker is asleep. The timer heap takes
//     no lock either: every protocol timer is armed and cancelled from its
//     owning strand, i.e. on the shard's own worker thread, so the heap is
//     single-threaded by construction; the rare cross-thread arm or cancel
//     rides the mailbox as a command the owner applies.
//   * Transport — an in-process message fabric with one locked queue per
//     directed link. Send enqueues on the link and schedules a delivery
//     task on the destination strand, so every message is handled on its
//     receiver's strand — exactly the execution discipline the protocol
//     state machines were written for. A delivery that finds its endpoint
//     not yet registered is re-queued and retried for up to Δ before being
//     dropped (counted), so the register/send race loses no traffic.
//   * Clock — steady_clock microseconds since runtime construction, so the
//     protocol timeout constants (expressed in sim microseconds) carry over
//     as wall-clock durations unchanged.
//
// There is no fault injection and no determinism on this backend: delivery
// is reliable per link (in order), timers fire when the hardware gets to
// them, and two runs of the same workload interleave differently. What
// must survive is linearizable protocol behavior under genuine
// concurrency — the ThreadRuntime tests drive all three protocols through
// concurrent transactions and still require the 1SR certifier to pass, and
// the TSan CI job requires zero data races.
#ifndef VPART_RUNTIME_THREAD_RUNTIME_H_
#define VPART_RUNTIME_THREAD_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace vp::runtime {

class ThreadRuntime {
 public:
  struct Config {
    /// Worker threads; each owns one shard of strands (strand % workers).
    /// 0 = hardware concurrency clamped to [2, 16]; explicit values are
    /// clamped to [1, 16] (16 = the shard-id bits in a TaskId).
    uint32_t workers = 0;
    /// Advertised one-hop delay bound; protocol timeouts (2δ, 3δ) derive
    /// from it. In-process delivery is far faster, so this is a safety
    /// margin, not a model. Also bounds how long an unregistered-endpoint
    /// delivery keeps retrying before it is dropped and counted.
    Duration delta = sim::Millis(1);
    /// Registry for runtime-internal metrics. Null = process-global
    /// default. Key counters: runtime.mailbox_pushes (lock-free hot path),
    /// runtime.cross_shard_wakeups (condvar notifies of sleeping shards),
    /// net.msgs_dropped_dead / net.msgs_retried_unregistered /
    /// net.msgs_dropped_unregistered (transport loss accounting).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ThreadRuntime(uint32_t n_processors);
  ThreadRuntime(uint32_t n_processors, Config config);
  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;
  ~ThreadRuntime();

  Clock* clock();
  Transport* transport();
  /// The serialized strand executor for processor `p`.
  Executor* executor(ProcessorId p);
  RuntimeView view(ProcessorId p);

  uint32_t size() const { return n_; }
  /// Worker-pool width (= shard count). Stable across Stop.
  uint32_t workers() const { return static_cast<uint32_t>(shards_.size()); }

  /// Runs `fn` on strand `p` and blocks until it returns. For driving node
  /// APIs from client threads; must not be called from a worker thread (a
  /// worker waiting on its own shard deadlocks). Returns true iff `fn` ran
  /// to completion; returns false — instead of hanging — when the runtime
  /// stopped first (Stop() racing or preceding the call), in which case
  /// `fn` did not and will never run.
  bool RunOn(ProcessorId p, std::function<void()> fn);

  /// Marks a processor up/down on the transport: messages from/to a down
  /// processor are dropped (and counted). Timers keep firing — crash
  /// semantics beyond message loss (amnesia, state reset) are the sim
  /// backend's job.
  void SetAlive(ProcessorId p, bool alive);

  /// Stops the pool: pending timers are dropped, in-flight tasks finish,
  /// workers join, and every still-queued closure is destroyed so that
  /// blocked RunOn callers observe the broken promise and return false
  /// rather than hanging. Idempotent; the destructor calls it.
  void Stop();

  uint64_t tasks_run() const { return tasks_run_.load(); }

 private:
  class StrandExecutor;
  class ThreadTransport;
  class SteadyClock;
  friend class StrandExecutor;
  friend class ThreadTransport;

  struct Task {
    TimePoint when = 0;
    /// Per-shard scheduling order: the FIFO tie-break among tasks with
    /// equal deadlines, and the payload of a ticket id (see below).
    uint64_t seq = 0;
    /// The task's slot in its shard's SlotTable while it sits in the heap.
    uint32_t slot = 0;
    uint32_t strand = 0;
    /// When set, this mailbox entry is a cross-thread cancel command for
    /// that task, not a runnable task (`fn` is empty).
    TaskId cancel_target = kInvalidTask;
    std::function<void()> fn;
  };
  struct TaskLater {
    bool operator()(const Task& a, const Task& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among simultaneous same-shard tasks.
    }
  };

  /// TaskId = payload << kTagBits | kind | shard. The shard rides the low
  /// bits so CancelTask routes to the owning shard without any global
  /// structure. With kSlotKind set the payload is the task's SlotTable
  /// handle: a timer its shard's owner armed, cancelled by generation
  /// check. Otherwise the payload is a ticket, the task's seq: a mailbox
  /// task, either due now (nothing to cancel) or a timer a foreign thread
  /// armed before the owner could give it a slot.
  static constexpr uint32_t kShardBits = 4;
  static constexpr uint32_t kMaxShards = 1u << kShardBits;
  static constexpr TaskId kSlotKind = TaskId{1} << kShardBits;
  static constexpr uint32_t kTagBits = kShardBits + 1;
  struct Shard;  // Defined in the .cc; mailbox + timer heap + sleep state.

  TimePoint NowUs() const;
  TaskId ScheduleTask(uint32_t strand, TimePoint when,
                      std::function<void()> fn);
  void CancelTask(TaskId id);
  /// Files a delayed task into a shard's worker-private heap under a fresh
  /// slot and returns the slot's handle. Must run on the shard's owner
  /// thread.
  uint64_t ArmLocal(Shard& sh, Task task);
  /// Applies a cancel on the shard's owner thread: marks the task's slot
  /// cancelled if `id` still names a task in the heap.
  void CancelLocal(Shard& sh, TaskId id);
  void WorkerLoop(uint32_t shard);
  /// Notifies a shard's worker if (and only if) it is parked.
  void WakeShard(Shard& sh);
  void RunTask(Task& task);

  const uint32_t n_;
  const Config config_;
  const std::chrono::steady_clock::time_point start_;

  std::atomic<bool> stop_{false};
  std::mutex stop_mu_;  // Serializes Stop callers; never on the hot path.
  bool stopped_ = false;  // Guarded by stop_mu_.

  std::vector<std::unique_ptr<Shard>> shards_;  // One per worker thread.
  std::vector<std::unique_ptr<StrandExecutor>> strands_;
  std::unique_ptr<SteadyClock> clock_;
  std::unique_ptr<ThreadTransport> transport_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> tasks_run_{0};

  /// Observability (counters are sharded atomics; safe from any thread).
  obs::Counter* ctr_mailbox_pushes_ = nullptr;
  obs::Counter* ctr_cross_wakeups_ = nullptr;
  obs::Counter* ctr_msgs_sent_ = nullptr;
  obs::Counter* ctr_msgs_remote_ = nullptr;
  obs::Counter* ctr_msgs_delivered_ = nullptr;
  obs::Counter* ctr_msgs_dropped_dead_ = nullptr;
  obs::Counter* ctr_msgs_retried_unreg_ = nullptr;
  obs::Counter* ctr_msgs_dropped_unreg_ = nullptr;
  obs::Histogram* hist_wheel_depth_ = nullptr;
  obs::Histogram* hist_strand_depth_ = nullptr;
  /// Tasks queued per strand, for the strand-depth histogram.
  std::unique_ptr<std::atomic<uint32_t>[]> strand_depth_;
};

}  // namespace vp::runtime

#endif  // VPART_RUNTIME_THREAD_RUNTIME_H_
