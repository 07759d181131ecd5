// Scripted fault injection over a CommGraph.
//
// Scenarios are declared as a schedule of actions ("at t=400ms partition
// {A,B} | {C,D}; at t=2s heal"). Randomized fault storms are generated
// as such schedules by the nemesis (src/nemesis/), so every storm is a
// replayable plan.
#ifndef VPART_NET_FAILURE_INJECTOR_H_
#define VPART_NET_FAILURE_INJECTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/topology.h"
#include "sim/scheduler.h"

namespace vp::net {

/// One scripted fault/recovery action.
struct FaultAction {
  enum class Kind {
    kCrashProcessor,
    kRecoverProcessor,
    kLinkDown,
    kLinkUp,
    kLinkDownOneWay,  // Cuts only the a→b direction (asymmetric failure).
    kLinkUpOneWay,    // Restores only the a→b direction.
    kPartition,       // `groups` defines the new components.
    kHeal,
    kChurnBurst,  // Rapidly flaps processor `a`: `count` crash/recover
                  // cycles, `period` apart (stresses S2 and R5 re-init).
    kCrashAmnesia,  // Crashes `a` AND destroys its volatile state: on the
                    // matching recover, the harness reboots the node from
                    // stable storage (WAL replay).
    kReconfig,    // Proposes the `reconfig` batch at processor `a` (via the
                  // reconfig hook); the batch commits at a vp boundary.
    kBitRot,      // Flips bytes at rest on `a`'s stable device: in the copy
                  // image of `corrupt_obj`, or (when corrupt_obj is
                  // kInvalidObject) in the wal_index-th most recent WAL
                  // prepare record. Only observable at the next reboot.
    kTornWrite,     // Like kBitRot but shears the record/image instead
                    // (half-written sector: length shortened, torn flag set).
    kCrashAmnesiaTorn,  // kCrashAmnesia whose in-flight persist tears: the
                        // WAL tail record is half-written (count = 0) or
                        // dropped entirely (count != 0) before replay.
    kCustom,      // Runs `custom`.
  };

  sim::SimTime at = 0;
  Kind kind = Kind::kHeal;
  ProcessorId a = kInvalidProcessor;
  ProcessorId b = kInvalidProcessor;
  std::vector<std::vector<ProcessorId>> groups;
  /// kChurnBurst: number of crash/recover cycles and the gap between flips.
  uint32_t count = 0;
  sim::Duration period = 0;
  /// kReconfig: the placement-change batch handed to the reconfig hook.
  std::vector<ReconfigOp> reconfig;
  /// kBitRot/kTornWrite: the copy image to hit, or kInvalidObject to hit
  /// the WAL instead (wal_index selects which prepare record, newest = 0).
  ObjectId corrupt_obj = kInvalidObject;
  uint32_t wal_index = 0;
  std::function<void()> custom;
};

/// Human-readable kind name (plan files, logs, coverage tables).
std::string FaultKindName(FaultAction::Kind kind);

/// Applies scripted actions.
class FailureInjector {
 public:
  FailureInjector(sim::Scheduler* scheduler, CommGraph* graph);

  /// Registers one scripted action. Actions in the past are rejected with
  /// InvalidArgument (nothing is scheduled).
  Status Schedule(FaultAction action);

  /// Convenience wrappers for common scripts.
  void CrashAt(sim::SimTime t, ProcessorId p);
  void RecoverAt(sim::SimTime t, ProcessorId p);
  void LinkDownAt(sim::SimTime t, ProcessorId a, ProcessorId b);
  void LinkUpAt(sim::SimTime t, ProcessorId a, ProcessorId b);
  void LinkDownOneWayAt(sim::SimTime t, ProcessorId a, ProcessorId b);
  void LinkUpOneWayAt(sim::SimTime t, ProcessorId a, ProcessorId b);
  void PartitionAt(sim::SimTime t,
                   std::vector<std::vector<ProcessorId>> groups);
  void HealAt(sim::SimTime t);
  void ChurnBurstAt(sim::SimTime t, ProcessorId p, uint32_t count,
                    sim::Duration period);
  void CrashAmnesiaAt(sim::SimTime t, ProcessorId p);
  void CrashAmnesiaTornAt(sim::SimTime t, ProcessorId p, bool drop_tail);
  void BitRotWalAt(sim::SimTime t, ProcessorId p, uint32_t wal_index);
  void BitRotCopyAt(sim::SimTime t, ProcessorId p, ObjectId obj);
  void TornWriteWalAt(sim::SimTime t, ProcessorId p, uint32_t wal_index);
  void TornWriteCopyAt(sim::SimTime t, ProcessorId p, ObjectId obj);
  void ReconfigAt(sim::SimTime t, ProcessorId p, std::vector<ReconfigOp> ops);
  void At(sim::SimTime t, std::function<void()> fn);

  /// Invoked after every applied action; protocols use this to model
  /// immediate local crash detection if desired (the VP protocol does not
  /// need it — probing suffices).
  void SetOnChange(std::function<void()> cb) { on_change_ = std::move(cb); }

  /// Harness hooks for the crash-amnesia fault model. `on_crash(p,
  /// amnesia)` fires right after p is marked dead (amnesia = true for
  /// kCrashAmnesia); `on_recover(p)` fires right after p is marked alive,
  /// so the harness can reboot an amnesiac node from stable storage.
  void SetProcessorHooks(std::function<void(ProcessorId, bool)> on_crash,
                         std::function<void(ProcessorId)> on_recover) {
    on_crash_ = std::move(on_crash);
    on_recover_ = std::move(on_recover);
  }

  /// Harness hook for kReconfig actions: `on_reconfig(p, ops)` should queue
  /// the batch at processor p (the injector itself knows nothing about
  /// protocol nodes). kReconfig actions are silently dropped when no hook is
  /// installed (e.g. a reconfig plan replayed against a non-VP protocol).
  void SetReconfigHook(
      std::function<void(ProcessorId, std::vector<ReconfigOp>)> on_reconfig) {
    on_reconfig_ = std::move(on_reconfig);
  }

  /// Harness hook for device corruption. Fires for kBitRot / kTornWrite
  /// (mutate bytes at rest on action.a's stable device) and for
  /// kCrashAmnesiaTorn (tear the WAL tail, between the crash itself and the
  /// crash hook). Corruption actions are silently dropped when no hook is
  /// installed (e.g. a corruption plan replayed against a storage-less
  /// harness).
  void SetCorruptionHook(std::function<void(const FaultAction&)> on_corrupt) {
    on_corrupt_ = std::move(on_corrupt);
  }

  uint64_t actions_applied() const { return actions_applied_; }

 private:
  void Apply(const FaultAction& action);

  sim::Scheduler* scheduler_;
  CommGraph* graph_;
  std::function<void()> on_change_;
  std::function<void(ProcessorId, bool)> on_crash_;
  std::function<void(ProcessorId)> on_recover_;
  std::function<void(ProcessorId, std::vector<ReconfigOp>)> on_reconfig_;
  std::function<void(const FaultAction&)> on_corrupt_;
  uint64_t actions_applied_ = 0;
};

}  // namespace vp::net

#endif  // VPART_NET_FAILURE_INJECTOR_H_
