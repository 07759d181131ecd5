#include "net/failure_injector.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vp::net {

std::string FaultKindName(FaultAction::Kind kind) {
  using Kind = FaultAction::Kind;
  switch (kind) {
    case Kind::kCrashProcessor:
      return "crash";
    case Kind::kRecoverProcessor:
      return "recover";
    case Kind::kLinkDown:
      return "link_down";
    case Kind::kLinkUp:
      return "link_up";
    case Kind::kLinkDownOneWay:
      return "link_down_oneway";
    case Kind::kLinkUpOneWay:
      return "link_up_oneway";
    case Kind::kPartition:
      return "partition";
    case Kind::kHeal:
      return "heal";
    case Kind::kChurnBurst:
      return "churn";
    case Kind::kCrashAmnesia:
      return "crash_amnesia";
    case Kind::kReconfig:
      return "reconfig";
    case Kind::kBitRot:
      return "bit_rot";
    case Kind::kTornWrite:
      return "torn_write";
    case Kind::kCrashAmnesiaTorn:
      return "crash_torn";
    case Kind::kCustom:
      return "custom";
  }
  return "?";
}

FailureInjector::FailureInjector(sim::Scheduler* scheduler, CommGraph* graph)
    : scheduler_(scheduler), graph_(graph) {}

Status FailureInjector::Schedule(FaultAction action) {
  if (action.at < scheduler_->Now()) {
    return Status::InvalidArgument("fault action scheduled in the past");
  }
  scheduler_->ScheduleAt(action.at,
                         [this, a = std::move(action)]() { Apply(a); });
  return Status::Ok();
}

void FailureInjector::CrashAt(sim::SimTime t, ProcessorId p) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kCrashProcessor;
  a.a = p;
  Schedule(std::move(a));
}

void FailureInjector::RecoverAt(sim::SimTime t, ProcessorId p) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kRecoverProcessor;
  a.a = p;
  Schedule(std::move(a));
}

void FailureInjector::LinkDownAt(sim::SimTime t, ProcessorId x,
                                 ProcessorId y) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kLinkDown;
  a.a = x;
  a.b = y;
  Schedule(std::move(a));
}

void FailureInjector::LinkUpAt(sim::SimTime t, ProcessorId x, ProcessorId y) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kLinkUp;
  a.a = x;
  a.b = y;
  Schedule(std::move(a));
}

void FailureInjector::PartitionAt(
    sim::SimTime t, std::vector<std::vector<ProcessorId>> groups) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kPartition;
  a.groups = std::move(groups);
  Schedule(std::move(a));
}

void FailureInjector::LinkDownOneWayAt(sim::SimTime t, ProcessorId x,
                                       ProcessorId y) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kLinkDownOneWay;
  a.a = x;
  a.b = y;
  Schedule(std::move(a));
}

void FailureInjector::LinkUpOneWayAt(sim::SimTime t, ProcessorId x,
                                     ProcessorId y) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kLinkUpOneWay;
  a.a = x;
  a.b = y;
  Schedule(std::move(a));
}

void FailureInjector::HealAt(sim::SimTime t) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kHeal;
  Schedule(std::move(a));
}

void FailureInjector::ChurnBurstAt(sim::SimTime t, ProcessorId p,
                                   uint32_t count, sim::Duration period) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kChurnBurst;
  a.a = p;
  a.count = count;
  a.period = period;
  Schedule(std::move(a));
}

void FailureInjector::CrashAmnesiaAt(sim::SimTime t, ProcessorId p) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kCrashAmnesia;
  a.a = p;
  Schedule(std::move(a));
}

void FailureInjector::CrashAmnesiaTornAt(sim::SimTime t, ProcessorId p,
                                         bool drop_tail) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kCrashAmnesiaTorn;
  a.a = p;
  a.count = drop_tail ? 1 : 0;
  Schedule(std::move(a));
}

void FailureInjector::BitRotWalAt(sim::SimTime t, ProcessorId p,
                                  uint32_t wal_index) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kBitRot;
  a.a = p;
  a.wal_index = wal_index;
  Schedule(std::move(a));
}

void FailureInjector::BitRotCopyAt(sim::SimTime t, ProcessorId p,
                                   ObjectId obj) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kBitRot;
  a.a = p;
  a.corrupt_obj = obj;
  Schedule(std::move(a));
}

void FailureInjector::TornWriteWalAt(sim::SimTime t, ProcessorId p,
                                     uint32_t wal_index) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kTornWrite;
  a.a = p;
  a.wal_index = wal_index;
  Schedule(std::move(a));
}

void FailureInjector::TornWriteCopyAt(sim::SimTime t, ProcessorId p,
                                      ObjectId obj) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kTornWrite;
  a.a = p;
  a.corrupt_obj = obj;
  Schedule(std::move(a));
}

void FailureInjector::ReconfigAt(sim::SimTime t, ProcessorId p,
                                 std::vector<ReconfigOp> ops) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kReconfig;
  a.a = p;
  a.reconfig = std::move(ops);
  Schedule(std::move(a));
}

void FailureInjector::At(sim::SimTime t, std::function<void()> fn) {
  FaultAction a;
  a.at = t;
  a.kind = FaultAction::Kind::kCustom;
  a.custom = std::move(fn);
  Schedule(std::move(a));
}

void FailureInjector::Apply(const FaultAction& action) {
  using Kind = FaultAction::Kind;
  switch (action.kind) {
    case Kind::kCrashProcessor:
      graph_->SetAlive(action.a, false);
      if (on_crash_) on_crash_(action.a, /*amnesia=*/false);
      break;
    case Kind::kCrashAmnesia:
      graph_->SetAlive(action.a, false);
      if (on_crash_) on_crash_(action.a, /*amnesia=*/true);
      break;
    case Kind::kRecoverProcessor:
      graph_->SetAlive(action.a, true);
      if (on_recover_) on_recover_(action.a);
      break;
    case Kind::kLinkDown:
      graph_->SetEdge(action.a, action.b, false);
      break;
    case Kind::kLinkUp:
      graph_->SetEdge(action.a, action.b, true);
      break;
    case Kind::kLinkDownOneWay:
      graph_->SetEdgeOneWay(action.a, action.b, false);
      break;
    case Kind::kLinkUpOneWay:
      graph_->SetEdgeOneWay(action.a, action.b, true);
      break;
    case Kind::kPartition:
      graph_->Partition(action.groups);
      break;
    case Kind::kHeal:
      graph_->Heal();
      break;
    case Kind::kChurnBurst: {
      // Expand into `count` crash/recover cycles `period` apart. Each flip
      // goes through Apply, so actions_applied() counts 2*count for the
      // whole burst and the burst always ends with the processor alive.
      FaultAction crash;
      crash.kind = Kind::kCrashProcessor;
      crash.a = action.a;
      Apply(crash);
      scheduler_->ScheduleAfter(std::max<sim::Duration>(action.period, 1),
                                [this, a = action]() {
                                  FaultAction up;
                                  up.kind = Kind::kRecoverProcessor;
                                  up.a = a.a;
                                  Apply(up);
                                  if (a.count > 1) {
                                    FaultAction next = a;
                                    --next.count;
                                    next.at = scheduler_->Now() +
                                              std::max<sim::Duration>(
                                                  next.period, 1);
                                    Schedule(std::move(next));
                                  }
                                });
      return;  // Sub-actions count themselves; the burst shell does not.
    }
    case Kind::kReconfig:
      if (on_reconfig_) on_reconfig_(action.a, action.reconfig);
      break;
    case Kind::kBitRot:
    case Kind::kTornWrite:
      if (on_corrupt_) on_corrupt_(action);
      break;
    case Kind::kCrashAmnesiaTorn:
      // Crash first, then tear the in-flight persist, then let the harness
      // observe the (amnesiac) crash — so the reboot replays the torn log.
      graph_->SetAlive(action.a, false);
      if (on_corrupt_) on_corrupt_(action);
      if (on_crash_) on_crash_(action.a, /*amnesia=*/true);
      break;
    case Kind::kCustom:
      if (action.custom) action.custom();
      break;
  }
  ++actions_applied_;
  VP_LOG(kDebug, scheduler_->Now())
      << "fault action applied (kind=" << FaultKindName(action.kind) << ")";
  if (on_change_) on_change_();
}

}  // namespace vp::net
