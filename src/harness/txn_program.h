// The one transaction driver, shared by every caller on both backends: a
// list of logical ops run as one transaction at one coordinator (R2/R3),
// chained through callbacks — Begin and the first op in the calling task,
// each later op from the previous op's callback, Commit from the last.
// Cluster::RunTxn starts it and pumps the simulator, ThreadCluster::RunTxn
// submits it as one task on the coordinator's strand, and
// workload::Client starts one per generated transaction, pacing it through
// the optional step hook.
#ifndef VPART_HARNESS_TXN_PROGRAM_H_
#define VPART_HARNESS_TXN_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/node_base.h"
#include "runtime/runtime.h"

namespace vp::harness {

struct TxnOp {
  enum class Kind { kRead, kWrite, kIncrement, kUniqueWrite } kind =
      Kind::kRead;
  ObjectId obj = kInvalidObject;
  Value value;        // For kWrite.
  int64_t delta = 1;  // For kIncrement.
};

inline TxnOp Read(ObjectId obj) { return TxnOp{TxnOp::Kind::kRead, obj, ""}; }
inline TxnOp Write(ObjectId obj, Value v) {
  return TxnOp{TxnOp::Kind::kWrite, obj, std::move(v)};
}
/// Read obj, then write read-value + delta (a counter update; an empty
/// value counts as 0).
inline TxnOp Add(ObjectId obj, int64_t delta) {
  return TxnOp{TxnOp::Kind::kIncrement, obj, "", delta};
}
inline TxnOp Increment(ObjectId obj) { return Add(obj, 1); }
/// Write the token "w:<txn>:<op index>", unique to this write, so the
/// serializability certifier can trace every value to its writer.
inline TxnOp UniqueWrite(ObjectId obj) {
  return TxnOp{TxnOp::Kind::kUniqueWrite, obj, ""};
}

struct TxnResult {
  bool committed = false;
  Status failure;            // First failing status, if any.
  std::vector<Value> reads;  // Values returned by kRead/kIncrement ops.
  size_t writes = 0;         // Logical writes that completed.
  TxnId txn;
  runtime::Duration latency = 0;  // Start to decision; set by RunTxn.
};

/// Called before op `next` of a program (1 <= next < ops.size()) and before
/// its Commit (next == ops.size()). The hook calls `proceed` exactly once,
/// now or later: with OK to issue the step, or with a failure to end the
/// program with that status without calling into the node again.
using TxnStepHook =
    std::function<void(size_t next, std::function<void(Status)> proceed)>;

/// Runs `ops` as one transaction coordinated at `node`, starting in the
/// calling task (on `node`'s strand, or the simulator's thread). `done`
/// fires exactly once: with the commit decision, or with the first failing
/// op's status and the reads gathered before it. No later op is issued
/// after a failure, and the program calls no Abort: every protocol has
/// aborted the transaction before it reports an op failure, except a node
/// retired by a crash-amnesia reboot, whose volatile state is gone and
/// which must not be spoken to.
void StartTxnProgram(core::NodeBase& node, std::vector<TxnOp> ops,
                     std::function<void(TxnResult)> done,
                     TxnStepHook before_step = nullptr);

}  // namespace vp::harness

#endif  // VPART_HARNESS_TXN_PROGRAM_H_
