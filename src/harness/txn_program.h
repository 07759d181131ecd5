// The one transaction-program driver, shared by both backends: a list of
// logical ops run as one transaction at one coordinator (R2/R3), chained
// through callbacks — Begin and the first op in the calling task, each
// later op from the previous op's callback, Commit from the last. The
// simulator tests start it and pump the scheduler; ThreadCluster::RunTxn
// submits it as one task on the coordinator's strand.
#ifndef VPART_HARNESS_TXN_PROGRAM_H_
#define VPART_HARNESS_TXN_PROGRAM_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/node_base.h"
#include "runtime/runtime.h"

namespace vp::harness {

struct TxnOp {
  enum class Kind { kRead, kWrite, kIncrement } kind = Kind::kRead;
  ObjectId obj = kInvalidObject;
  Value value;  // For writes.
};

inline TxnOp Read(ObjectId obj) { return TxnOp{TxnOp::Kind::kRead, obj, ""}; }
inline TxnOp Write(ObjectId obj, Value v) {
  return TxnOp{TxnOp::Kind::kWrite, obj, std::move(v)};
}
/// Read obj, then write read-value + 1 (counter increment).
inline TxnOp Increment(ObjectId obj) {
  return TxnOp{TxnOp::Kind::kIncrement, obj, ""};
}

struct TxnResult {
  bool committed = false;
  Status failure;            // First failing status, if any.
  std::vector<Value> reads;  // Values returned by kRead/kIncrement ops.
  TxnId txn;
  runtime::Duration latency = 0;  // Client-observed; set by ThreadCluster.
};

/// Runs `ops` as one transaction coordinated at `node`, starting in the
/// calling task (on `node`'s strand, or the simulator's thread). `done`
/// reports the commit decision, or the first failing op's status with the
/// reads gathered before it: the transaction is then aborted at `node` and
/// no later op is issued.
void StartTxnProgram(core::NodeBase& node, std::vector<TxnOp> ops,
                     std::function<void(TxnResult)> done);

}  // namespace vp::harness

#endif  // VPART_HARNESS_TXN_PROGRAM_H_
