#include "protocols/naive_view_node.h"

#include <utility>

#include "common/logging.h"

namespace vp::protocols {

using core::msg::PhysRead;
using core::msg::PhysWrite;

NaiveViewNode::NaiveViewNode(ProcessorId id, core::NodeEnv env,
                             NaiveConfig config)
    : NodeBase(id, env, config.lock_timeout, config.outcome_retry_period,
               OpRules{.nack_on_delivery_timeout = true,
                       .cancel_leftovers = false,
                       .drop_replies_after_decision = false,
                       .fail_txn_on_retire = true}),
      config_(config) {}

std::set<ProcessorId> NaiveViewNode::CurrentView() const {
  if (view_override_.has_value()) return *view_override_;
  std::set<ProcessorId> view{id_};
  const runtime::Transport* t = env_.transport;
  for (ProcessorId q = 0; q < t->size(); ++q) {
    if (q != id_ && t->CanCommunicate(id_, q)) view.insert(q);
  }
  return view;
}

void NaiveViewNode::LogicalRead(TxnId txn, ObjectId obj,
                                core::ReadCallback cb) {
  ++stats_.reads_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    cb(admit);
    return;
  }
  const std::set<ProcessorId> view = CurrentView();
  if (!env_.placement->Accessible(obj, view)) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no majority in view"));
    return;
  }
  // Nearest copy in the view.
  ProcessorId target = kInvalidProcessor;
  double best = 0;
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    if (view.count(q) == 0) continue;
    const double cost = q == id_ ? 0.0 : env_.transport->Cost(id_, q);
    if (target == kInvalidProcessor || cost < best) {
      target = q;
      best = cost;
    }
  }
  VP_CHECK(target != kInvalidProcessor);
  LogicalOp& op = StartRead(rec, txn, obj, std::move(cb),
                            config_.op_timeout + config_.lock_timeout,
                            "copy holder unresponsive");
  rec->participants.insert(target);
  SendOpRequest(op, target,
                PhysRead{txn, obj, kEpochDate, /*epoch=*/0,
                         /*recovery=*/false, /*for_update=*/false, op.id,
                         {}});
}

void NaiveViewNode::LogicalWrite(TxnId txn, ObjectId obj, Value value,
                                 core::WriteCallback cb) {
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    cb(admit);
    return;
  }
  const std::set<ProcessorId> view = CurrentView();
  if (!env_.placement->Accessible(obj, view)) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no majority in view"));
    return;
  }
  LogicalOp& op = StartWrite(rec, txn, obj, std::move(value), std::move(cb),
                             config_.op_timeout + config_.lock_timeout,
                             "write-all-in-view incomplete");
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    if (view.count(q) > 0) op.awaiting.insert(q);
  }
  const VpId date{++write_counter_, id_};
  for (ProcessorId q : op.awaiting) {
    rec->participants.insert(q);
    SendOpRequest(op, q,
                  PhysWrite{txn, obj, op.value, date, /*epoch=*/0, op.id,
                            {}});
  }
}

}  // namespace vp::protocols
