#include "protocols/quorum_node.h"

#include <algorithm>
#include <utility>

namespace vp::protocols {

using core::msg::PhysRead;
using core::msg::PhysWrite;

QuorumConfig MajorityVotingConfig(QuorumConfig base) {
  QuorumConfig c = std::move(base);
  c.read_quorum = 0;  // majority
  c.write_quorum = 0;
  c.write_all = false;
  c.display_name = "majority-voting";
  return c;
}

QuorumConfig RowaConfig(QuorumConfig base) {
  QuorumConfig c = std::move(base);
  c.read_quorum = 1;
  c.write_quorum = 0;
  c.write_all = true;
  c.display_name = "rowa";
  return c;
}

QuorumNode::QuorumNode(ProcessorId id, core::NodeEnv env, QuorumConfig config)
    : NodeBase(id, env, config.lock_timeout, config.outcome_retry_period,
               OpRules{.nack_on_delivery_timeout = true,
                       .cancel_leftovers = true,
                       .drop_replies_after_decision = false,
                       .fail_txn_on_retire = true}),
      config_(std::move(config)) {}

Weight QuorumNode::ReadQuorum(ObjectId obj) const {
  if (config_.read_quorum > 0) return config_.read_quorum;
  return env_.placement->TotalWeight(obj) / 2 + 1;
}

Weight QuorumNode::WriteQuorum(ObjectId obj) const {
  if (config_.write_all) return env_.placement->TotalWeight(obj);
  if (config_.write_quorum > 0) return config_.write_quorum;
  return env_.placement->TotalWeight(obj) / 2 + 1;
}

std::vector<ProcessorId> QuorumNode::SelectCopies(ObjectId obj,
                                                  Weight needed) const {
  // Cheapest-first greedy selection.
  std::vector<std::pair<double, ProcessorId>> ranked;
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    ranked.emplace_back(q == id_ ? 0.0 : env_.transport->Cost(id_, q),
                        q);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<ProcessorId> out;
  Weight votes = 0;
  for (auto& [cost, q] : ranked) {
    if (!config_.poll_all && votes >= needed) break;
    out.push_back(q);
    votes += env_.placement->WeightOf(obj, q);
  }
  if (votes < needed) return {};
  return out;
}

void QuorumNode::LogicalRead(TxnId txn, ObjectId obj, core::ReadCallback cb) {
  ++stats_.reads_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    cb(admit);
    return;
  }
  const Weight needed = ReadQuorum(obj);
  std::vector<ProcessorId> targets = SelectCopies(obj, needed);
  if (targets.empty()) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no read quorum available"));
    return;
  }
  LogicalOp& op =
      StartRead(rec, txn, obj, std::move(cb),
                config_.op_timeout + config_.lock_timeout, "read quorum");
  op.votes_needed = needed;
  op.awaiting.insert(targets.begin(), targets.end());
  for (ProcessorId q : targets) {
    rec->participants.insert(q);
    SendOpRequest(op, q,
                  PhysRead{txn, obj, kEpochDate, /*epoch=*/0,
                           /*recovery=*/false, /*for_update=*/false, op.id,
                           {}});
  }
}

void QuorumNode::LogicalWrite(TxnId txn, ObjectId obj, Value value,
                              core::WriteCallback cb) {
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    cb(admit);
    return;
  }
  const Weight needed = WriteQuorum(obj);
  std::vector<ProcessorId> targets = SelectCopies(obj, needed);
  if (targets.empty()) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no write quorum available"));
    return;
  }
  // One op, hence one attribution window, spans both phases: the version
  // poll and the write are a single logical operation to the transaction.
  LogicalOp& op = StartWrite(rec, txn, obj, std::move(value), std::move(cb),
                             config_.op_timeout + config_.lock_timeout,
                             "write version poll");
  op.votes_needed = needed;
  op.awaiting.insert(targets.begin(), targets.end());
  // Phase 1: version poll under exclusive locks.
  for (ProcessorId q : targets) {
    rec->participants.insert(q);
    SendOpRequest(op, q,
                  PhysRead{txn, obj, kEpochDate, /*epoch=*/0,
                           /*recovery=*/false, /*for_update=*/true, op.id,
                           {}});
  }
}

void QuorumNode::StartWritePhase2(LogicalOp& op) {
  // A quorum of poll answers arrived; the unanswered poll requests must
  // stop retrying, or a late-served poll takes a lock (and records a read)
  // at a copy that is not part of the write — possibly after the
  // transaction has already decided.
  CancelLeftovers(op);
  op.rel_ids.clear();
  // New version: one past the largest seen, tie-broken by writer id.
  const VpId new_date{op.best_date.n + 1, id_};
  op.awaiting = op.polled;
  RearmDeadline(op, config_.op_timeout, "write phase");
  for (ProcessorId q : op.polled) {
    SendOpRequest(op, q,
                  PhysWrite{op.txn, op.obj, op.value, new_date, /*epoch=*/0,
                            op.id, {}});
  }
}

QuorumNode::OpStep QuorumNode::OnOpReply(LogicalOp& op, const OpReply& r) {
  if (r.is_write) return NodeBase::OnOpReply(op, r);
  // A read reply answers a logical read or a write's version poll.
  op.awaiting.erase(r.from);
  if (r.ok) {
    op.votes += env_.placement->WeightOf(op.obj, r.from);
    if (op.is_write) {
      op.polled.insert(r.from);
      if (op.best_date < r.date) op.best_date = r.date;
    } else {
      KeepNewest(op, r);
    }
  }
  if (op.votes >= op.votes_needed) {
    // The quorum can complete with requests still outstanding (vote
    // overshoot under weighted placements: SelectCopies may contact more
    // copies than the cheapest reply-set needs); the table cancels them.
    if (!op.is_write) return OpStep::kDone;
    StartWritePhase2(op);
    return OpStep::kPending;
  }
  // Can the remaining replies still reach the quorum?
  Weight potential = op.votes;
  for (ProcessorId q : op.awaiting) {
    potential += env_.placement->WeightOf(op.obj, q);
  }
  return potential < op.votes_needed ? OpStep::kFailed : OpStep::kPending;
}

}  // namespace vp::protocols
