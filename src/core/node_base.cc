#include "core/node_base.h"

#include <utility>

#include "common/logging.h"

namespace vp::core {

NodeBase::NodeBase(ProcessorId id, NodeEnv env,
                   runtime::Duration lock_timeout,
                   runtime::Duration outcome_retry_period, OpRules op_rules)
    : id_(id),
      env_(env),
      lock_timeout_(lock_timeout),
      outcome_retry_period_(outcome_retry_period),
      op_rules_(op_rules) {
  VP_CHECK(env_.clock && env_.executor && env_.transport &&
           env_.placement && env_.store && env_.locks && env_.recorder);
  metrics_ = env_.metrics != nullptr ? env_.metrics
                                     : obs::MetricsRegistry::Default();
  tracer_ = env_.tracer != nullptr ? env_.tracer : obs::Tracer::Disabled();
  fdr_ = env_.fdr != nullptr ? env_.fdr : obs::FlightRecorder::Disabled();
  path_hists_ = obs::PathHistograms::Create(metrics_);
  ctr_phys_reads_served_ = metrics_->counter("node.phys_reads_served");
  ctr_phys_writes_served_ = metrics_->counter("node.phys_writes_served");
  ctr_phys_nacks_ = metrics_->counter("node.phys_nacks");
  ctr_phys_reads_issued_ = metrics_->counter("phys.reads_issued");
  ctr_phys_reads_completed_ = metrics_->counter("phys.reads_completed");
  ctr_phys_writes_issued_ = metrics_->counter("phys.writes_issued");
  ctr_phys_writes_completed_ = metrics_->counter("phys.writes_completed");
  hist_phys_read_us_ = metrics_->histogram("phys.read_us");
  hist_phys_write_us_ = metrics_->histogram("phys.write_us");
  hist_txn_us_ = metrics_->histogram("txn.duration_us");
  hist_outcome_ack_us_ = metrics_->histogram("txn.outcome_ack_us");
  if (env_.stable != nullptr) {
    // Salt all local sequence counters with the incarnation so a rebooted
    // processor never reissues a transaction or op id from a previous life
    // (the recorder rejects duplicate txn ids, and stale op-id matches
    // would corrupt pending-op bookkeeping).
    const uint64_t inc = env_.stable->incarnation();
    next_txn_seq_ = 1 + (inc << 40);
    synth_seq_ = 1 + (inc << 40);
    next_op_id_ = 1 + (inc << 40);
  }
  if (env_.reliable.enabled) {
    const uint32_t inc = env_.stable != nullptr
                             ? static_cast<uint32_t>(env_.stable->incarnation())
                             : 0;
    rel_ = std::make_unique<net::ReliableChannel>(
        env_.clock, env_.executor, env_.transport, id_, inc, env_.reliable,
        metrics_, tracer_, fdr_);
  }
}

void NodeBase::Start() {
  env_.transport->Register(id_, this);
  if (env_.stable != nullptr && env_.stable->amnesia() &&
      env_.stable->incarnation() > 0) {
    ReplayWal();
  }
  ScheduleInDoubtSweep();
}

void NodeBase::Retire() {
  // Fail the logical ops in flight; their transactions die with the
  // coordinator's volatile state. Under fail_txn_on_retire the abort
  // broadcasts ride the reliable channel when it is enabled, and the
  // channel is orphaned below rather than shut down, so they keep
  // retransmitting until their delivery deadline and reach the
  // participants if the processor revives in time. Otherwise participants
  // fall back to the in-doubt sweep against the presumed-abort decision
  // log.
  OpTable ops = std::move(ops_);
  ops_.clear();
  for (auto& [op_id, op] : ops) {
    env_.executor->Cancel(op.deadline);
    if (op_rules_.cancel_leftovers) CancelLeftovers(op);
    if (op_rules_.fail_txn_on_retire) OpFailed(op.txn, op.max_lock_wait_us);
    Deliver(op, Status::Aborted("processor crashed"));
  }
  retired_ = true;
  // Orphan, not Shutdown: pending reliable sends keep retransmitting until
  // their delivery deadline, so a quickly-revived processor still gets them
  // out. Only the timeout hooks are cleared (they capture this retired
  // object).
  if (rel_ != nullptr) rel_->Orphan();
  for (auto& [txn, rec] : txns_) {
    if (rec.retry_event != runtime::kInvalidTask) {
      env_.executor->Cancel(rec.retry_event);
      rec.retry_event = runtime::kInvalidTask;
    }
  }
  // Volatile lock state dies with the crash; cancel queued waiters'
  // timeouts so their closures never fire against the retired object.
  env_.locks->Shutdown();
}

void NodeBase::ReplayWal() {
  storage::StableStore* stable = env_.stable;
  // Forward pass: collect prepares still unresolved at crash time, restore
  // learned outcomes, and restore coordinator commit decisions (aborts are
  // presumed and were never logged).
  struct PendingWrite {
    Value value;
    VpId date;
    EpochId epoch;
  };
  std::map<TxnId, std::map<ObjectId, PendingWrite>> pending;
  // BeginReplay salvages the log first (checksummed integrity mode): an
  // invalid tail is truncated — those frames never completed their fsync,
  // so under presumed abort nothing externally visible depended on them —
  // and mid-log rot quarantines the device.
  stable->BeginReplay();
  if (stable->quarantined()) {
    // A record in the middle of the log was rotted away. Whatever it was —
    // a prepare whose in-doubt resolution would have applied a write, an
    // outcome already applied to a copy — the copies derived from this log
    // can no longer be trusted, so every local copy restarts at kEpochDate
    // and the copy-update path rebuilds it from live copies before it
    // serves reads or votes. Valid records still replay below: restoring
    // decisions and re-staging intact prepares is sound regardless.
    for (ObjectId obj : env_.store->LocalObjects()) {
      env_.store->QuarantineCopy(obj);
    }
  }
  for (const storage::WalFrame& frame : stable->wal().frames()) {
    const storage::WalRecord& rec = frame.rec;
    stable->CountReplayedRecord();
    switch (rec.type) {
      case storage::WalRecord::Type::kPrepare:
        // A checksum-less device replays torn garbage verbatim; a frame
        // whose txn id is not even well formed has no coordinator to
        // resolve against, so it cannot be re-staged.
        if (!rec.txn.valid()) break;
        pending[rec.txn][rec.obj] = PendingWrite{rec.value, rec.date,
                                                 rec.epoch};
        break;
      case storage::WalRecord::Type::kOutcome:
        remote_outcomes_[rec.txn] = rec.committed;
        pending.erase(rec.txn);
        break;
      case storage::WalRecord::Type::kDecision:
        decisions_.Decide(rec.txn, /*committed=*/true);
        break;
    }
  }
  // Re-stage the in-doubt writes under fresh exclusive locks (the table is
  // empty, so every grant is synchronous). Holding the X lock again is what
  // makes late resolution safe: recovery reads of these copies block until
  // the transaction resolves (§6 condition (3)). last_activity = 0 ages the
  // record out instantly, so the first in-doubt sweep re-contacts the
  // coordinator (or the restored local decision log).
  for (auto& [txn, writes] : pending) {
    RemoteTxn& rt = remote_txns_[txn];
    rt.coordinator = txn.coordinator;
    rt.last_activity = 0;
    for (auto& [obj, w] : writes) {
      if (!env_.store->HasCopy(obj)) continue;
      bool granted = false;
      env_.locks->Acquire(txn, obj, cc::LockMode::kExclusive, lock_timeout_,
                          [&granted](Status s) { granted = s.ok(); });
      VP_CHECK_MSG(granted, "replay lock must grant on an empty table");
      Status st = env_.store->StageWrite(txn, obj, w.value, w.date, w.epoch);
      VP_CHECK(st.ok());
      rt.staged.insert(obj);
    }
  }
  stable->EndReplay();
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

NodeBase::TxnRec* NodeBase::FindTxn(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

Status NodeBase::AdmitOp(TxnId txn, TxnRec** rec_out) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return Status::NotFound("unknown transaction");
  *rec_out = rec;
  if (rec->st != cc::TxnOutcome::kActive || rec->doomed) {
    return Status::Aborted("transaction already doomed");
  }
  return Status::Ok();
}

void NodeBase::Begin(TxnId txn) {
  VP_CHECK_MSG(txns_.count(txn) == 0, "duplicate transaction id");
  TxnRec& rec = txns_[txn];
  rec.trace = tracer_->NewTraceId();
  rec.epoch = CurrentEpoch();
  rec.begun_at = env_.clock->Now();
  decisions_.MarkActive(txn);
  env_.recorder->TxnBegin(txn, id_, rec.begun_at);
  if (tracer_->enabled()) {
    tracer_->AsyncBegin(rec.trace, id_, rec.begun_at, "txn", "txn",
                        {{"txn", txn.ToString()}});
  }
  Fdr(obs::FdrKind::kTxnBegin, txn, rec.epoch);
}

void NodeBase::Abort(TxnId txn) { InternalAbort(txn); }

void NodeBase::InternalAbort(TxnId txn) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->st != cc::TxnOutcome::kActive) return;
  Decide(txn, rec, /*committed=*/false);
}

void NodeBase::Commit(TxnId txn, CommitCallback cb) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) {
    cb(Status::NotFound("unknown transaction"));
    return;
  }
  if (rec->st != cc::TxnOutcome::kActive) {
    cb(Status::Aborted("transaction already decided"));
    return;
  }
  if (rec->doomed) {
    InternalAbort(txn);
    cb(Status::Aborted("a prior operation failed"));
    return;
  }
  Status admit = ValidateCommit(*rec);
  if (!admit.ok()) {
    InternalAbort(txn);
    cb(admit);
    return;
  }
  Decide(txn, rec, /*committed=*/true);
  cb(Status::Ok());
}

void NodeBase::Decide(TxnId txn, TxnRec* rec, bool committed) {
  rec->st = committed ? cc::TxnOutcome::kCommitted : cc::TxnOutcome::kAborted;
  decisions_.Decide(txn, committed);
  if (committed && env_.stable != nullptr) {
    // Commit decisions must survive a coordinator crash: participants in
    // doubt will query us, and presumed-abort turns a forgotten commit
    // into a lost write. Aborts need no record.
    const runtime::TimePoint fsync_start = env_.clock->Now();
    env_.stable->AppendWal(storage::WalRecord{
        storage::WalRecord::Type::kDecision, txn, rec->epoch});
    rec->path.AddFsync(
        static_cast<uint64_t>(env_.clock->Now() - fsync_start));
  }
  rec->decided_at = env_.clock->Now();
  if (committed) {
    env_.recorder->TxnCommit(txn, rec->decided_at);
  } else {
    env_.recorder->TxnAbort(txn, rec->decided_at);
    ++stats_.txns_aborted;
  }
  const uint64_t total_us =
      static_cast<uint64_t>(rec->decided_at - rec->begun_at);
  hist_txn_us_->Observe(total_us);
  Fdr(obs::FdrKind::kTxnDecide, txn, committed ? 1 : 0, total_us);
  obs::TxnPathTracker::Breakdown b;
  if (committed) {
    // Critical-path attribution: committed transactions only — an abort's
    // path is cut short wherever the failure happened and would pollute
    // the latency decomposition.
    b = rec->path.Finalize(total_us);
    path_hists_.Observe(b);
  }
  rec->outcome_unacked = rec->participants;
  if (tracer_->enabled()) {
    obs::Tracer::Args end_args = {{"outcome", committed ? "commit" : "abort"}};
    if (committed) {
      end_args.emplace_back("path.lock_wait_us",
                            std::to_string(b.lock_wait_us));
      end_args.emplace_back("path.quorum_rtt_us",
                            std::to_string(b.quorum_rtt_us));
      end_args.emplace_back("path.fsync_us", std::to_string(b.fsync_us));
      end_args.emplace_back("path.retransmit_stall_us",
                            std::to_string(b.retransmit_stall_us));
      end_args.emplace_back("path.queueing_us",
                            std::to_string(b.queueing_us));
    }
    tracer_->AsyncEnd(rec->trace, id_, rec->decided_at, "txn", "txn",
                      std::move(end_args));
    if (!rec->outcome_unacked.empty()) {
      // The 2PC outcome phase: broadcast until the last participant acks.
      tracer_->AsyncBegin(rec->trace, id_, rec->decided_at, "2pc.outcome",
                          "txn", {{"participants",
                                   std::to_string(rec->participants.size())}});
    }
  }
  BroadcastOutcome(txn);
}

void NodeBase::BroadcastOutcome(TxnId txn) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->outcome_unacked.empty()) return;
  const bool committed = rec->st == cc::TxnOutcome::kCommitted;
  for (ProcessorId p : rec->outcome_unacked) {
    SendPhys(p, msg::kTxnOutcome, msg::TxnOutcomeMsg{txn, committed},
             /*on_timeout=*/nullptr, rec->trace);
  }
  ScheduleOutcomeRetry(txn);
}

void NodeBase::ScheduleOutcomeRetry(TxnId txn) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return;
  if (rec->retry_event != runtime::kInvalidTask) {
    env_.executor->Cancel(rec->retry_event);
  }
  rec->retry_event =
      env_.executor->ScheduleAfter(outcome_retry_period_, [this, txn]() {
        if (retired_) return;
        TxnRec* r = FindTxn(txn);
        if (r == nullptr) return;
        r->retry_event = runtime::kInvalidTask;
        if (Crashed()) {
          // Keep the retry loop alive; it resumes doing useful work when
          // the processor recovers (state is durable).
          ScheduleOutcomeRetry(txn);
          return;
        }
        if (!r->outcome_unacked.empty()) BroadcastOutcome(txn);
      });
}

runtime::TimePoint NodeBase::OpIssued(TxnRec* rec, bool is_write) {
  const runtime::TimePoint now = env_.clock->Now();
  (is_write ? ctr_phys_writes_issued_ : ctr_phys_reads_issued_)->Increment();
  rec->path.OpIssued(now);
  return now;
}

void NodeBase::ReadDone(TxnId txn, ObjectId obj, const ReadResult& r,
                        runtime::TimePoint issued_at, uint64_t lock_wait_us) {
  const runtime::TimePoint now = env_.clock->Now();
  ++stats_.reads_ok;
  TxnRec* rec = FindTxn(txn);
  if (rec != nullptr) rec->path.OpCompleted(now, lock_wait_us);
  env_.recorder->TxnRead(txn, obj, r.value, r.date, now);
  ctr_phys_reads_completed_->Increment();
  const uint64_t dur_us = static_cast<uint64_t>(now - issued_at);
  hist_phys_read_us_->Observe(dur_us);
  if (tracer_->enabled() && rec != nullptr) {
    tracer_->Complete(rec->trace, id_, issued_at, dur_us, "phys.read", "phys",
                      {{"obj", std::to_string(obj)},
                       {"holder", std::to_string(r.served_by)}});
  }
}

void NodeBase::WriteDone(TxnId txn, ObjectId obj, const Value& value,
                         runtime::TimePoint issued_at,
                         uint64_t lock_wait_us) {
  const runtime::TimePoint now = env_.clock->Now();
  TxnRec* rec = FindTxn(txn);
  if (rec != nullptr) rec->path.OpCompleted(now, lock_wait_us);
  env_.recorder->TxnWrite(txn, obj, value, now);
  ctr_phys_writes_completed_->Increment();
  const uint64_t dur_us = static_cast<uint64_t>(now - issued_at);
  hist_phys_write_us_->Observe(dur_us);
  if (tracer_->enabled() && rec != nullptr) {
    tracer_->Complete(rec->trace, id_, issued_at, dur_us, "phys.write",
                      "phys", {{"obj", std::to_string(obj)}});
  }
}

void NodeBase::OpFailed(TxnId txn, uint64_t lock_wait_us) {
  if (TxnRec* rec = FindTxn(txn); rec != nullptr) {
    rec->doomed = true;
    rec->path.OpCompleted(env_.clock->Now(), lock_wait_us);
  }
  InternalAbort(txn);
}

// ---------------------------------------------------------------------------
// Logical-op table.
// ---------------------------------------------------------------------------

namespace {
constexpr std::string_view kDeliveryTimeout = "delivery-timeout";
}  // namespace

NodeBase::LogicalOp& NodeBase::StartOp(TxnRec* rec, TxnId txn, ObjectId obj,
                                       bool is_write,
                                       runtime::Duration deadline,
                                       const char* expiry) {
  const uint64_t op_id = next_op_id_++;
  auto [it, inserted] = ops_.try_emplace(op_id);
  VP_CHECK(inserted);
  LogicalOp& op = it->second;
  op.id = op_id;
  op.txn = txn;
  op.obj = obj;
  op.is_write = is_write;
  op.trace = rec->trace;
  op.expiry = expiry;
  ArmDeadline(op, deadline);
  op.issued_at = OpIssued(rec, is_write);
  return op;
}

NodeBase::LogicalOp& NodeBase::StartRead(TxnRec* rec, TxnId txn, ObjectId obj,
                                         ReadCallback cb,
                                         runtime::Duration deadline,
                                         const char* expiry) {
  LogicalOp& op = StartOp(rec, txn, obj, /*is_write=*/false, deadline, expiry);
  op.read_cb = std::move(cb);
  return op;
}

NodeBase::LogicalOp& NodeBase::StartWrite(TxnRec* rec, TxnId txn,
                                          ObjectId obj, Value value,
                                          WriteCallback cb,
                                          runtime::Duration deadline,
                                          const char* expiry) {
  LogicalOp& op = StartOp(rec, txn, obj, /*is_write=*/true, deadline, expiry);
  op.value = std::move(value);
  op.write_cb = std::move(cb);
  return op;
}

void NodeBase::ArmDeadline(LogicalOp& op, runtime::Duration deadline) {
  op.deadline = env_.executor->ScheduleAfter(
      deadline, [this, op_id = op.id]() { ExpireOp(op_id); });
}

void NodeBase::RearmDeadline(LogicalOp& op, runtime::Duration deadline,
                             const char* expiry) {
  env_.executor->Cancel(op.deadline);
  op.expiry = expiry;
  ArmDeadline(op, deadline);
}

void NodeBase::SendOpRequest(LogicalOp& op, ProcessorId q,
                             msg::PhysRead req) {
  ++stats_.phys_reads_sent;
  SendOpMessage(op, q, msg::kPhysRead, std::move(req), /*is_write=*/false);
}

void NodeBase::SendOpRequest(LogicalOp& op, ProcessorId q,
                             msg::PhysWrite req) {
  ++stats_.phys_writes_sent;
  SendOpMessage(op, q, msg::kPhysWrite, std::move(req), /*is_write=*/true);
}

void NodeBase::SendOpMessage(LogicalOp& op, ProcessorId q, const char* type,
                             std::any body, bool is_write) {
  op.awaits_write_replies = is_write;
  // Channel hooks only for requests that ride the channel: raw sends
  // never retransmit or time out.
  const bool via_channel = rel_ != nullptr && q != id_;
  net::ReliableChannel::TimeoutFn on_timeout;
  if (via_channel && op_rules_.nack_on_delivery_timeout) {
    on_timeout = [this, op_id = op.id, q, is_write]() {
      if (retired_) return;
      OpReply nack;
      nack.from = q;
      nack.is_write = is_write;
      nack.error = kDeliveryTimeout;
      HandleOpReply(op_id, nack);
    };
  }
  const uint64_t rel_id =
      SendPhys(q, type, std::move(body), std::move(on_timeout), op.trace,
               via_channel ? RetransmitToPath(op.txn) : nullptr);
  if (op_rules_.cancel_leftovers && rel_id != 0) {
    op.rel_ids.emplace_back(q, rel_id);
  }
}

void NodeBase::CancelLeftovers(const LogicalOp& op) {
  for (const auto& [q, rel_id] : op.rel_ids) {
    if (op.awaiting.count(q) > 0) CancelPhys(rel_id);
  }
}

void NodeBase::KeepNewest(LogicalOp& op, const OpReply& r) {
  if (!op.have_value || op.best_date < r.date) {
    op.best_value = *r.value;
    op.best_date = r.date;
    op.have_value = true;
  }
}

NodeBase::OpStep NodeBase::OnOpReply(LogicalOp& op, const OpReply& r) {
  if (!r.ok) return OpStep::kFailed;
  if (r.value != nullptr) KeepNewest(op, r);
  op.awaiting.erase(r.from);
  return op.awaiting.empty() ? OpStep::kDone : OpStep::kPending;
}

NodeBase::LogicalOp NodeBase::TakeOp(OpTable::iterator it) {
  LogicalOp op = std::move(it->second);
  ops_.erase(it);
  env_.executor->Cancel(op.deadline);
  if (op_rules_.cancel_leftovers) CancelLeftovers(op);
  return op;
}

void NodeBase::Deliver(LogicalOp& op, Status why) {
  if (op.is_write) {
    op.write_cb(std::move(why));
  } else {
    op.read_cb(std::move(why));
  }
}

bool NodeBase::HandleOpReply(uint64_t op_id, const OpReply& r) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return false;
  LogicalOp& op = it->second;
  if (r.is_write != op.awaits_write_replies) return true;  // Stale phase.
  TxnRec* rec = FindTxn(op.txn);
  if (op_rules_.drop_replies_after_decision &&
      (rec == nullptr || rec->st != cc::TxnOutcome::kActive)) {
    LogicalOp done = TakeOp(it);
    Deliver(done, Status::Aborted("transaction aborted"));
    return true;
  }
  // A copy that granted the access holds a lock for the transaction.
  if (r.ok && rec != nullptr) rec->participants.insert(r.from);
  if (op.max_lock_wait_us < r.lock_wait_us) {
    op.max_lock_wait_us = r.lock_wait_us;
  }
  switch (OnOpReply(op, r)) {
    case OpStep::kPending:
      break;
    case OpStep::kDone: {
      LogicalOp done = TakeOp(it);
      if (done.is_write) {
        WriteDone(done.txn, done.obj, done.value, done.issued_at,
                  done.max_lock_wait_us);
        done.write_cb(Status::Ok());
      } else {
        // served_by is the copy whose reply completed the read.
        const ReadResult result{std::move(done.best_value), done.best_date,
                                r.from};
        ReadDone(done.txn, done.obj, result, done.issued_at,
                 done.max_lock_wait_us);
        done.read_cb(result);
      }
      break;
    }
    case OpStep::kFailed: {
      LogicalOp done = TakeOp(it);
      OpFailed(done.txn, done.max_lock_wait_us);
      const char* what = r.is_write ? "physical write" : "physical read";
      Deliver(done, r.error == kDeliveryTimeout
                        ? Status::Timeout(std::string(what) +
                                          " delivery deadline passed")
                        : Status::Aborted(std::string(what) + " failed: " +
                                          std::string(r.error)));
      break;
    }
  }
  return true;
}

void NodeBase::ExpireOp(uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  LogicalOp op = TakeOp(it);
  OpFailed(op.txn, op.max_lock_wait_us);
  OnOpExpired();
  Deliver(op, Status::Timeout(op.expiry));
}

// ---------------------------------------------------------------------------
// Participant side.
// ---------------------------------------------------------------------------

void NodeBase::PhysNack(ProcessorId reply_to, bool is_write, uint64_t op_id,
                        std::string reason, uint64_t trace) {
  ctr_phys_nacks_->Increment();
  if (is_write) {
    SendPhys(reply_to, msg::kPhysWriteReply,
             msg::PhysWriteReply{op_id, false, std::move(reason)}, nullptr,
             trace);
  } else {
    SendPhys(reply_to, msg::kPhysReadReply,
             msg::PhysReadReply{op_id, false, std::move(reason), Value(),
                                kEpochDate},
             nullptr, trace);
  }
}

void NodeBase::PhysServed(TxnId txn, ObjectId obj, bool is_write,
                          const Value& value) {
  if (txn.valid()) {
    RemoteTxn& rt = remote_txns_[txn];
    rt.coordinator = txn.coordinator;
    if (is_write) rt.staged.insert(obj);
    rt.last_activity = env_.clock->Now();
    env_.recorder->PhysicalOp(id_, txn, obj, is_write, env_.clock->Now());
  }
  (is_write ? ctr_phys_writes_served_ : ctr_phys_reads_served_)->Increment();
  // Recovery reads carry no transaction (the online probes must not key
  // ordering rules on the synthetic lock holder), but their served value
  // IS hashed: a rotted image served verbatim through copy-update is
  // exactly what the durable-read probe exists for.
  Fdr(is_write ? obs::FdrKind::kPhysWrite : obs::FdrKind::kPhysRead, txn, obj,
      obs::FlightRecorder::HashValue(value));
}

Status NodeBase::ValidateAccess(const TxnId&, VpId, ObjectId,
                                const std::set<ProcessorId>&, bool, bool) {
  return Status::Ok();
}

bool NodeBase::MaybeDefer(const net::Message&) { return false; }

Status NodeBase::ValidateCommit(const TxnRec&) { return Status::Ok(); }

void NodeBase::HandlePhysRead(const net::Message& m) {
  const auto& req = net::BodyAs<msg::PhysRead>(m);
  if (MaybeDefer(m)) return;
  const ProcessorId reply_to = m.src;
  const uint64_t trace = m.trace;
  if (!req.recovery && remote_outcomes_.count(req.txn) > 0) {
    // Duplicate/reordered request for an already-decided transaction.
    PhysNack(reply_to, /*is_write=*/false, req.op_id, "stale-txn", trace);
    return;
  }
  if (!req.recovery && EpochGated() && req.epoch != CurrentEpoch()) {
    // Deterministic cross-epoch rejection: a transactional access from an
    // epoch this replica is not serving must never touch its copies.
    // (Recovery reads are exempt — they are how a new epoch's copies are
    // brought current — and 2PC outcome traffic never passes through here,
    // so in-flight transactions still resolve across the boundary.)
    PhysNack(reply_to, /*is_write=*/false, req.op_id,
             req.epoch < CurrentEpoch() ? "stale-epoch" : "future-epoch",
             trace);
    return;
  }
  Status admit = ValidateAccess(req.txn, req.v, req.obj, req.footprint,
                                req.recovery, /*is_write=*/false);
  if (!admit.ok()) {
    PhysNack(reply_to, /*is_write=*/false, req.op_id,
             std::string(admit.message()), trace);
    return;
  }
  if (!env_.store->HasCopy(req.obj)) {
    PhysNack(reply_to, /*is_write=*/false, req.op_id, "no-copy", trace);
    return;
  }
  const TxnId locker = req.recovery ? SyntheticTxnId() : req.txn;
  const ObjectId obj = req.obj;
  const uint64_t op_id = req.op_id;
  const TxnId txn = req.txn;
  const bool recovery = req.recovery;
  const cc::LockMode mode =
      req.for_update ? cc::LockMode::kExclusive : cc::LockMode::kShared;
  const runtime::TimePoint wait_start = env_.clock->Now();
  env_.locks->Acquire(
      locker, obj, mode, lock_timeout_,
      [this, locker, obj, op_id, txn, recovery, reply_to, trace,
       wait_start](Status s) {
        if (!s.ok()) {
          PhysNack(reply_to, /*is_write=*/false, op_id, "lock-timeout",
                   trace);
          return;
        }
        if (!recovery && remote_outcomes_.count(txn) > 0) {
          // The outcome landed while this request waited for the lock.
          env_.locks->ReleaseAll(locker);
          PhysNack(reply_to, /*is_write=*/false, op_id, "stale-txn", trace);
          return;
        }
        auto version = env_.store->Read(obj);
        VP_CHECK(version.ok());
        if (recovery) {
          // Recovery reads release their lock immediately (§6 condition
          // (3) is met by having waited for any write lock).
          env_.locks->ReleaseAll(locker);
        } else if (auto staged = env_.store->StagedValue(txn, obj);
                   staged.has_value()) {
          // Read-your-own-writes: a transaction re-reading a copy it has
          // staged a write on must see that staged value.
          version = *staged;
        }
        PhysServed(recovery ? TxnId{} : txn, obj, /*is_write=*/false,
                   version.value().value);
        SendPhys(reply_to, msg::kPhysReadReply,
             msg::PhysReadReply{op_id, true, "", version.value().value,
                                version.value().date,
                                static_cast<uint64_t>(env_.clock->Now() -
                                                      wait_start)},
             nullptr, trace);
      });
}

void NodeBase::HandlePhysWrite(const net::Message& m) {
  const auto& req = net::BodyAs<msg::PhysWrite>(m);
  if (MaybeDefer(m)) return;
  const ProcessorId reply_to = m.src;
  const uint64_t trace = m.trace;
  if (remote_outcomes_.count(req.txn) > 0) {
    // Duplicate/reordered request for an already-decided transaction.
    PhysNack(reply_to, /*is_write=*/true, req.op_id, "stale-txn", trace);
    return;
  }
  if (EpochGated() && req.epoch != CurrentEpoch()) {
    PhysNack(reply_to, /*is_write=*/true, req.op_id,
             req.epoch < CurrentEpoch() ? "stale-epoch" : "future-epoch",
             trace);
    return;
  }
  Status admit = ValidateAccess(req.txn, req.v, req.obj, req.footprint,
                                /*is_recovery=*/false, /*is_write=*/true);
  if (!admit.ok()) {
    PhysNack(reply_to, /*is_write=*/true, req.op_id,
             std::string(admit.message()), trace);
    return;
  }
  if (!env_.store->HasCopy(req.obj)) {
    PhysNack(reply_to, /*is_write=*/true, req.op_id, "no-copy", trace);
    return;
  }
  const TxnId txn = req.txn;
  const ObjectId obj = req.obj;
  const uint64_t op_id = req.op_id;
  const Value value = req.value;
  const VpId date = req.v;
  const EpochId epoch = req.epoch;
  const runtime::TimePoint wait_start = env_.clock->Now();
  env_.locks->Acquire(
      txn, obj, cc::LockMode::kExclusive, lock_timeout_,
      [this, txn, obj, op_id, value, date, epoch, reply_to, trace,
       wait_start](Status s) {
        if (!s.ok()) {
          PhysNack(reply_to, /*is_write=*/true, op_id, "lock-timeout", trace);
          return;
        }
        if (remote_outcomes_.count(txn) > 0) {
          // The outcome landed while this request waited for the lock.
          env_.locks->ReleaseAll(txn);
          PhysNack(reply_to, /*is_write=*/true, op_id, "stale-txn", trace);
          return;
        }
        Status st = env_.store->StageWrite(txn, obj, value, date, epoch);
        if (!st.ok()) {
          PhysNack(reply_to, /*is_write=*/true, op_id,
                   std::string(st.message()), trace);
          return;
        }
        PhysServed(txn, obj, /*is_write=*/true, value);
        SendPhys(reply_to, msg::kPhysWriteReply,
             msg::PhysWriteReply{op_id, true, "",
                                 static_cast<uint64_t>(env_.clock->Now() -
                                                       wait_start)},
             nullptr, trace);
      });
}

void NodeBase::HandleLogQuery(const net::Message& m) {
  const auto& req = net::BodyAs<msg::LogQuery>(m);
  if (MaybeDefer(m)) return;
  Status admit = ValidateAccess(TxnId{}, req.v, req.obj, {},
                                /*is_recovery=*/true, /*is_write=*/false);
  const ProcessorId reply_to = m.src;
  if (!admit.ok() || !env_.store->HasCopy(req.obj)) {
    SendPhys(reply_to, msg::kLogReply, msg::LogReply{req.op_id, false, req.obj, {}});
    return;
  }
  const TxnId locker = SyntheticTxnId();
  const ObjectId obj = req.obj;
  const uint64_t op_id = req.op_id;
  const VpId after = req.after;
  env_.locks->Acquire(
      locker, obj, cc::LockMode::kShared, lock_timeout_,
      [this, locker, obj, op_id, after, reply_to](Status s) {
        if (!s.ok()) {
          SendPhys(reply_to, msg::kLogReply, msg::LogReply{op_id, false, obj, {}});
          return;
        }
        msg::LogReply reply{op_id, true, obj, {}};
        for (const storage::LogRecord& r : env_.store->LogSince(obj, after)) {
          reply.records.emplace_back(r.date, r.value, r.txn);
        }
        env_.locks->ReleaseAll(locker);
        SendPhys(reply_to, msg::kLogReply, std::move(reply));
      });
}

void NodeBase::ApplyOutcomeLocally(TxnId txn, bool committed) {
  const bool first_application = remote_outcomes_.count(txn) == 0;
  if (env_.stable != nullptr && first_application) {
    // Participant outcome memory (the stale-txn guard) must survive a
    // crash, and resolved prepares must not be re-staged on replay.
    env_.stable->AppendWal(storage::WalRecord{
        storage::WalRecord::Type::kOutcome, txn, CurrentEpoch(),
        kInvalidObject, Value(), kEpochDate, committed});
  }
  if (first_application) {
    Fdr(obs::FdrKind::kOutcomeApplied, txn, committed ? 1 : 0);
  }
  remote_outcomes_[txn] = committed;
  auto it = remote_txns_.find(txn);
  if (it != remote_txns_.end()) {
    for (ObjectId obj : it->second.staged) {
      if (committed) {
        Status s = env_.store->CommitStage(txn, obj);
        VP_CHECK(s.ok());
      } else {
        env_.store->DiscardStage(txn, obj);
      }
    }
    remote_txns_.erase(it);
  }
  env_.locks->ReleaseAll(txn);
}

void NodeBase::HandleTxnOutcome(const net::Message& m) {
  const auto& body = net::BodyAs<msg::TxnOutcomeMsg>(m);
  ApplyOutcomeLocally(body.txn, body.committed);
  SendPhys(m.src, msg::kTxnOutcomeAck, msg::TxnOutcomeAck{body.txn, id_},
           nullptr, m.trace);
}

void NodeBase::HandleTxnOutcomeAck(const net::Message& m) {
  const auto& body = net::BodyAs<msg::TxnOutcomeAck>(m);
  TxnRec* rec = FindTxn(body.txn);
  if (rec == nullptr) return;
  const bool had_unacked = !rec->outcome_unacked.empty();
  rec->outcome_unacked.erase(body.from);
  if (rec->outcome_unacked.empty() && had_unacked) {
    const runtime::TimePoint now = env_.clock->Now();
    hist_outcome_ack_us_->Observe(
        static_cast<uint64_t>(now - rec->decided_at));
    tracer_->AsyncEnd(rec->trace, id_, now, "2pc.outcome", "txn");
  }
  if (rec->outcome_unacked.empty() &&
      rec->retry_event != runtime::kInvalidTask) {
    env_.executor->Cancel(rec->retry_event);
    rec->retry_event = runtime::kInvalidTask;
  }
}

void NodeBase::HandleTxnStatusQuery(const net::Message& m) {
  const auto& body = net::BodyAs<msg::TxnStatusQuery>(m);
  SendPhys(m.src, msg::kTxnStatusReply,
       msg::TxnStatusReply{body.txn, decisions_.Query(body.txn)}, nullptr,
       m.trace);
}

void NodeBase::HandleTxnStatusReply(const net::Message& m) {
  const auto& body = net::BodyAs<msg::TxnStatusReply>(m);
  switch (body.outcome) {
    case cc::TxnOutcome::kActive:
      if (auto it = remote_txns_.find(body.txn); it != remote_txns_.end()) {
        it->second.last_activity = env_.clock->Now();
      }
      break;
    case cc::TxnOutcome::kCommitted:
      ApplyOutcomeLocally(body.txn, /*committed=*/true);
      break;
    case cc::TxnOutcome::kAborted:
      ApplyOutcomeLocally(body.txn, /*committed=*/false);
      break;
  }
}

void NodeBase::InDoubtSweep() {
  const runtime::TimePoint now = env_.clock->Now();
  const runtime::Duration patience = 4 * outcome_retry_period_;
  std::vector<std::pair<TxnId, bool>> local_resolved;
  for (const auto& [txn, rt] : remote_txns_) {
    if (now - rt.last_activity < patience) continue;
    if (txn.coordinator == id_) {
      // Self-coordinated: consult the local decision log directly. This
      // covers stages created by a deferred physical write replayed AFTER
      // the outcome was already delivered and acknowledged (the outcome
      // broadcast will not repeat for us).
      const cc::TxnOutcome outcome = decisions_.Query(txn);
      if (outcome != cc::TxnOutcome::kActive) {
        local_resolved.emplace_back(txn,
                                    outcome == cc::TxnOutcome::kCommitted);
      }
      continue;
    }
    SendPhys(rt.coordinator, msg::kTxnStatusQuery, msg::TxnStatusQuery{txn, id_});
  }
  for (const auto& [txn, committed] : local_resolved) {
    ApplyOutcomeLocally(txn, committed);
  }
}

void NodeBase::ScheduleInDoubtSweep() {
  env_.executor->ScheduleAfter(2 * outcome_retry_period_, [this]() {
    if (retired_) return;
    if (!Crashed()) InDoubtSweep();
    ScheduleInDoubtSweep();
  });
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void NodeBase::HandleMessage(const net::Message& m) {
  if (Crashed()) return;  // Defensive; the network already drops these.
  if (rel_ != nullptr &&
      rel_->HandleMessage(
          m, [this](const net::Message& inner) { Dispatch(inner); })) {
    return;  // Envelope or ack, consumed (and unwrapped) by the channel.
  }
  Dispatch(m);
}

void NodeBase::Dispatch(const net::Message& m) {
  if (m.type == msg::kPhysRead) {
    HandlePhysRead(m);
  } else if (m.type == msg::kPhysWrite) {
    HandlePhysWrite(m);
  } else if (m.type == msg::kPhysReadReply) {
    const auto& body = net::BodyAs<msg::PhysReadReply>(m);
    OpReply r;
    r.from = m.src;
    r.ok = body.ok;
    r.error = body.error;
    r.lock_wait_us = body.lock_wait_us;
    r.value = &body.value;
    r.date = body.date;
    if (!HandleOpReply(body.op_id, r)) HandleProtocolMessage(m);
  } else if (m.type == msg::kPhysWriteReply) {
    const auto& body = net::BodyAs<msg::PhysWriteReply>(m);
    OpReply r;
    r.from = m.src;
    r.is_write = true;
    r.ok = body.ok;
    r.error = body.error;
    r.lock_wait_us = body.lock_wait_us;
    if (!HandleOpReply(body.op_id, r)) HandleProtocolMessage(m);
  } else if (m.type == msg::kLogQuery) {
    HandleLogQuery(m);
  } else if (m.type == msg::kTxnOutcome) {
    HandleTxnOutcome(m);
  } else if (m.type == msg::kTxnOutcomeAck) {
    HandleTxnOutcomeAck(m);
  } else if (m.type == msg::kTxnStatusQuery) {
    HandleTxnStatusQuery(m);
  } else if (m.type == msg::kTxnStatusReply) {
    HandleTxnStatusReply(m);
  } else {
    const bool handled = HandleProtocolMessage(m);
    VP_CHECK_MSG(handled, "unknown message type");
  }
}

}  // namespace vp::core
