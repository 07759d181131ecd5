#include "harness/thread_cluster.h"

#include <future>
#include <string>
#include <utility>

#include "common/logging.h"

namespace vp::harness {

namespace {
runtime::ThreadRuntime::Config WithMetrics(runtime::ThreadRuntime::Config c,
                                           obs::MetricsRegistry* registry) {
  if (c.metrics == nullptr) c.metrics = registry;
  return c;
}
}  // namespace

ThreadCluster::ThreadCluster(ThreadClusterConfig config)
    : config_(std::move(config)),
      runtime_(config_.n_processors, WithMetrics(config_.runtime, &metrics_)),
      // Each lock manager schedules its timeout tasks on its own node's
      // strand, so its state is strand-serialized like the node itself.
      assembly_(config_, Substrate{
                             .clock = runtime_.clock(),
                             .transport = runtime_.transport(),
                             .executor = [this](ProcessorId p) {
                               return runtime_.executor(p);
                             },
                             .metrics = &metrics_,
                             // No stable device: crashes retain memory.
                             .stable = nullptr,
                             .jitter_salt = 0,
                         }) {
  // Start on the owning strand: Start registers the transport endpoint and
  // arms timers, and every later touch of node state happens on its strand.
  // The runtime was just constructed, so these cannot race a Stop.
  for (ProcessorId p = 0; p < size(); ++p) {
    VP_CHECK(runtime_.RunOn(p, [this, p] { node(p).Start(); }));
  }
}

ThreadCluster::~ThreadCluster() { runtime_.Stop(); }

void ThreadCluster::ProposeReconfig(ProcessorId p,
                                    std::vector<ReconfigOp> ops) {
  core::VpNode* node = &assembly_.vp_node(p);
  // A false return means the runtime already stopped; the proposal is
  // simply not queued (nothing to clean up).
  (void)runtime_.RunOn(p, [node, ops = std::move(ops)]() mutable {
    node->ProposeReconfig(std::move(ops));
  });
}

ThreadCluster::TxnResult ThreadCluster::RunTxn(ProcessorId at,
                                               const std::vector<Op>& ops) {
  VP_CHECK(at < size());
  core::NodeBase* node = &assembly_.node(at);
  TxnResult result;
  const runtime::TimePoint begin = runtime_.clock()->Now();

  // Any RunOn that reports the runtime stopped aborts the transaction with
  // an explicit status instead of waiting on a promise no task will ever
  // fulfill (the Stop/RunOn hang the sharded runtime's drain closes).
  const Status stopped = Status::Unavailable("runtime stopped");

  TxnId txn;
  if (!runtime_.RunOn(at, [&] {
        txn = node->NewTxnId();
        node->Begin(txn);
      })) {
    result.committed = false;
    result.failure = stopped;
    result.latency = runtime_.clock()->Now() - begin;
    return result;
  }

  // One blocking round trip per operation: the call into the node runs on
  // its strand, the protocol callback fulfills the promise, the client
  // thread parks in between — the threaded analogue of pumping the sim.
  auto read_step = [&](ObjectId obj, Value* out) -> Status {
    std::promise<Result<core::ReadResult>> done;
    std::future<Result<core::ReadResult>> fut = done.get_future();
    if (!runtime_.RunOn(at, [&] {
          node->LogicalRead(txn, obj, [&done](Result<core::ReadResult> r) {
            done.set_value(std::move(r));
          });
        })) {
      return stopped;
    }
    Result<core::ReadResult> r = fut.get();
    if (!r.ok()) return r.status();
    *out = r.value().value;
    return Status::Ok();
  };
  auto write_step = [&](ObjectId obj, Value value) -> Status {
    std::promise<Status> done;
    std::future<Status> fut = done.get_future();
    if (!runtime_.RunOn(at, [&] {
          node->LogicalWrite(txn, obj, std::move(value),
                             [&done](Status s) { done.set_value(s); });
        })) {
      return stopped;
    }
    return fut.get();
  };

  Status failed = Status::Ok();
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kRead: {
        Value v;
        failed = read_step(op.obj, &v);
        if (failed.ok()) result.reads.push_back(std::move(v));
        break;
      }
      case Op::Kind::kWrite:
        failed = write_step(op.obj, op.value);
        break;
      case Op::Kind::kIncrement: {
        Value v;
        failed = read_step(op.obj, &v);
        if (!failed.ok()) break;
        result.reads.push_back(v);
        const int64_t n = std::strtoll(v.c_str(), nullptr, 10);
        failed = write_step(op.obj, std::to_string(n + 1));
        break;
      }
    }
    if (!failed.ok()) break;
  }

  if (!failed.ok()) {
    // Best effort: if the runtime stopped, there is no strand to abort on
    // (and no lock manager task left to care).
    (void)runtime_.RunOn(at, [&] { node->Abort(txn); });
    result.committed = false;
    result.failure = failed;
    result.latency = runtime_.clock()->Now() - begin;
    return result;
  }

  std::promise<Status> decided;
  std::future<Status> fut = decided.get_future();
  if (!runtime_.RunOn(at, [&] {
        node->Commit(txn, [&decided](Status s) { decided.set_value(s); });
      })) {
    result.committed = false;
    result.failure = stopped;
    result.latency = runtime_.clock()->Now() - begin;
    return result;
  }
  const Status commit = fut.get();
  result.committed = commit.ok();
  if (!commit.ok()) result.failure = commit;
  result.latency = runtime_.clock()->Now() - begin;
  return result;
}

}  // namespace vp::harness
