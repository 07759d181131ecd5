#include "harness/thread_cluster.h"

#include <future>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace vp::harness {

namespace {
runtime::ThreadRuntime::Config WithMetrics(runtime::ThreadRuntime::Config c,
                                           obs::MetricsRegistry* registry) {
  if (c.metrics == nullptr) c.metrics = registry;
  return c;
}

TxnResult Stopped() {
  TxnResult r;
  r.failure = Status::Unavailable("runtime stopped");
  return r;
}
}  // namespace

ThreadCluster::ThreadCluster(ThreadClusterConfig config)
    : config_(std::move(config)),
      runtime_(config_.n_processors, WithMetrics(config_.runtime, &metrics_)),
      in_flight_(config_.n_processors),
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

ThreadCluster::~ThreadCluster() { Stop(); }

void ThreadCluster::ProposeReconfig(ProcessorId p,
                                    std::vector<ReconfigOp> ops) {
  core::VpNode* node = &assembly_.vp_node(p);
  // A false return means the runtime already stopped; the proposal is
  // simply not queued (nothing to clean up).
  (void)runtime_.RunOn(p, [node, ops = std::move(ops)]() mutable {
    node->ProposeReconfig(std::move(ops));
  });
}

// The promise a RunTxn caller waits on. Only the program's closures own
// the ticket, so one whose closures die unrun (Stop's drain, a submission
// refused after Stop) settles itself as stopped. The caller reads the
// future's own state, never the program the strand may be destroying.
struct ThreadCluster::Ticket {
  ~Ticket() { Settle(Stopped()); }

  /// Fulfils the promise once; later calls are no-ops.
  void Settle(TxnResult r) {
    if (settled) return;
    settled = true;
    if (in_flight != nullptr) in_flight->erase(this);
    promise.set_value(std::move(r));
  }

  std::promise<TxnResult> promise;
  bool settled = false;
  std::unordered_set<Ticket*>* in_flight = nullptr;
};

ThreadCluster::TxnResult ThreadCluster::RunTxn(ProcessorId at,
                                               const std::vector<Op>& ops) {
  VP_CHECK(at < size());
  const runtime::TimePoint begin = runtime_.clock()->Now();
  auto ticket = std::make_shared<Ticket>();
  std::future<TxnResult> decided = ticket->promise.get_future();
  // A refused submission (runtime stopped) drops the closure, and with it
  // the ticket, which settles the future.
  (void)runtime_.executor(at)->ScheduleAfter(
      0, [this, at, ops, ticket = std::move(ticket)]() mutable {
        ticket->in_flight = &in_flight_[at];
        in_flight_[at].insert(ticket.get());
        StartTxnProgram(node(at), std::move(ops), [ticket](TxnResult r) {
          ticket->Settle(std::move(r));
        });
      });
  TxnResult result = decided.get();
  result.latency = runtime_.clock()->Now() - begin;
  return result;
}

void ThreadCluster::Stop() {
  std::lock_guard<std::mutex> lk(stop_mu_);
  runtime_.Stop();
  // The workers joined: no strand runs, so the registries are ours. A
  // program still registered waits on a callback that will never fire.
  for (auto& programs : in_flight_) {
    while (!programs.empty()) (*programs.begin())->Settle(Stopped());
  }
}

}  // namespace vp::harness
