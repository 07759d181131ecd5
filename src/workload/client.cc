#include "workload/client.h"

#include <utility>

#include "common/logging.h"

namespace vp::workload {

Client::Client(NodeProvider provider, runtime::RuntimeView rt,
               ObjectId n_objects, ClientConfig config)
    : node_provider_(std::move(provider)),
      rt_(rt),
      config_(config),
      rng_(config.seed),
      zipf_(n_objects, config.zipf_theta) {
  VP_CHECK(rt_.complete());
  VP_CHECK(n_objects > 0);
  VP_CHECK(config_.ops_per_txn > 0);
  VP_CHECK(node_provider_() != nullptr);
}

Client::Client(core::NodeBase* node, runtime::RuntimeView rt,
               ObjectId n_objects, ClientConfig config)
    : Client(NodeProvider([node]() { return node; }), rt, n_objects,
             config) {}

void Client::Start(runtime::Duration initial_delay) {
  rt_.executor->ScheduleAfter(initial_delay, [this]() { StartTxn(); });
}

void Client::ScheduleNext() {
  if (stopped_) return;
  rt_.executor->ScheduleAfter(config_.think_time,
                              [this]() { StartTxn(); });
}

void Client::StartTxn() {
  if (stopped_) return;
  // A reboot may have replaced the node object.
  core::NodeBase* node = node_provider_();
  if (!rt_.transport->Alive(node->processor())) {
    // Processor is down; retry once it recovers.
    ScheduleNext();
    return;
  }
  std::vector<harness::TxnOp> ops;
  ops.reserve(config_.ops_per_txn);
  for (uint32_t i = 0; i < config_.ops_per_txn; ++i) {
    const bool is_write = !rng_.Bernoulli(config_.read_fraction);
    const auto obj = static_cast<ObjectId>(zipf_.Next(rng_));
    if (!is_write) {
      ops.push_back(harness::Read(obj));
    } else if (config_.rmw) {
      ops.push_back(harness::Increment(obj));
    } else {
      ops.push_back(harness::UniqueWrite(obj));
    }
  }
  const runtime::TimePoint start = rt_.clock->Now();
  harness::StartTxnProgram(
      *node, std::move(ops),
      [this, start](harness::TxnResult r) { Count(r, start); },
      [this, node](size_t next, std::function<void(Status)> proceed) {
        BeforeStep(node, next, std::move(proceed));
      });
}

void Client::BeforeStep(core::NodeBase* node, size_t next,
                        std::function<void(Status)> proceed) {
  auto step = [this, node, proceed = std::move(proceed)]() {
    // The processor rebooted mid-transaction (crash-amnesia): the program's
    // node object is retired and must not be spoken to. The transaction's
    // volatile coordinator state died with it; presumed abort resolves any
    // staged writes.
    proceed(node == node_provider_() ? Status::Ok()
                                     : Status::Aborted("coordinator rebooted"));
  };
  if (next < config_.ops_per_txn && config_.op_gap > 0) {
    // Interactive-transaction pacing: wait, then issue the op.
    rt_.executor->ScheduleAfter(config_.op_gap, std::move(step));
    return;
  }
  step();
}

void Client::Count(const harness::TxnResult& r, runtime::TimePoint start) {
  stats_.reads_done += r.reads.size();
  stats_.writes_done += r.writes;
  if (r.committed) {
    ++stats_.txns_committed;
    stats_.total_commit_latency += rt_.clock->Now() - start;
  } else {
    ++stats_.txns_aborted;
    if (r.failure.IsUnavailable()) {
      ++stats_.aborts_unavailable;
    } else if (r.failure.IsTimeout()) {
      ++stats_.aborts_timeout;
    } else {
      ++stats_.aborts_other;
    }
  }
  ScheduleNext();
}

std::vector<std::unique_ptr<Client>> MakeClients(
    std::vector<core::NodeBase*> nodes, runtime::RuntimeView rt,
    ObjectId n_objects, const ClientConfig& config) {
  std::vector<NodeProvider> providers;
  providers.reserve(nodes.size());
  for (core::NodeBase* node : nodes) {
    providers.push_back([node]() { return node; });
  }
  return MakeClients(std::move(providers), rt, n_objects, config);
}

std::vector<std::unique_ptr<Client>> MakeClients(
    std::vector<NodeProvider> providers, runtime::RuntimeView rt,
    ObjectId n_objects, const ClientConfig& config) {
  std::vector<std::unique_ptr<Client>> out;
  uint64_t i = 0;
  for (NodeProvider& provider : providers) {
    ClientConfig c = config;
    c.seed = config.seed * 7919 + 104729 * (++i);
    out.push_back(std::make_unique<Client>(std::move(provider), rt,
                                           n_objects, c));
  }
  return out;
}

ClientStats Aggregate(const std::vector<std::unique_ptr<Client>>& clients) {
  ClientStats sum;
  for (const auto& c : clients) {
    const ClientStats& s = c->stats();
    sum.txns_committed += s.txns_committed;
    sum.txns_aborted += s.txns_aborted;
    sum.aborts_unavailable += s.aborts_unavailable;
    sum.aborts_timeout += s.aborts_timeout;
    sum.aborts_other += s.aborts_other;
    sum.reads_done += s.reads_done;
    sum.writes_done += s.writes_done;
    sum.total_commit_latency += s.total_commit_latency;
  }
  return sum;
}

}  // namespace vp::workload
