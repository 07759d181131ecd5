// Substrate microbenchmarks (google-benchmark): event-kernel throughput and
// timer arm/cancel, simulated message delivery, the reliable channel's
// round trip, lock manager, replica store, certifier replay, and
// end-to-end simulated-transaction rate. These measure the simulator
// itself, not the protocol claims (see the other bench binaries for those).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "common/rng.h"
#include "harness/cluster.h"
#include "runtime/sim_runtime.h"
#include "history/checker.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "net/topology.h"
#include "sim/scheduler.h"
#include "storage/replica_store.h"
#include "workload/client.h"

namespace vp {
namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) s.ScheduleAfter(i, [] {});
    benchmark::DoNotOptimize(s.RunUntilIdle());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleRun);

void BM_SchedulerTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    int depth = 0;
    std::function<void()> next = [&] {
      if (++depth < 1000) s.ScheduleAfter(1, next);
    };
    s.ScheduleAfter(1, next);
    s.RunUntilIdle();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerTimerChain);

void BM_SchedulerArmCancel(benchmark::State& state) {
  // The protocol's timer shape: most timeouts are cancelled by the reply
  // they guard. Arm n, cancel 90%, run the rest.
  const int n = static_cast<int>(state.range(0));
  sim::Scheduler s;
  std::vector<sim::EventId> ids(n);
  uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      ids[i] = s.ScheduleAfter(1 + i % 97, [&fired, i] { fired += i; });
    }
    for (int i = 0; i < n; ++i) {
      if (i % 10 != 0) s.Cancel(ids[i]);
    }
    s.RunUntilIdle();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerArmCancel)->Arg(1000);

/// Counts deliveries; the micro cases below need an endpoint and no more.
struct SinkNode : public net::NodeInterface {
  uint64_t received = 0;
  void HandleMessage(const net::Message&) override { ++received; }
};

void BM_NetworkDeliverMessage(benchmark::State& state) {
  // One simulated send → delivery of a message whose body holds a string,
  // as phys-write payloads do.
  sim::Scheduler s;
  net::CommGraph graph(2);
  net::Network network(&s, &graph, net::NetworkConfig{}, 42);
  SinkNode a, b;
  network.Register(0, &a);
  network.Register(1, &b);
  const std::string value(100, 'v');
  for (auto _ : state) {
    network.Send(0, 1, "write", std::any(value));
    s.RunUntilIdle();
  }
  benchmark::DoNotOptimize(b.received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkDeliverMessage);

/// A network endpoint that routes traffic through its reliable channel.
struct ReliableEndpoint : public net::NodeInterface {
  net::ReliableChannel channel;
  uint64_t delivered = 0;
  ReliableEndpoint(runtime::SimRuntime* rt, ProcessorId id)
      : channel(rt->clock(), rt->executor(), rt->transport(), id,
                /*incarnation=*/0, net::ReliableConfig{}) {}
  void HandleMessage(const net::Message& m) override {
    channel.HandleMessage(m, [this](const net::Message&) { ++delivered; });
  }
};

void BM_ReliableRoundTrip(benchmark::State& state) {
  // Send, deliver and ack one message over the reliable channel: the
  // envelope, the receiver's dedup, the ack and the retransmit timer's
  // arm and cancel.
  sim::Scheduler s;
  net::CommGraph graph(2);
  net::Network network(&s, &graph, net::NetworkConfig{}, 42);
  runtime::SimRuntime rt(&s, &network);
  ReliableEndpoint a(&rt, 0), b(&rt, 1);
  network.Register(0, &a);
  network.Register(1, &b);
  const std::string value(100, 'v');
  for (auto _ : state) {
    a.channel.Send(1, "write", std::any(value));
    s.RunUntilIdle();
  }
  benchmark::DoNotOptimize(b.delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReliableRoundTrip);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  Rng rng(42);
  ZipfGenerator zipf(static_cast<uint64_t>(state.range(0)), 0.99);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(rng));
}
BENCHMARK(BM_ZipfNext)->Arg(100)->Arg(100000);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Scheduler s;
  runtime::SimExecutor ex(&s);
  cc::LockManager lm(&ex);
  uint64_t seq = 0;
  for (auto _ : state) {
    TxnId txn{0, ++seq};
    for (ObjectId obj = 0; obj < 8; ++obj) {
      lm.Acquire(txn, obj, cc::LockMode::kExclusive, sim::Seconds(1),
                 [](Status) {});
    }
    lm.ReleaseAll(txn);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_LockAcquireRelease);

void BM_StoreStageCommit(benchmark::State& state) {
  storage::ReplicaStore store;
  store.CreateCopy(0, "init");
  uint64_t seq = 0;
  for (auto _ : state) {
    TxnId txn{0, ++seq};
    benchmark::DoNotOptimize(store.StageWrite(txn, 0, "value", VpId{seq, 0}));
    benchmark::DoNotOptimize(store.CommitStage(txn, 0));
  }
}
BENCHMARK(BM_StoreStageCommit);

void BM_CertifierReplay(benchmark::State& state) {
  // Build a chain of n committed transactions and certify it.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<history::TxnHistory> txns;
  std::string prev = "0";
  for (size_t i = 0; i < n; ++i) {
    history::TxnHistory h;
    h.id = TxnId{0, i + 1};
    h.vp = VpId{1, 0};
    h.vp_first = h.vp;
    h.has_vp = true;
    h.decided = true;
    h.committed = true;
    h.decided_at = static_cast<sim::SimTime>(i);
    h.ops.push_back(history::LogicalOp{history::LogicalOp::Kind::kRead, 0,
                                       prev, kEpochDate, 0});
    prev = "v" + std::to_string(i);
    h.ops.push_back(history::LogicalOp{history::LogicalOp::Kind::kWrite, 0,
                                       prev, kEpochDate, 0});
    txns.push_back(std::move(h));
  }
  history::InitialDb db{{0, "0"}};
  for (auto _ : state) {
    auto result = history::CertifyOneCopySR(txns, db);
    benchmark::DoNotOptimize(result.ok);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CertifierReplay)->Arg(100)->Arg(10000);

void BM_EndToEndSimulatedSecond(benchmark::State& state) {
  // Wall-clock cost of simulating 1 s of a busy 5-node VP cluster.
  for (auto _ : state) {
    harness::ClusterConfig config;
    config.n_processors = 5;
    config.n_objects = 16;
    config.seed = 42;
    config.protocol = harness::Protocol::kVirtualPartition;
    harness::Cluster cluster(config);
    cluster.RunFor(sim::Seconds(1));
    std::vector<core::NodeBase*> nodes;
    for (ProcessorId p = 0; p < 5; ++p) nodes.push_back(&cluster.node(p));
    workload::ClientConfig cc;
    cc.think_time = sim::Millis(2);
    auto clients = workload::MakeClients(nodes, cluster.runtime_view(), 16, cc);
    for (auto& c : clients) c->Start();
    cluster.RunFor(sim::Seconds(1));
    benchmark::DoNotOptimize(workload::Aggregate(clients).txns_committed);
  }
}
BENCHMARK(BM_EndToEndSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vp

BENCHMARK_MAIN();
