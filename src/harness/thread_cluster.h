// The thread backend: the replicated system (harness/assembly.h) built
// over runtime::ThreadRuntime instead of the simulator, plus a blocking
// client API that runs each transaction as one strand task.
//
// There is no failure injector, no stable storage and no determinism here —
// the simulator owns fault exploration. ThreadCluster's job is the
// complementary evidence the simulator cannot give: the protocol state
// machines running under genuine hardware concurrency (many client threads,
// strand-parallel nodes, TSan-clean) and real-time throughput/latency
// numbers for bench_throughput.
#ifndef VPART_HARNESS_THREAD_CLUSTER_H_
#define VPART_HARNESS_THREAD_CLUSTER_H_

#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness/assembly.h"
#include "harness/txn_program.h"
#include "runtime/thread_runtime.h"

namespace vp::harness {

/// The system (AssemblyConfig) plus the thread runtime's knobs. Nodes get
/// no stable device, so crashes (SetAlive) retain memory.
struct ThreadClusterConfig : AssemblyConfig {
  runtime::ThreadRuntime::Config runtime;
};

class ThreadCluster {
 public:
  explicit ThreadCluster(ThreadClusterConfig config);
  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;
  /// Stops the runtime before tearing down nodes, so no task can touch a
  /// dead node.
  ~ThreadCluster();

  uint32_t size() const { return config_.n_processors; }
  runtime::ThreadRuntime& runtime() { return runtime_; }
  /// Cluster-wide registry (concurrent mode: sharded counters, safe from
  /// every worker and client thread). The runtime's own wheel/queue metrics
  /// land here too.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return assembly_.tracer(); }
  /// Flight recorder (concurrent mode: per-strand single-writer rings).
  obs::FlightRecorder& fdr() { return assembly_.fdr(); }
  obs::ProbeEngine& probes() { return assembly_.probes(); }
  const obs::ProbeEngine& probes() const { return assembly_.probes(); }
  core::NodeBase& node(ProcessorId p) { return assembly_.node(p); }
  history::Recorder& recorder() { return assembly_.recorder(); }
  /// Epoch chain shared by every node (slot 0 = the initial placement).
  storage::PlacementDirectory& placements() { return assembly_.placements(); }

  /// Queues a reconfiguration batch at processor `p` (VP protocol only),
  /// on p's strand; returns once it is queued, not once it commits. Watch
  /// the `vp.epoch` gauge or the directory's LatestEpoch for the commit.
  void ProposeReconfig(ProcessorId p, std::vector<ReconfigOp> ops);
  /// Inspect only while quiesced (before clients start or after Stop).
  storage::ReplicaStore& store(ProcessorId p) { return assembly_.store(p); }
  const ThreadClusterConfig& config() const { return config_; }

  // --- Blocking client API ---
  // Callable from any thread that is not a runtime worker. A transaction is
  // one task on its coordinator's strand (harness/txn_program.h); the
  // caller parks once, until the decision.

  using Op = TxnOp;
  using TxnResult = harness::TxnResult;
  static Op Read(ObjectId obj) { return harness::Read(obj); }
  static Op Write(ObjectId obj, Value v) {
    return harness::Write(obj, std::move(v));
  }
  static Op Increment(ObjectId obj) { return harness::Increment(obj); }

  /// Runs one transaction, coordinated at `at`, to its decision: submits
  /// the whole program to `at`'s strand and waits for its one hand-back.
  /// On an operation failure the transaction is aborted and the failure
  /// reported. A call that races or follows Stop() returns an aborted
  /// result with an Unavailable "runtime stopped" status instead of
  /// blocking: Stop settles every program still waiting on a callback.
  TxnResult RunTxn(ProcessorId at, const std::vector<Op>& ops);

  /// Stops the runtime (idempotent; concurrent calls serialize, each
  /// returning once done): timers are dropped, workers join, and every
  /// RunTxn still in flight returns "runtime stopped". Call before Certify
  /// or any other whole-history inspection (the destructor calls it too).
  void Stop();

  /// Theorem 1′ certification of everything committed so far. Quiesce
  /// (Stop) first — the checker walks the recorder without snapshotting.
  history::CertifyResult Certify() const { return assembly_.Certify(); }

 private:
  /// One RunTxn's hand-back (defined in thread_cluster.cc).
  struct Ticket;

  const ThreadClusterConfig config_;
  /// Declared before runtime_: the runtime caches counter handles from this
  /// registry in its constructor.
  obs::MetricsRegistry metrics_{obs::RegistryMode::kConcurrent};
  runtime::ThreadRuntime runtime_;
  /// Per coordinator, the programs started on its strand and not yet
  /// decided. Touched only on that strand, or by Stop after the workers
  /// joined. Outlives assembly_, whose pending callbacks own tickets.
  std::vector<std::unordered_set<Ticket*>> in_flight_;
  std::mutex stop_mu_;  // Serializes Stop, whose settle loop walks in_flight_.
  /// Declared after the runtime, so its nodes and lock managers die while
  /// the (stopped) runtime their timers cancel into is still alive.
  Assembly assembly_;
};

}  // namespace vp::harness

#endif  // VPART_HARNESS_THREAD_CLUSTER_H_
