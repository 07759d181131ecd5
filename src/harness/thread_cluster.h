// The thread backend: the replicated system (harness/assembly.h) built
// over runtime::ThreadRuntime instead of the simulator, plus a blocking
// client API.
//
// There is no failure injector, no stable storage and no determinism here —
// the simulator owns fault exploration. ThreadCluster's job is the
// complementary evidence the simulator cannot give: the protocol state
// machines running under genuine hardware concurrency (many client threads,
// strand-parallel nodes, TSan-clean) and real-time throughput/latency
// numbers for bench_throughput.
#ifndef VPART_HARNESS_THREAD_CLUSTER_H_
#define VPART_HARNESS_THREAD_CLUSTER_H_

#include <utility>
#include <vector>

#include "harness/assembly.h"
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
  // Callable from any thread that is not a runtime worker (each call parks
  // the caller until protocol callbacks fire on the node's strand).

  struct Op {
    enum class Kind { kRead, kWrite, kIncrement } kind = Kind::kRead;
    ObjectId obj = kInvalidObject;
    Value value;  // For writes.
  };
  static Op Read(ObjectId obj) { return Op{Op::Kind::kRead, obj, ""}; }
  static Op Write(ObjectId obj, Value v) {
    return Op{Op::Kind::kWrite, obj, std::move(v)};
  }
  /// Read obj, then write read-value + 1 (counter increment).
  static Op Increment(ObjectId obj) {
    return Op{Op::Kind::kIncrement, obj, ""};
  }

  struct TxnResult {
    bool committed = false;
    Status failure;            // First failing status, if any.
    std::vector<Value> reads;  // Values returned by kRead/kIncrement ops.
    /// Wall-clock begin-to-decision time (runtime clock microseconds).
    runtime::Duration latency = 0;
  };

  /// Runs one transaction, coordinated at `at`, to its decision. On an
  /// operation failure the transaction is aborted and the failure reported.
  /// A call racing Stop() returns an aborted result with an Unavailable
  /// "runtime stopped" status instead of blocking forever; callers should
  /// still quiesce clients before Stop — a transaction whose protocol
  /// round trips are already in flight when the runtime halts keeps
  /// waiting on callbacks that will never fire.
  TxnResult RunTxn(ProcessorId at, const std::vector<Op>& ops);

  /// Stops the runtime (idempotent): timers are dropped, workers join.
  /// Call before Certify or any other whole-history inspection.
  void Stop() { runtime_.Stop(); }

  /// Theorem 1′ certification of everything committed so far. Quiesce
  /// (Stop) first — the checker walks the recorder without snapshotting.
  history::CertifyResult Certify() const { return assembly_.Certify(); }

 private:
  const ThreadClusterConfig config_;
  /// Declared before runtime_: the runtime caches counter handles from this
  /// registry in its constructor.
  obs::MetricsRegistry metrics_{obs::RegistryMode::kConcurrent};
  runtime::ThreadRuntime runtime_;
  /// Declared after the runtime, so its nodes and lock managers die while
  /// the (stopped) runtime their timers cancel into is still alive.
  Assembly assembly_;
};

}  // namespace vp::harness

#endif  // VPART_HARNESS_THREAD_CLUSTER_H_
