// The runtime-independent half of a cluster: one replica-control node per
// processor and everything it is wired to, built the same way on every
// backend. From an AssemblyConfig and the runtime interfaces a backend
// lends it (Substrate), Assembly derives the copy placement and its epoch
// directory, creates each processor's replica store (holding the initial
// copies) and lock manager, wires the execution recorder, tracer, flight
// recorder and online probes, fills one NodeEnv per processor, constructs
// the node class of the configured protocol, and certifies the recorded
// history.
//
// A backend (harness::Cluster on the simulator, harness::ThreadCluster on
// real threads) owns the substrate, declares its Assembly after it — so
// every node and lock manager dies before the executor their timers
// cancel into — and starts the nodes its own way.
#ifndef VPART_HARNESS_ASSEMBLY_H_
#define VPART_HARNESS_ASSEMBLY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "core/node_base.h"
#include "core/vp_config.h"
#include "core/vp_node.h"
#include "history/checker.h"
#include "history/recorder.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/trace.h"
#include "protocols/naive_view_node.h"
#include "protocols/quorum_node.h"
#include "runtime/runtime.h"
#include "storage/placement.h"
#include "storage/replica_store.h"
#include "storage/stable_store.h"

namespace vp::harness {

/// Which replica-control protocol the cluster runs.
enum class Protocol {
  kVirtualPartition,
  kQuorum,           // Gifford weighted voting (QuorumConfig).
  kMajorityVoting,   // Thomas: r = w = majority.
  kRowa,             // read-one/write-all, no views.
  kNaiveView,        // §4 strawman (incorrect by design).
};

std::string ProtocolName(Protocol p);

/// Inverse of ProtocolName. Returns false (leaving *out untouched) for an
/// unknown name.
bool ProtocolFromName(const std::string& name, Protocol* out);

/// What the replicated system is, whichever runtime it runs on.
struct AssemblyConfig {
  uint32_t n_processors = 3;
  /// Used when `placement` is empty: n_objects fully replicated objects.
  ObjectId n_objects = 4;
  /// Custom placement; used when it holds any object, otherwise
  /// FullReplication(n_processors, n_objects).
  storage::CopyPlacement placement;
  /// Initial committed value of every copy.
  Value initial_value = "0";
  /// Per-object overrides of the initial value.
  std::map<ObjectId, Value> initial_values;

  Protocol protocol = Protocol::kVirtualPartition;
  core::VpConfig vp;
  /// kQuorum runs this as is; kMajorityVoting and kRowa take its timeouts
  /// and poll_all and impose their own quorum shape.
  protocols::QuorumConfig quorum;
  protocols::NaiveConfig naive;

  /// Reliable-delivery layer for physical operations (all protocols); lives
  /// here rather than on the per-protocol configs because every protocol
  /// shares it. Defaults off.
  core::ReliableConfig reliable;

  /// Enables causal tracing: transactions and view changes get trace ids
  /// and the tracer records spans (see obs/trace.h). Metrics are always on.
  bool tracing = false;

  /// Per-node flight-recorder ring capacity (events). The recorder feeds
  /// the online invariant probes; zero disables both (Record returns
  /// before reaching the probe listener).
  size_t fdr_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// What a runtime backend lends the assembly. Everything pointed to must
/// outlive it.
struct Substrate {
  runtime::Clock* clock = nullptr;
  runtime::Transport* transport = nullptr;
  /// Executor of processor p's node and lock manager: its strand on
  /// threads, the one scheduler in the simulator.
  std::function<runtime::Executor*(ProcessorId)> executor;
  /// Cluster-wide registry. Its mode also picks the flight recorder's and
  /// the probes': a concurrent registry gets per-strand rings and
  /// mutex-guarded probe state.
  obs::MetricsRegistry* metrics = nullptr;
  /// Stable device of processor p. Empty = none: env.stable stays null, no
  /// persist points fire and crashes retain memory.
  std::function<storage::StableStore*(ProcessorId)> stable;
  /// Xor-ed into reliable.jitter_seed, so runs with different seeds draw
  /// decorrelated retransmit jitter.
  uint64_t jitter_salt = 0;
};

class Assembly {
 public:
  /// Builds every processor's store, lock manager and node. The nodes are
  /// not started: the backend starts them on its own executors.
  Assembly(const AssemblyConfig& config, Substrate substrate);
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  core::NodeBase& node(ProcessorId p) { return *nodes_[p]; }
  const core::NodeBase& node(ProcessorId p) const { return *nodes_[p]; }
  /// Typed access; aborts if the cluster runs a different protocol.
  core::VpNode& vp_node(ProcessorId p);
  protocols::NaiveViewNode& naive_node(ProcessorId p);
  storage::ReplicaStore& store(ProcessorId p) { return *stores_[p]; }
  cc::LockManager& locks(ProcessorId p) { return *locks_[p]; }

  /// The initial placement (epoch 0).
  const storage::CopyPlacement& placement() const { return placement_; }
  /// Epoch chain shared by every node (slot 0 = `placement()`).
  storage::PlacementDirectory& placements() { return placements_; }
  const storage::PlacementDirectory& placements() const { return placements_; }
  history::Recorder& recorder() { return recorder_; }
  obs::Tracer& tracer() { return tracer_; }
  obs::FlightRecorder& fdr() { return fdr_; }
  const obs::FlightRecorder& fdr() const { return fdr_; }
  obs::ProbeEngine& probes() { return probes_; }
  const obs::ProbeEngine& probes() const { return probes_; }

  /// Replaces processor p's store, lock manager and node with fresh ones
  /// loaded from its stable device (crash-amnesia reboot); the caller
  /// starts the new node. The replaced objects stay alive until the
  /// assembly dies, because scheduled closures capture raw pointers into
  /// them.
  void Rebuild(ProcessorId p);

  // --- Analysis (quiesce first on threads: the checkers walk the
  // recorder without snapshotting) ---
  /// Initial one-copy database matching the configured initial values.
  history::InitialDb initial_db() const;
  /// Theorem 1′ certification of everything committed so far.
  history::CertifyResult Certify() const;
  /// Exhaustive-search certification (small histories).
  history::CertifyResult CertifyAnyOrder(size_t max_txns) const;
  /// CP-serializability of recorded physical operations (assumption A1).
  history::CertifyResult CertifyConflicts() const;
  /// No-lost-committed-write check: committed reads trace to committed
  /// writes (or the initial database).
  history::CertifyResult CertifyDurableReads() const;
  /// Sum of a ProtocolStats field over all nodes.
  core::ProtocolStats AggregateStats() const;

 private:
  const Value& InitialValue(ObjectId obj) const;
  /// Fresh store (initial copies, then the stable images over them) and
  /// lock manager for processor p.
  void BuildReplica(ProcessorId p);
  std::unique_ptr<core::NodeBase> MakeNode(ProcessorId p);
  /// Mirrors p's stable-device activity into its flight-recorder ring.
  void MirrorStableEvents(ProcessorId p, storage::StableStore* stable);

  const AssemblyConfig& config_;
  const Substrate substrate_;
  obs::Tracer tracer_;
  storage::CopyPlacement placement_;
  storage::PlacementDirectory placements_;
  /// Declared before nodes_ (nodes record into the rings).
  obs::FlightRecorder fdr_;
  obs::ProbeEngine probes_;
  history::Recorder recorder_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<cc::LockManager>> locks_;
  std::vector<std::unique_ptr<core::NodeBase>> nodes_;
  /// Graveyards of the objects Rebuild replaced.
  std::vector<std::unique_ptr<core::NodeBase>> retired_nodes_;
  std::vector<std::unique_ptr<cc::LockManager>> retired_locks_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> retired_stores_;
};

}  // namespace vp::harness

#endif  // VPART_HARNESS_ASSEMBLY_H_
