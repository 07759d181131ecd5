// The simulator backend: the event kernel, communication graph, lossy
// network, failure injector and per-processor stable devices, with the
// replicated system itself (harness/assembly.h) built over them. Tests,
// benchmarks and examples all build on this.
#ifndef VPART_HARNESS_CLUSTER_H_
#define VPART_HARNESS_CLUSTER_H_

#include <memory>
#include <utility>
#include <vector>

#include "harness/assembly.h"
#include "harness/txn_program.h"
#include "net/failure_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"

namespace vp::harness {

/// The simulator backend's config: the system (AssemblyConfig) plus the
/// simulated network, the fault model of the stable devices, and the seed.
struct ClusterConfig : AssemblyConfig {
  net::NetworkConfig net;
  /// Seeds the network and the failure injector, and is xor-ed into
  /// reliable.jitter_seed to decorrelate the channel's jitter per cluster.
  uint64_t seed = 42;

  /// Fault model for processor crashes. kRetainMemory (default) preserves
  /// volatile state across crashes; kWal/kNoWal destroy it on kCrashAmnesia
  /// faults and reboot the node from its StableStore on recovery.
  storage::DurabilityMode durability = storage::DurabilityMode::kRetainMemory;

  /// Integrity model of the stable devices. kChecksum (default) frames WAL
  /// records and copy images with checksums so reboot salvages torn tails
  /// and quarantines rotted copies; kNoChecksum is the negative control
  /// that serves rotted bytes verbatim.
  storage::IntegrityMode integrity = storage::IntegrityMode::kChecksum;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Component access ---
  sim::Scheduler& scheduler() { return scheduler_; }
  net::CommGraph& graph() { return graph_; }
  net::Network& network() { return network_; }
  net::FailureInjector& injector() { return injector_; }
  runtime::SimRuntime& runtime() { return runtime_; }
  /// The simulation-backed runtime view nodes and clients program against.
  runtime::RuntimeView runtime_view() { return runtime_.view(); }
  history::Recorder& recorder() { return assembly_.recorder(); }
  const storage::CopyPlacement& placement() const {
    return assembly_.placement();
  }
  /// Epoch chain shared by every node (slot 0 = `placement()`).
  storage::PlacementDirectory& placements() { return assembly_.placements(); }
  const storage::PlacementDirectory& placements() const {
    return assembly_.placements();
  }
  /// Highest epoch any committed view has introduced so far.
  EpochId LatestEpoch() const { return placements().LatestEpoch(); }
  /// Placement of the latest epoch — what durability checks must use: a
  /// reconfigured-away copy is legitimately stale.
  const storage::CopyPlacement& FinalPlacement() const {
    return placements().At(LatestEpoch());
  }
  storage::ReplicaStore& store(ProcessorId p) { return assembly_.store(p); }
  cc::LockManager& locks(ProcessorId p) { return assembly_.locks(p); }
  storage::StableStore& stable(ProcessorId p) { return *stables_[p]; }
  const ClusterConfig& config() const { return config_; }
  uint32_t size() const { return config_.n_processors; }
  /// Cluster-wide metrics registry (serial mode: the sim runs everything
  /// on one thread, and plain-int counters keep snapshots deterministic).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return assembly_.tracer(); }
  /// Always-on flight recorder holding each node's last-N protocol events.
  obs::FlightRecorder& fdr() { return assembly_.fdr(); }
  const obs::FlightRecorder& fdr() const { return assembly_.fdr(); }
  /// Online invariant probes consuming the flight-recorder stream.
  obs::ProbeEngine& probes() { return assembly_.probes(); }
  const obs::ProbeEngine& probes() const { return assembly_.probes(); }

  core::NodeBase& node(ProcessorId p) { return assembly_.node(p); }
  /// Typed access; aborts if the cluster runs a different protocol.
  core::VpNode& vp_node(ProcessorId p) { return assembly_.vp_node(p); }
  protocols::NaiveViewNode& naive_node(ProcessorId p) {
    return assembly_.naive_node(p);
  }

  /// Queues a reconfiguration batch at processor `p` (VP protocol only).
  /// The batch commits at the next vp boundary whose view passes the
  /// authoritativeness gate; see VpNode::ProposeReconfig.
  void ProposeReconfig(ProcessorId p, std::vector<ReconfigOp> ops) {
    vp_node(p).ProposeReconfig(std::move(ops));
  }

  // --- Running ---
  void RunFor(sim::Duration d) { scheduler_.RunUntil(scheduler_.Now() + d); }
  void RunUntilIdle() { scheduler_.RunUntilIdle(); }

  /// Runs one transaction program (harness/txn_program.h) coordinated at
  /// `at`, pumping the simulator until its decision; `latency` is the
  /// simulated time that took. If `budget` passes first, the result is
  /// uncommitted with a Timeout status; a decision that lands later (the
  /// caller may keep running) is dropped. The simulator twin of
  /// ThreadCluster::RunTxn.
  TxnResult RunTxn(ProcessorId at, std::vector<TxnOp> ops,
                   sim::Duration budget = sim::Seconds(2));

  // --- Analysis (see Assembly) ---
  history::InitialDb initial_db() const { return assembly_.initial_db(); }
  history::CertifyResult Certify() const { return assembly_.Certify(); }
  history::CertifyResult CertifyAnyOrder(size_t max_txns = 9) const {
    return assembly_.CertifyAnyOrder(max_txns);
  }
  history::CertifyResult CertifyConflicts() const {
    return assembly_.CertifyConflicts();
  }
  history::CertifyResult CertifyDurableReads() const {
    return assembly_.CertifyDurableReads();
  }
  core::ProtocolStats AggregateStats() const {
    return assembly_.AggregateStats();
  }
  /// Sum of stable-device counters over all processors (fsyncs, WAL bytes,
  /// replayed records, reboots).
  storage::StableStats AggregateStableStats() const;

  /// True once every alive, mutually-connected processor pair reports the
  /// same virtual partition (VP protocol only).
  bool VpConverged() const;

  /// Crash-amnesia reboot: retires the node object (the crash hook already
  /// did so for injector-driven crashes), then reconstructs store, locks,
  /// and node from the processor's StableStore and starts the new node.
  void Reboot(ProcessorId p);

  /// Marks `p` alive and, if an amnesia crash left a reboot pending (e.g.
  /// the fault plan crashed it without a matching recover action), reboots
  /// it. Harness code reviving processors directly — bypassing the
  /// injector's recover hook — must use this instead of graph().SetAlive.
  void Revive(ProcessorId p);

 private:
  ClusterConfig config_;
  /// Declared before every component that caches counter handles.
  obs::MetricsRegistry metrics_{obs::RegistryMode::kSerial};
  sim::Scheduler scheduler_;
  net::CommGraph graph_;
  net::Network network_;
  net::FailureInjector injector_;
  runtime::SimRuntime runtime_;
  std::vector<std::unique_ptr<storage::StableStore>> stables_;
  /// Declared after the substrate it runs on, so its nodes die first.
  Assembly assembly_;
  /// Processors whose amnesia crash is awaiting the matching recover.
  std::vector<bool> reboot_pending_;
};

}  // namespace vp::harness

#endif  // VPART_HARNESS_CLUSTER_H_
