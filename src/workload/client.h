// Closed-loop workload clients. Each client is pinned to one processor and
// generates transactions for it: a configurable mix of reads and writes
// over a (possibly skewed) object population, with unique write tokens so
// the serializability certifier can trace every value to its writer. Each
// transaction runs through the shared driver (harness/txn_program.h); the
// client only draws the op list, paces it and counts the outcome.
#ifndef VPART_WORKLOAD_CLIENT_H_
#define VPART_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/node_base.h"
#include "harness/txn_program.h"
#include "runtime/runtime.h"

namespace vp::workload {

struct ClientConfig {
  /// Probability that an operation is a read (vs a write).
  double read_fraction = 0.9;
  /// Logical operations per transaction.
  uint32_t ops_per_txn = 4;
  /// Pause between the end of one transaction and the start of the next.
  sim::Duration think_time = sim::Millis(5);
  /// Pause between consecutive operations inside a transaction (models
  /// interactive transactions; 0 = back-to-back).
  sim::Duration op_gap = 0;
  /// Object selection skew (0 = uniform; 0.99 ≈ YCSB hot-spot).
  double zipf_theta = 0.0;
  /// Read-modify-write mode: every write first reads the object and writes
  /// value+1 (counter semantics; lost updates become certifier-visible).
  bool rmw = false;
  uint64_t seed = 1;
};

/// Outcome counters for one client.
struct ClientStats {
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t aborts_unavailable = 0;  // Rejected by R1 / quorum check.
  uint64_t aborts_timeout = 0;
  uint64_t aborts_other = 0;
  uint64_t reads_done = 0;
  uint64_t writes_done = 0;
  sim::Duration total_commit_latency = 0;  // Across committed txns.
};

/// Resolves the client's current node each transaction. Under the
/// crash-amnesia fault model a reboot replaces the node object, so clients
/// must not cache the pointer across transactions.
using NodeProvider = std::function<core::NodeBase*()>;

class Client {
 public:
  Client(NodeProvider provider, runtime::RuntimeView rt, ObjectId n_objects,
         ClientConfig config);
  /// Fixed-node convenience (no reboots possible in the caller's setup).
  Client(core::NodeBase* node, runtime::RuntimeView rt, ObjectId n_objects,
         ClientConfig config);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Begins issuing transactions (first one after `initial_delay`).
  void Start(runtime::Duration initial_delay = 0);
  /// Stops after the in-flight transaction finishes.
  void Stop() { stopped_ = true; }

  const ClientStats& stats() const { return stats_; }

 private:
  void StartTxn();
  /// Pacing (op_gap) and the reboot check before each step of a program
  /// coordinated at `node`.
  void BeforeStep(core::NodeBase* node, size_t next,
                  std::function<void(Status)> proceed);
  void Count(const harness::TxnResult& r, runtime::TimePoint start);
  void ScheduleNext();

  NodeProvider node_provider_;
  runtime::RuntimeView rt_;
  ClientConfig config_;
  Rng rng_;
  ZipfGenerator zipf_;

  bool stopped_ = false;
  ClientStats stats_;
};

/// Convenience: one client per alive processor, identical configs with
/// per-client derived seeds.
std::vector<std::unique_ptr<Client>> MakeClients(
    std::vector<core::NodeBase*> nodes, runtime::RuntimeView rt,
    ObjectId n_objects, const ClientConfig& config);

/// Provider-based variant for clusters where reboots replace node objects.
std::vector<std::unique_ptr<Client>> MakeClients(
    std::vector<NodeProvider> providers, runtime::RuntimeView rt,
    ObjectId n_objects, const ClientConfig& config);

/// Sums stats over a set of clients.
ClientStats Aggregate(const std::vector<std::unique_ptr<Client>>& clients);

}  // namespace vp::workload

#endif  // VPART_WORKLOAD_CLIENT_H_
