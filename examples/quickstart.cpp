// Quickstart: build a 3-processor replicated database running the
// virtual-partition protocol, run one transaction, and inspect the result.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "harness/cluster.h"

using namespace vp;

int main() {
  // 1. Describe the system: 3 processors, 2 fully-replicated objects.
  harness::ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 2;
  config.initial_value = "0";
  config.protocol = harness::Protocol::kVirtualPartition;
  config.seed = 42;

  // 2. Build it. This wires the event kernel, network, per-node storage,
  //    lock managers, the protocol instances, and the execution recorder.
  harness::Cluster cluster(config);

  // 3. Let the probe protocol merge the initial singleton partitions.
  cluster.RunFor(sim::Seconds(1));
  std::printf("converged: %s; processor 0's view has %zu members\n",
              cluster.VpConverged() ? "yes" : "no",
              cluster.vp_node(0).view().size());

  // 4. Run a transaction at processor 0: read object 0, write object 1,
  //    commit. The nodes' API is asynchronous; RunTxn chains the ops
  //    through their callbacks and pumps the simulation to the decision.
  harness::TxnResult txn = cluster.RunTxn(
      0, {harness::Read(0), harness::Write(1, "hello, replicas")});
  std::printf("txn %s: read object 0 -> '%s'; commit -> %s\n",
              txn.txn.ToString().c_str(),
              txn.reads.empty() ? "" : txn.reads[0].c_str(),
              txn.failure.ToString().c_str());
  cluster.RunFor(sim::Seconds(1));

  // 5. R3 (write-all-in-view) updated every copy:
  for (ProcessorId p = 0; p < 3; ++p) {
    std::printf("copy of object 1 at p%u: '%s'\n", p,
                cluster.store(p).Read(1).value().value.c_str());
  }

  // 6. And the execution certifies one-copy serializable (Theorem 1):
  auto cert = cluster.Certify();
  std::printf("one-copy serializable: %s\n", cert.ok ? "yes" : "NO");
  return cert.ok ? 0 : 1;
}
