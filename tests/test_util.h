// Helpers for scripting transactions in simulator tests: cluster configs
// and a pump loop around the shared transaction-program driver.
#ifndef VPART_TESTS_TEST_UTIL_H_
#define VPART_TESTS_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "harness/cluster.h"
#include "harness/txn_program.h"

namespace vp::testutil {

/// Shared cluster-config builder: `n_processors` nodes, `n_objects` fully
/// replicated objects, chosen protocol, everything else default. The
/// per-file Cfg helpers delegate here instead of re-listing the fields.
inline harness::ClusterConfig Cfg(
    uint32_t n_processors, uint64_t seed,
    harness::Protocol protocol = harness::Protocol::kVirtualPartition,
    ObjectId n_objects = 4) {
  harness::ClusterConfig c;
  c.n_processors = n_processors;
  c.n_objects = n_objects;
  c.seed = seed;
  c.protocol = protocol;
  return c;
}

/// Pointers to every node, in processor order (MakeClients input).
inline std::vector<core::NodeBase*> AllNodes(harness::Cluster& cluster) {
  std::vector<core::NodeBase*> nodes;
  nodes.reserve(cluster.size());
  for (ProcessorId p = 0; p < cluster.size(); ++p)
    nodes.push_back(&cluster.node(p));
  return nodes;
}

using harness::Increment;
using harness::Read;
using harness::Write;
using TxnOutcome = harness::TxnResult;

/// Runs a transaction program (harness/txn_program.h) to its decision,
/// pumping the cluster; `committed` stays false if the budget runs out.
inline TxnOutcome RunTxn(harness::Cluster& cluster, ProcessorId at,
                         std::vector<harness::TxnOp> ops,
                         sim::Duration budget = sim::Seconds(2)) {
  // Heap-held, so a decision landing after the budget (the caller may keep
  // pumping) writes into live state.
  auto out = std::make_shared<std::optional<TxnOutcome>>();
  harness::StartTxnProgram(
      cluster.node(at), std::move(ops),
      [out](harness::TxnResult r) { *out = std::move(r); });
  const sim::SimTime deadline = cluster.scheduler().Now() + budget;
  while (!out->has_value() && cluster.scheduler().Now() < deadline) {
    if (!cluster.scheduler().RunOne()) break;
  }
  return out->value_or(TxnOutcome{});
}

}  // namespace vp::testutil

#endif  // VPART_TESTS_TEST_UTIL_H_
