// Helpers for simulator tests: cluster configs, node lists and the op
// builders of the shared transaction driver (run with Cluster::RunTxn).
#ifndef VPART_TESTS_TEST_UTIL_H_
#define VPART_TESTS_TEST_UTIL_H_

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

/// Pointers to every node, in processor order.
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
}  // namespace vp::testutil

#endif  // VPART_TESTS_TEST_UTIL_H_
