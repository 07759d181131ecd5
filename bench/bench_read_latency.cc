// Experiment E3b (paper §1: replication should "decrease data retrieval
// costs by reading local or close copies"): commit latency of read-only
// transactions on a WAN of 3 sites, where intra-site messages are ~20×
// cheaper than inter-site ones. The VP protocol's nearest-copy reads stay
// inside the client's site; majority voting must cross the WAN for every
// read; ROWA matches VP on reads.
#include <cstdio>

#include "bench_util.h"
#include "net/topology_gen.h"

namespace vp::bench {
namespace {

RunResult RunOne(harness::Protocol protocol, uint64_t seed) {
  harness::ClusterConfig config;
  config.n_processors = 6;  // 3 sites × 2 processors.
  config.n_objects = 16;
  config.seed = seed;
  config.protocol = protocol;
  // δ must bound the worst one-hop delay: max_delay × wan_cost.
  config.vp.delta = sim::Millis(100);
  config.vp.probe_period = sim::Millis(500);
  if (protocol == harness::Protocol::kMajorityVoting) {
    // Scale the op timeout to the WAN; the quorums stay the majority (4).
    config.quorum.op_timeout = sim::Millis(500);
  }
  harness::Cluster cluster(config);
  net::MakeWanCosts(&cluster.graph(), /*sites=*/3, /*lan_cost=*/1.0,
                    /*wan_cost=*/20.0);

  RunOptions opts;
  opts.measure = sim::Seconds(20);
  opts.client.read_fraction = 1.0;  // Read-only: isolate read latency.
  opts.client.ops_per_txn = 2;
  opts.client.think_time = sim::Millis(20);
  opts.client.seed = seed;
  return RunWorkload(cluster, opts);
}

void Main() {
  std::printf(
      "E3b: read-only commit latency on a 3-site WAN (LAN cost 1, WAN cost "
      "20)\n");
  std::printf(
      "Paper claim: reading the nearest copy keeps reads off the WAN.\n\n");
  Table table({"protocol", "avg commit latency (ms)", "committed", "1SR"});
  for (harness::Protocol proto :
       {harness::Protocol::kVirtualPartition,
        harness::Protocol::kMajorityVoting, harness::Protocol::kRowa}) {
    RunResult r = RunOne(proto, 1100);
    table.AddRow({harness::ProtocolName(proto),
                  Fmt(r.avg_commit_latency_ms), std::to_string(r.committed),
                  r.certified_1sr ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nEvery processor holds a copy, so VP and ROWA reads are local "
      "(sub-ms);\nmajority voting needs ⌈7/2⌉=4 of 6 copies, at least two "
      "of them across\nthe WAN, on every logical read.\n");
}

}  // namespace
}  // namespace vp::bench

int main() {
  vp::bench::Main();
  return 0;
}
