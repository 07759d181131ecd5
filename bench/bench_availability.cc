// Experiment E5 (paper §4, R1): availability under partitions. A logical
// object stays accessible wherever a weighted majority of its copies is in
// view; the VP protocol matches the voting protocols' availability while
// ROWA loses writes as soon as any copy is unreachable.
//
// Scenario: n = 5, full replication; a rotating schedule of partitions and
// crashes. We report the committed fraction of attempted transactions per
// protocol, split by clients in majority vs minority components.
#include <cstdio>

#include "bench_util.h"

namespace vp::bench {
namespace {

struct Row {
  uint64_t committed = 0;
  uint64_t attempted = 0;
};

Row RunSide(harness::Protocol protocol, bool majority_side, uint64_t seed) {
  harness::ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 16;
  config.seed = seed;
  config.protocol = protocol;
  // Give voting its availability-maximizing selection.
  config.quorum.poll_all = true;
  harness::Cluster cluster(config);

  // Partition {0,1} | {2,3,4} for the whole measurement window.
  cluster.injector().PartitionAt(sim::Millis(500), {{0, 1}, {2, 3, 4}});

  RunOptions opts;
  opts.warmup = sim::Seconds(2);  // Includes the partition onset.
  opts.measure = sim::Seconds(15);
  opts.client.read_fraction = 0.8;
  opts.client.ops_per_txn = 2;
  opts.client.think_time = sim::Millis(10);
  opts.client.seed = seed;
  opts.client_at = majority_side ? std::vector<ProcessorId>{2, 3, 4}
                                 : std::vector<ProcessorId>{0, 1};
  opts.certify = false;  // 1SR is certified by the nemesis campaigns.
  RunResult r = RunWorkload(cluster, opts);
  return Row{r.committed, r.committed + r.aborted};
}

void Main() {
  std::printf(
      "E5: availability under a 2|3 partition (n=5, read fraction 0.8)\n");
  std::printf(
      "Paper claim: VP ~ voting availability (majority side operates); "
      "ROWA writes die.\n\n");
  Table table({"protocol", "client side", "committed", "attempted",
               "availability"});
  for (harness::Protocol proto :
       {harness::Protocol::kVirtualPartition,
        harness::Protocol::kMajorityVoting, harness::Protocol::kRowa}) {
    for (bool majority : {true, false}) {
      Row row = RunSide(proto, majority, 500 + (majority ? 1 : 0));
      const double avail =
          row.attempted == 0
              ? 0
              : static_cast<double>(row.committed) /
                    static_cast<double>(row.attempted);
      table.AddRow({harness::ProtocolName(proto),
                    majority ? "majority {2,3,4}" : "minority {0,1}",
                    std::to_string(row.committed),
                    std::to_string(row.attempted), Fmt(avail)});
    }
  }
  table.Print();
  std::printf(
      "\nNote: ROWA clients on the majority side still fail writes (a copy "
      "is\nunreachable) but serve reads; minority VP/voting clients are "
      "correctly\nstarved by the majority rule.\n");
}

}  // namespace
}  // namespace vp::bench

int main() {
  vp::bench::Main();
  return 0;
}
