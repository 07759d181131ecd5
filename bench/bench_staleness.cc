// Experiment E9 (paper §4 discussion): a processor slow to detect a
// failure can keep serving reads from its stale view — legal under 1SR
// (the reader serializes before the writer) but stale in real time. The
// paper observes that probing bounds the staleness window. We isolate a
// reader, let the majority write, and sweep the probe period π, measuring
// stale reads and the worst staleness before the reader's view collapses.
//
// Expected shape: stale reads and max staleness grow ~linearly with π;
// every execution remains certified 1SR.
#include <cstdio>

#include "bench_util.h"

namespace vp::bench {
namespace {

struct StaleResult {
  uint64_t stale_reads = 0;
  double max_staleness_ms = 0;
  uint64_t reads_while_stale = 0;
  bool certified = false;
};

StaleResult RunOne(sim::Duration probe_period, uint64_t seed) {
  harness::ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 4;
  config.seed = seed;
  config.protocol = harness::Protocol::kVirtualPartition;
  config.vp.probe_period = probe_period;
  harness::Cluster cluster(config);
  cluster.RunFor(4 * probe_period + sim::Seconds(1));

  // Isolate p0. The majority detects promptly (forced creation models an
  // application-level hint); p0 discovers only via its own probe round.
  cluster.graph().Partition({{0}, {1, 2, 3, 4}});
  cluster.vp_node(1).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(40));

  // Majority writes a fresh value; p0 reads in a tight loop until its view
  // drops the majority (then reads become unavailable).
  sim::SimTime next = cluster.scheduler().Now() + sim::Millis(60);
  cluster.RunTxn(1, {harness::Write(0, "fresh")});
  cluster.scheduler().RunUntil(next);

  // One read transaction every 4 ms.
  uint64_t reads_ok = 0;
  for (int i = 0; i < 10000; ++i) {
    // View collapsed: staleness window over.
    if (!cluster.vp_node(0).Accessible(0)) break;
    next = cluster.scheduler().Now() + sim::Millis(4);
    if (!cluster.RunTxn(0, {harness::Read(0)}).reads.empty()) ++reads_ok;
    cluster.scheduler().RunUntil(next);
  }
  cluster.RunFor(2 * probe_period + sim::Seconds(1));

  StaleResult out;
  sim::Duration worst = 0;
  out.stale_reads = cluster.recorder().CountStaleReads(&worst);
  out.max_staleness_ms = sim::ToMillis(worst);
  out.reads_while_stale = reads_ok;
  out.certified = cluster.Certify().ok;
  return out;
}

void Main() {
  std::printf(
      "E9: stale-read window vs probe period π (reader isolated at t≈0)\n\n");
  Table table({"π (ms)", "reads served stale-side", "stale reads",
               "max staleness (ms)", "1SR"});
  for (sim::Duration pi : {sim::Millis(100), sim::Millis(250),
                           sim::Millis(500), sim::Millis(1000),
                           sim::Millis(2000)}) {
    StaleResult r = RunOne(pi, 900 + pi / 1000);
    table.AddRow({Fmt(sim::ToMillis(pi), 0),
                  std::to_string(r.reads_while_stale),
                  std::to_string(r.stale_reads), Fmt(r.max_staleness_ms, 0),
                  r.certified ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nPaper: \"probe messages ... bound the staleness of the data\"; the "
      "window\nscales with π and every execution stays one-copy "
      "serializable.\n");
}

}  // namespace
}  // namespace vp::bench

int main() {
  vp::bench::Main();
  return 0;
}
