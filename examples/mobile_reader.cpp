// The paper's §4 "mobile user" observation, made concrete: while views of
// simultaneously existing virtual partitions overlap, a reader in a
// partition that is slow to detect a failure can read STALE data — legal
// under one-copy serializability (the reader serializes before the
// writer), but visible to a user who moves between partitions.
//
//   $ ./build/examples/mobile_reader
#include <cstdio>

#include "harness/cluster.h"

using namespace vp;

namespace {

/// One read-only transaction of `obj` at `p`; returns the value or "".
std::string ReadAt(harness::Cluster& cluster, ProcessorId p, ObjectId obj) {
  harness::TxnResult t =
      cluster.RunTxn(p, {harness::Read(obj)}, sim::Seconds(1));
  return t.reads.empty() ? "" : t.reads[0];
}

}  // namespace

int main() {
  harness::ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 1;  // A news bulletin, replicated everywhere.
  config.initial_value = "old headline";
  config.protocol = harness::Protocol::kVirtualPartition;
  // A slow probe period: processor 0 takes a while to notice failures —
  // exactly the window §4 describes.
  config.vp.probe_period = sim::Seconds(3);
  config.seed = 1985;
  harness::Cluster cluster(config);
  cluster.RunFor(sim::Seconds(8));
  std::printf("all processors share a view of size %zu\n",
              cluster.vp_node(0).view().size());

  // Processor 0 is cut off, but its next probe round is seconds away: it
  // still believes the old 5-member view. The majority re-forms promptly.
  cluster.graph().Partition({{0}, {1, 2, 3, 4}});
  cluster.vp_node(1).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(200));

  // The newsroom (majority) publishes a new headline.
  const sim::SimTime published = cluster.scheduler().Now() + sim::Millis(200);
  cluster.RunTxn(2, {harness::Write(0, "BREAKING: new headline")});
  cluster.scheduler().RunUntil(published);

  // The user reads at processor 3 (majority), then "walks over" to
  // processor 0 — which hasn't noticed it is cut off — and reads again.
  const std::string at_majority = ReadAt(cluster, 3, 0);
  const std::string at_stale = ReadAt(cluster, 0, 0);
  std::printf("read at p3 (majority): '%s'\n", at_majority.c_str());
  std::printf("read at p0 (stale view): '%s'   <-- stale!\n",
              at_stale.c_str());

  sim::Duration worst = 0;
  const uint64_t stale = cluster.recorder().CountStaleReads(&worst);
  std::printf("recorder counted %llu stale read(s), worst lag %.0f ms\n",
              static_cast<unsigned long long>(stale), sim::ToMillis(worst));

  // Yet the execution is one-copy serializable: p0's read serializes
  // BEFORE the newsroom's write (Theorem 1' orders by partition creation).
  auto cert = cluster.Certify();
  std::printf("one-copy serializable: %s (the stale reader serializes "
              "before the writer)\n",
              cert.ok ? "yes" : "NO");

  // Probing bounds the window: once p0's probe round fires, its view
  // collapses to {0}, the majority rule kicks in, and reads are refused
  // rather than stale.
  cluster.RunFor(sim::Seconds(7));
  const std::string after_probe = ReadAt(cluster, 0, 0);
  std::printf("read at p0 after its probe round: '%s' (view is now {0}: "
              "object inaccessible)\n",
              after_probe.empty() ? "<refused>" : after_probe.c_str());

  const bool pass = at_majority == "BREAKING: new headline" &&
                    at_stale == "old headline" && stale >= 1 && cert.ok &&
                    after_probe.empty();
  std::printf("%s\n", pass ? "DEMO OK" : "DEMO FAILED");
  return pass ? 0 : 1;
}
