// View-lag recovery: a replica stuck on a previous view (and even a
// previous epoch) rejoins a group that moved on without it, and is brought
// current by copy-update recovery in the middle of ongoing operations.
//
// The scenario from the issue: partition a single straggler away, let the
// majority commit writes — and an epoch advance — then heal. The straggler
// must recover via copy-update (R5 recovery reads), serve current values,
// and the run must certify 1SR.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

ClusterConfig FiveNodeVp(uint64_t seed) {
  ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 2;
  config.seed = seed;
  config.protocol = Protocol::kVirtualPartition;
  return config;
}

TEST(ViewLag, StragglerRecoversCurrentValuesViaCopyUpdate) {
  Cluster cluster(FiveNodeVp(31));
  cluster.RunFor(sim::Seconds(2));

  // Isolate p4. The majority keeps committing; p4's view goes stale.
  cluster.graph().Partition({{0, 1, 2, 3}, {4}});
  cluster.RunFor(sim::Seconds(1));
  for (int i = 1; i <= 3; ++i) {
    harness::TxnResult w = cluster.RunTxn(
        0, {testutil::Write(0, "v" + std::to_string(i)),
            testutil::Write(1, "w" + std::to_string(i))});
    ASSERT_TRUE(w.committed) << "majority write " << i;
  }

  // Mid-operation on the stale side: p4's accesses must be refused by the
  // majority rule, not served from its out-of-date copies.
  harness::TxnResult stale = cluster.RunTxn(4, {testutil::Read(0)});
  EXPECT_FALSE(stale.committed);

  const uint64_t joins_before = cluster.node(4).stats().vp_joins;
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));

  // p4 rejoined through a new vp and copy-update ran: recovery reads were
  // sent, and its physical copies now hold the values committed without it.
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_GT(cluster.node(4).stats().vp_joins, joins_before);
  EXPECT_GT(cluster.node(4).stats().recovery_reads_sent, 0u);
  EXPECT_EQ(cluster.store(4).Read(0).value().value, "v3");
  EXPECT_EQ(cluster.store(4).Read(1).value().value, "w3");

  harness::TxnResult fresh = cluster.RunTxn(4, {testutil::Read(0)});
  ASSERT_TRUE(fresh.committed);
  ASSERT_EQ(fresh.reads.size(), 1u);
  EXPECT_EQ(fresh.reads[0], "v3");
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(ViewLag, StragglerRecoversAcrossAnEpochBoundary) {
  Cluster cluster(FiveNodeVp(32));
  cluster.RunFor(sim::Seconds(2));

  cluster.graph().Partition({{0, 1, 2, 3}, {4}});
  cluster.RunFor(sim::Seconds(1));

  // While p4 lags on the old view, the majority both advances the epoch —
  // retiring the straggler's copy of object 0 — and commits new values.
  cluster.ProposeReconfig(0, {ReconfigOp{ReconfigOp::Kind::kRemoveCopy, 0, 4, 1}});
  cluster.RunFor(sim::Seconds(2));
  ASSERT_EQ(cluster.LatestEpoch(), 1u);
  harness::TxnResult w = cluster.RunTxn(
      0, {testutil::Write(0, "post"), testutil::Write(1, "post")});
  ASSERT_TRUE(w.committed);

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));

  // The straggler adopted the epoch it missed and recovered the copy it
  // still holds (object 1); object 0 is no longer its to hold, so reads at
  // p4 are served remotely from the epoch-1 holders.
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_EQ(cluster.vp_node(4).epoch(), 1u);
  EXPECT_FALSE(cluster.FinalPlacement().HasCopy(0, 4));
  EXPECT_EQ(cluster.store(4).Read(1).value().value, "post");

  harness::TxnResult fresh =
      cluster.RunTxn(4, {testutil::Read(0), testutil::Read(1)});
  ASSERT_TRUE(fresh.committed);
  ASSERT_EQ(fresh.reads.size(), 2u);
  EXPECT_EQ(fresh.reads[0], "post");
  EXPECT_EQ(fresh.reads[1], "post");
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

}  // namespace
}  // namespace vp
