// R5 partition initialization and the §6 optimizations: full-copy reads,
// the previous-partition skip, and log-suffix catch-up.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using core::RecoveryMode;
using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Write;

ClusterConfig RecoveryConfig(RecoveryMode mode, uint64_t seed = 5) {
  ClusterConfig c;
  c.n_processors = 5;
  c.n_objects = 3;
  c.seed = seed;
  c.protocol = Protocol::kVirtualPartition;
  c.vp.recovery = mode;
  return c;
}

/// Partitions, writes k values to obj in the majority, heals, and returns
/// the cluster for inspection.
void WriteBehindPartition(Cluster& cluster, ObjectId obj, int k) {
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (int i = 0; i < k; ++i) {
    auto t = cluster.RunTxn(3, {Write(obj, "v" + std::to_string(i))});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
    cluster.RunFor(sim::Millis(50));
  }
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(cluster.VpConverged());
}

TEST(VpRecovery, FullReadBringsStaleCopiesUpToDate) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead));
  WriteBehindPartition(cluster, 0, 3);
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "v2") << "p" << p;
  }
  // Full-read mode reads remote copies on every join.
  EXPECT_GT(cluster.AggregateStats().recovery_reads_sent, 0u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, LogCatchupBringsStaleCopiesUpToDate) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kLogCatchup));
  WriteBehindPartition(cluster, 0, 4);
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "v3") << "p" << p;
  }
  // Catch-up fetched log records rather than whole values.
  EXPECT_GT(cluster.AggregateStats().recovery_log_records, 0u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, LogCatchupFetchesOnlyMissedSuffix) {
  // The minority copies missed exactly 4 writes of one object; catch-up
  // should apply ~4 records per healing copy, not the whole history.
  Cluster cluster(RecoveryConfig(RecoveryMode::kLogCatchup));
  WriteBehindPartition(cluster, 0, 4);
  const auto stats = cluster.AggregateStats();
  // Two minority nodes catching up 4 records each (majority members skip
  // or fetch empty suffixes); allow slack for view churn re-initialization.
  EXPECT_GE(stats.recovery_log_records, 8u);
  EXPECT_LE(stats.recovery_log_records, 40u);
}

TEST(VpRecovery, PreviousSkipAvoidsWorkOnCleanSplit) {
  // When a partition SPLITS, every member of the new majority partition
  // comes from the same previous partition: no initialization needed.
  ClusterConfig config = RecoveryConfig(RecoveryMode::kPreviousSkip);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  const auto before = cluster.AggregateStats();

  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  const auto after = cluster.AggregateStats();
  // The split produced joins but no recovery reads (all-same-previous).
  EXPECT_GT(after.vp_joins, before.vp_joins);
  EXPECT_EQ(after.recovery_reads_sent, before.recovery_reads_sent);
  EXPECT_GT(after.recovery_skipped_objects, before.recovery_skipped_objects);

  // And the data is still correct afterwards.
  auto t = cluster.RunTxn(3, {Write(0, "post-split")});
  EXPECT_TRUE(t.committed) << t.failure.ToString();
  cluster.RunFor(sim::Millis(100));
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, FullReadModeDoesNotSkipOnSplit) {
  ClusterConfig config = RecoveryConfig(RecoveryMode::kFullRead);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  const auto before = cluster.AggregateStats();
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  const auto after = cluster.AggregateStats();
  // The baseline §5 protocol re-reads copies even on a clean split.
  EXPECT_GT(after.recovery_reads_sent, before.recovery_reads_sent);
  EXPECT_EQ(after.recovery_skipped_objects, before.recovery_skipped_objects);
}

TEST(VpRecovery, ObjectsLockedDuringInitializationThenReleased) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead));
  WriteBehindPartition(cluster, 1, 2);
  // After the dust settles every object is unlocked everywhere.
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty()) << "p" << p;
  }
}

TEST(VpRecovery, ReadAfterHealSeesLatestValue) {
  for (RecoveryMode mode : {RecoveryMode::kFullRead,
                            RecoveryMode::kPreviousSkip,
                            RecoveryMode::kLogCatchup}) {
    Cluster cluster(RecoveryConfig(mode, 17));
    WriteBehindPartition(cluster, 0, 3);
    // A read served by a previously-stale copy must return the latest value.
    auto t = cluster.RunTxn(0, {testutil::Read(0)});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
    EXPECT_EQ(t.reads[0], "v2") << "mode " << static_cast<int>(mode);
    cluster.RunFor(sim::Millis(100));
    auto cert = cluster.Certify();
    EXPECT_TRUE(cert.ok) << cert.detail;
  }
}

TEST(VpRecovery, MultipleObjectsRecoverIndependently) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead, 23));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (ObjectId obj = 0; obj < 3; ++obj) {
    auto t = cluster.RunTxn(2, {Write(obj, "obj" + std::to_string(obj))});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
  }
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  for (ProcessorId p = 0; p < 5; ++p) {
    for (ObjectId obj = 0; obj < 3; ++obj) {
      EXPECT_EQ(cluster.store(p).Read(obj).value().value,
                "obj" + std::to_string(obj))
          << "p" << p << " obj" << obj;
    }
  }
}

}  // namespace
}  // namespace vp
