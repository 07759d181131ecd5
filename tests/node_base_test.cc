// Unit tests of the shared transaction machinery (NodeBase): decision
// semantics, outcome broadcast retries, presumed abort, and in-doubt
// resolution — driven through a live VP cluster with surgical link control.
#include <gtest/gtest.h>

#include "cc/txn.h"
#include "core/vp_node.h"
#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

ClusterConfig Cfg(uint64_t seed) {
  return testutil::Cfg(3, seed, Protocol::kVirtualPartition,
                       /*n_objects=*/2);
}

TEST(DecisionLog, PresumedAbortSemantics) {
  cc::DecisionLog log;
  TxnId t1{0, 1}, t2{0, 2}, t3{0, 3};
  log.MarkActive(t1);
  log.MarkActive(t2);
  EXPECT_EQ(log.Query(t1), cc::TxnOutcome::kActive);
  log.Decide(t1, true);
  log.Decide(t2, false);
  EXPECT_EQ(log.Query(t1), cc::TxnOutcome::kCommitted);
  EXPECT_EQ(log.Query(t2), cc::TxnOutcome::kAborted);
  // Never-seen transactions are presumed aborted.
  EXPECT_EQ(log.Query(t3), cc::TxnOutcome::kAborted);
  EXPECT_EQ(log.committed_count(), 1u);
}

TEST(NodeBase, CommitOfUnknownTxnFails) {
  Cluster cluster(Cfg(1));
  cluster.RunFor(sim::Seconds(1));
  Status got;
  cluster.node(0).Commit(TxnId{0, 999}, [&](Status s) { got = s; });
  EXPECT_TRUE(got.IsNotFound());
}

TEST(NodeBase, DoubleCommitRejected) {
  Cluster cluster(Cfg(2));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  Status first, second;
  node.Commit(txn, [&](Status s) { first = s; });
  node.Commit(txn, [&](Status s) { second = s; });
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.IsAborted()) << second.ToString();
}

TEST(NodeBase, AbortIsIdempotent) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.Abort(txn);
  node.Abort(txn);  // No crash, no double accounting.
  cluster.RunFor(sim::Millis(100));
  EXPECT_EQ(node.stats().txns_aborted, 1u);
}

TEST(NodeBase, CommitAfterAbortRejected) {
  Cluster cluster(Cfg(4));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.Abort(txn);
  Status got;
  node.Commit(txn, [&](Status s) { got = s; });
  EXPECT_TRUE(got.IsAborted());
}

TEST(NodeBase, ReadLocksReleasedAtRemoteParticipantOnCommit) {
  Cluster cluster(Cfg(5));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  ProcessorId served_by = kInvalidProcessor;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok());
    served_by = r.value().served_by;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_NE(served_by, kInvalidProcessor);
  EXPECT_TRUE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
  node.Commit(txn, [](Status) {});
  cluster.RunFor(sim::Millis(200));
  EXPECT_FALSE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
}

TEST(NodeBase, WriteLocksHeldUntilOutcomeThenReleased) {
  Cluster cluster(Cfg(6));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 1, "v", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_TRUE(cluster.locks(p).IsWriteLocked(1)) << "p" << p;
    EXPECT_TRUE(cluster.store(p).HasStage(1)) << "p" << p;
  }
  node.Abort(txn);
  cluster.RunFor(sim::Millis(200));
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_FALSE(cluster.locks(p).IsWriteLocked(1)) << "p" << p;
    EXPECT_FALSE(cluster.store(p).HasStage(1)) << "p" << p;
    EXPECT_EQ(cluster.store(p).Read(1).value().value, "0");
  }
}

TEST(NodeBase, InDoubtParticipantResolvesViaStatusQuery) {
  // Cut the participant off right after staging; drop the outcome; the
  // participant's periodic status query must resolve the stage once the
  // link returns — even if the coordinator's retry messages were lost.
  ClusterConfig config = Cfg(7);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "decided", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(cluster.store(2).HasStage(0));

  cluster.graph().Partition({{0, 1}, {2}});
  node.Commit(txn, [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.store(2).HasStage(0));  // Still in doubt.

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_FALSE(cluster.store(2).HasStage(0));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "decided");
}

TEST(NodeBase, TxnIdsAreUniquePerNode) {
  Cluster cluster(Cfg(8));
  auto& a = cluster.node(0);
  auto& b = cluster.node(1);
  TxnId a1 = a.NewTxnId(), a2 = a.NewTxnId(), b1 = b.NewTxnId();
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, b1);
  EXPECT_EQ(a1.coordinator, 0u);
  EXPECT_EQ(b1.coordinator, 1u);
}

}  // namespace
}  // namespace vp
