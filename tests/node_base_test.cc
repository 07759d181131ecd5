// Unit tests of the shared transaction machinery (NodeBase): decision
// semantics, outcome broadcast retries, presumed abort, in-doubt
// resolution and participant nacks — driven through a live VP cluster with
// surgical link control.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cc/txn.h"
#include "core/vp_messages.h"
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

/// Stands in for a remote coordinator: keeps every message delivered to
/// its processor slot.
struct SinkEndpoint : public net::NodeInterface {
  std::vector<net::Message> inbox;
  void HandleMessage(const net::Message& m) override { inbox.push_back(m); }
};

/// Error string of the failed reply to `op_id` in `inbox`; "<none>" if no
/// such nack arrived.
std::string NackReason(const std::vector<net::Message>& inbox, bool is_write,
                       uint64_t op_id) {
  for (const net::Message& m : inbox) {
    if (is_write && m.type == core::msg::kPhysWriteReply) {
      const auto& r = net::BodyAs<core::msg::PhysWriteReply>(m);
      if (r.op_id == op_id && !r.ok) return r.error;
    } else if (!is_write && m.type == core::msg::kPhysReadReply) {
      const auto& r = net::BodyAs<core::msg::PhysReadReply>(m);
      if (r.op_id == op_id && !r.ok) return r.error;
    }
  }
  return "<none>";
}

TEST(NodeBase, EachParticipantNackCountsOnceAndCarriesItsReason) {
  // p0 serves; p3's network slot is handed to a sink that plays the
  // coordinator. Object 1 has no copy at p0.
  ClusterConfig config = testutil::Cfg(4, 9, Protocol::kVirtualPartition,
                                       /*n_objects=*/2);
  for (ProcessorId p = 0; p < 3; ++p) config.placement.AddCopy(0, p, 1);
  config.placement.AddCopy(1, 1, 1);
  config.placement.AddCopy(1, 2, 1);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));
  // A committed reconfiguration moves every node to epoch 1, so epoch-0
  // requests are stale.
  cluster.ProposeReconfig(
      1, {ReconfigOp{ReconfigOp::Kind::kSetWeight, 0, 1, 2}});
  cluster.RunFor(sim::Seconds(2));
  cluster.node(3).Retire();
  SinkEndpoint sink;
  cluster.network().Register(3, &sink);
  cluster.RunFor(sim::Seconds(2));  // p0..p2 re-form without p3.
  core::VpNode& node = cluster.vp_node(0);
  ASSERT_EQ(node.epoch(), 1u);
  ASSERT_TRUE(node.assigned());
  ASSERT_TRUE(node.locked_objects().empty());

  // p0 learns the fate of `decided` as a participant first.
  const TxnId decided{3, 100};
  cluster.network().Send(3, 0, core::msg::kTxnOutcome,
                         core::msg::TxnOutcomeMsg{decided, false});
  cluster.RunFor(sim::Millis(50));

  struct Row {
    bool is_write;
    TxnId txn;
    ObjectId obj;
    EpochId epoch;
    const char* reason;
  };
  const std::vector<Row> rows = {
      {false, TxnId{3, 1}, 1, 1, "no-copy"},
      {true, TxnId{3, 2}, 1, 1, "no-copy"},
      {false, TxnId{3, 3}, 0, 0, "stale-epoch"},
      {true, TxnId{3, 4}, 0, 0, "stale-epoch"},
      {false, decided, 0, 1, "stale-txn"},
      {true, decided, 0, 1, "stale-txn"},
  };
  uint64_t op_id = 1000;
  for (const Row& row : rows) {
    ++op_id;
    const uint64_t nacks_before =
        cluster.metrics().Snapshot().CounterValue("node.phys_nacks");
    sink.inbox.clear();
    if (row.is_write) {
      cluster.network().Send(
          3, 0, core::msg::kPhysWrite,
          core::msg::PhysWrite{row.txn, row.obj, "v", node.cur_id(),
                               row.epoch, op_id, {}});
    } else {
      cluster.network().Send(
          3, 0, core::msg::kPhysRead,
          core::msg::PhysRead{row.txn, row.obj, node.cur_id(), row.epoch,
                              /*recovery=*/false, /*for_update=*/false,
                              op_id, {}});
    }
    cluster.RunFor(sim::Millis(50));
    const std::string what =
        std::string(row.is_write ? "write " : "read ") + row.reason;
    EXPECT_EQ(cluster.metrics().Snapshot().CounterValue("node.phys_nacks") -
                  nacks_before,
              1u)
        << what;
    EXPECT_EQ(NackReason(sink.inbox, row.is_write, op_id), row.reason)
        << what;
  }
}

}  // namespace
}  // namespace vp
