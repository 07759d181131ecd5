// Mechanical reproduction of the paper's §4 anomalies (Examples 1 and 2):
// the naive view-based protocol produces non-one-copy-serializable
// executions, and the virtual-partition protocol closes each loophole.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Increment;
using testutil::Read;
using testutil::Write;

// ---------------------------------------------------------------------------
// Example 1 (Figure 1): non-transitive communication. A-B is down; both can
// reach C. Each of A and B sees a majority view containing C, increments x
// reading its own stale copy — the classic lost update.
// ---------------------------------------------------------------------------

ClusterConfig Example1Config(Protocol protocol) {
  ClusterConfig c;
  c.n_processors = 3;  // A=0, B=1, C=2.
  c.n_objects = 1;     // x = object 0, one copy everywhere, weight 1.
  c.protocol = protocol;
  c.seed = 7;
  return c;
}

TEST(Example1, NaiveViewsLoseAnUpdate) {
  Cluster cluster(Example1Config(Protocol::kNaiveView));
  cluster.graph().SetEdge(0, 1, false);  // A-B down; A-C, B-C up.

  // view(A) = {A,C}, view(B) = {B,C}: both majorities of x's 3 copies.
  auto ta = cluster.RunTxn(0, {Increment(0)});
  ASSERT_TRUE(ta.committed) << ta.failure.ToString();
  EXPECT_EQ(ta.reads[0], "0");

  auto tb = cluster.RunTxn(1, {Increment(0)});
  ASSERT_TRUE(tb.committed) << tb.failure.ToString();
  // B read its own copy, which A could not update: the stale "0".
  EXPECT_EQ(tb.reads[0], "0");
  cluster.RunFor(sim::Millis(200));

  // Two committed increments from 0, yet no copy holds "2".
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "1");
  }
  // No serial one-copy execution explains this history.
  auto certify = cluster.CertifyAnyOrder();
  EXPECT_FALSE(certify.ok);
  EXPECT_FALSE(certify.skipped);
}

TEST(Example1, VirtualPartitionsSerializeTheIncrements) {
  Cluster cluster(Example1Config(Protocol::kVirtualPartition));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().SetEdge(0, 1, false);
  cluster.RunFor(sim::Seconds(1));

  // Under the VP protocol A and B can never be in the same virtual
  // partition while A-B is down, and view churn may abort transactions;
  // retry each increment until it commits.
  int committed = 0;
  for (ProcessorId p : {ProcessorId{0}, ProcessorId{1}}) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto t = cluster.RunTxn(p, {Increment(0)}, sim::Seconds(4));
      cluster.RunFor(sim::Millis(50));
      if (t.committed) {
        ++committed;
        break;
      }
      cluster.RunFor(sim::Millis(200));
    }
  }
  ASSERT_EQ(committed, 2);
  cluster.RunFor(sim::Seconds(1));

  // Both increments serialized: the history is one-copy serializable and
  // the final accessible value is "2".
  auto certify = cluster.Certify();
  EXPECT_TRUE(certify.ok) << certify.detail;
  auto any = cluster.CertifyAnyOrder();
  EXPECT_TRUE(any.ok) << any.detail;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());

  // At least one copy (a majority member) must hold "2".
  int copies_with_2 = 0;
  for (ProcessorId p = 0; p < 3; ++p) {
    if (cluster.store(p).Read(0).value().value == "2") ++copies_with_2;
  }
  EXPECT_GE(copies_with_2, 1);
}

// ---------------------------------------------------------------------------
// Example 2 (Figure 2, Tables 1 & 2): a re-partition detected by B and D but
// not yet by A and C. Weighted copies:
//   A: a(2), b(1)   B: b(2), c(1)   C: c(2), d(1)   D: d(2), a(1)
// Transactions: T_A: r(b) w(a); T_B: r(c) w(b); T_C: r(d) w(c);
//               T_D: r(a) w(d).
// With the stale/fresh views of Table 1 every transaction runs entirely on
// local copies — serializable but not one-copy serializable.
// ---------------------------------------------------------------------------

constexpr ObjectId kA = 0, kB = 1, kC = 2, kD = 3;

ClusterConfig Example2Config(Protocol protocol) {
  ClusterConfig c;
  c.n_processors = 4;  // A=0, B=1, C=2, D=3.
  c.protocol = protocol;
  c.seed = 11;
  c.placement.AddCopy(kA, 0, 2);
  c.placement.AddCopy(kA, 3, 1);
  c.placement.AddCopy(kB, 1, 2);
  c.placement.AddCopy(kB, 0, 1);
  c.placement.AddCopy(kC, 2, 2);
  c.placement.AddCopy(kC, 1, 1);
  c.placement.AddCopy(kD, 3, 2);
  c.placement.AddCopy(kD, 2, 1);
  return c;
}

TEST(Example2, NaiveAsynchronousViewUpdatesBreakOneCopySR) {
  Cluster cluster(Example2Config(Protocol::kNaiveView));
  // Table 1's intermediate state: B and D updated, A and C stale.
  cluster.naive_node(0).SetViewOverride({0, 1});  // A: old {A,B}.
  cluster.naive_node(1).SetViewOverride({1, 2});  // B: new {B,C}.
  cluster.naive_node(2).SetViewOverride({2, 3});  // C: old {C,D}.
  cluster.naive_node(3).SetViewOverride({0, 3});  // D: new {A,D}.

  auto ta = cluster.RunTxn(0, {Read(kB), Write(kA, "TA")});
  auto tb = cluster.RunTxn(1, {Read(kC), Write(kB, "TB")});
  auto tc = cluster.RunTxn(2, {Read(kD), Write(kC, "TC")});
  auto td = cluster.RunTxn(3, {Read(kA), Write(kD, "TD")});
  ASSERT_TRUE(ta.committed) << ta.failure.ToString();
  ASSERT_TRUE(tb.committed) << tb.failure.ToString();
  ASSERT_TRUE(tc.committed) << tc.failure.ToString();
  ASSERT_TRUE(td.committed) << td.failure.ToString();
  // Every transaction read the initial value: the reads-from cycle
  // T_A < T_B < T_C < T_D < T_A admits no serial order.
  EXPECT_EQ(ta.reads[0], "0");
  EXPECT_EQ(tb.reads[0], "0");
  EXPECT_EQ(tc.reads[0], "0");
  EXPECT_EQ(td.reads[0], "0");
  cluster.RunFor(sim::Millis(300));

  // The execution is conflict-serializable at the physical level (each
  // transaction touched only local copies)...
  auto conflicts = cluster.CertifyConflicts();
  EXPECT_TRUE(conflicts.ok) << conflicts.detail;
  // ...but NOT one-copy serializable: exactly the paper's point.
  auto certify = cluster.CertifyAnyOrder();
  EXPECT_FALSE(certify.ok);
  EXPECT_FALSE(certify.skipped);
}

TEST(Example2, VirtualPartitionsBreakTheCycle) {
  Cluster cluster(Example2Config(Protocol::kVirtualPartition));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  // The re-partition of Figure 2: {B,C} | {A,D}.
  cluster.graph().Partition({{1, 2}, {0, 3}});
  cluster.RunFor(sim::Seconds(1));

  // S3 forbids acting on half-updated views: each processor is now in an
  // agreed partition. Accessibility: in {B,C}: b (2/3) and c (3/3); in
  // {A,D}: a (3/3) and d (2/3).
  auto ta = cluster.RunTxn(0, {Read(kB), Write(kA, "TA")});
  auto tb = cluster.RunTxn(1, {Read(kC), Write(kB, "TB")});
  auto tc = cluster.RunTxn(2, {Read(kD), Write(kC, "TC")});
  auto td = cluster.RunTxn(3, {Read(kA), Write(kD, "TD")});

  // T_A needs b, whose copies (B:2, A:1) have no majority in {A,D}.
  EXPECT_FALSE(ta.committed);
  EXPECT_TRUE(ta.failure.IsUnavailable()) << ta.failure.ToString();
  // T_C needs d, whose copies (D:2, C:1) have no majority in {B,C}.
  EXPECT_FALSE(tc.committed);
  EXPECT_TRUE(tc.failure.IsUnavailable()) << tc.failure.ToString();
  // T_B and T_D are fine.
  EXPECT_TRUE(tb.committed) << tb.failure.ToString();
  EXPECT_TRUE(td.committed) << td.failure.ToString();

  cluster.RunFor(sim::Millis(300));
  auto certify = cluster.Certify();
  EXPECT_TRUE(certify.ok) << certify.detail;
  auto any = cluster.CertifyAnyOrder();
  EXPECT_TRUE(any.ok) << any.detail;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

}  // namespace
}  // namespace vp
