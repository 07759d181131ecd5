// Workload client behavior: progress, accounting, determinism.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"
#include "workload/client.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::AllNodes;
using workload::Client;
using workload::ClientConfig;
using workload::ClientStats;

ClusterConfig Cfg(uint64_t seed) { return testutil::Cfg(3, seed); }

TEST(Client, MakesProgressAndCounts) {
  Cluster cluster(Cfg(1));
  cluster.RunFor(sim::Seconds(1));
  ClientConfig cc;
  cc.read_fraction = 0.5;
  cc.ops_per_txn = 2;
  cc.think_time = sim::Millis(5);
  Client client(&cluster.node(0), cluster.runtime_view(), 4, cc);
  client.Start();
  cluster.RunFor(sim::Seconds(3));
  client.Stop();
  cluster.RunFor(sim::Millis(500));

  const auto& s = client.stats();
  EXPECT_GT(s.txns_committed, 20u);
  EXPECT_EQ(s.txns_aborted, 0u);  // Fault-free run.
  EXPECT_GT(s.reads_done + s.writes_done, s.txns_committed);
  EXPECT_GT(s.total_commit_latency, 0);
}

TEST(Client, DeterministicAcrossRuns) {
  uint64_t committed[2];
  for (int run = 0; run < 2; ++run) {
    Cluster cluster(Cfg(99));
    cluster.RunFor(sim::Seconds(1));
    ClientConfig cc;
    cc.seed = 7;
    Client client(&cluster.node(1), cluster.runtime_view(), 4, cc);
    client.Start();
    cluster.RunFor(sim::Seconds(2));
    committed[run] = client.stats().txns_committed;
  }
  EXPECT_EQ(committed[0], committed[1]);
  EXPECT_GT(committed[0], 0u);
}

TEST(Client, CountsUnavailableAbortsInMinority) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0}, {1, 2}});
  cluster.RunFor(sim::Seconds(1));

  ClientConfig cc;
  cc.read_fraction = 0.5;
  Client client(&cluster.node(0), cluster.runtime_view(), 4, cc);
  client.Start();
  cluster.RunFor(sim::Seconds(2));
  client.Stop();
  cluster.RunFor(sim::Millis(200));
  // Isolated node: everything is unavailable.
  EXPECT_EQ(client.stats().txns_committed, 0u);
  EXPECT_GT(client.stats().aborts_unavailable, 0u);
}

TEST(Client, PausesWhileProcessorCrashed) {
  Cluster cluster(Cfg(4));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().SetAlive(0, false);

  ClientConfig cc;
  Client client(&cluster.node(0), cluster.runtime_view(), 4, cc);
  client.Start();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_EQ(client.stats().txns_committed, 0u);
  EXPECT_EQ(client.stats().txns_aborted, 0u);  // Not even attempted.

  cluster.graph().SetAlive(0, true);
  cluster.RunFor(sim::Seconds(3));
  client.Stop();
  cluster.RunFor(sim::Millis(200));
  EXPECT_GT(client.stats().txns_committed, 0u);
}

TEST(Client, RmwCountersAddUp) {
  Cluster cluster(Cfg(5));
  cluster.RunFor(sim::Seconds(1));
  ClientConfig cc;
  cc.read_fraction = 0.0;  // Every op increments.
  cc.ops_per_txn = 1;
  cc.rmw = true;
  cc.zipf_theta = 0.0;
  auto clients = workload::MakeClients(AllNodes(cluster), cluster.runtime_view(),
                                       4, cc);
  for (auto& c : clients) c->Start(sim::Millis(1));
  cluster.RunFor(sim::Seconds(2));
  for (auto& c : clients) c->Stop();
  cluster.RunFor(sim::Seconds(1));

  const auto agg = workload::Aggregate(clients);
  ASSERT_GT(agg.txns_committed, 0u);
  // Sum of final counters equals the number of committed increments.
  int64_t total = 0;
  for (ObjectId obj = 0; obj < 4; ++obj) {
    total += std::strtoll(
        cluster.store(0).Read(obj).value().value.c_str(), nullptr, 10);
  }
  EXPECT_EQ(static_cast<uint64_t>(total), agg.txns_committed);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(Client, AbortsInFlightTxnWhenCoordinatorReboots) {
  ClusterConfig config = Cfg(7);
  config.durability = storage::DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ClientConfig cc;
  cc.read_fraction = 0.5;
  cc.ops_per_txn = 3;
  cc.think_time = sim::Millis(1);
  // Each transaction spends >= 200 ms between its ops, so one is in flight
  // whenever the reboot lands.
  cc.op_gap = sim::Millis(100);
  Client client([&cluster]() { return &cluster.node(0); },
                cluster.runtime_view(), 4, cc);
  client.Start();
  cluster.RunFor(sim::Millis(1050));
  const ClientStats before = client.stats();
  EXPECT_EQ(before.txns_aborted, 0u);
  ASSERT_GT(before.txns_committed, 0u);

  cluster.Reboot(0);
  cluster.RunFor(sim::Seconds(3));
  client.Stop();
  cluster.RunFor(sim::Seconds(1));
  const ClientStats& after = client.stats();
  // The transaction the reboot cut off aborts without touching the
  // retired node; later ones run on the new node and commit.
  EXPECT_EQ(after.aborts_other, 1u);
  EXPECT_GT(after.txns_committed, before.txns_committed);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(Client, OpGapSpacesOpsWithinATxn) {
  Cluster cluster(Cfg(8));
  cluster.RunFor(sim::Seconds(1));
  ClientConfig cc;
  cc.ops_per_txn = 4;
  cc.op_gap = sim::Millis(20);
  Client client(&cluster.node(0), cluster.runtime_view(), 4, cc);
  client.Start();
  cluster.RunFor(sim::Seconds(2));
  client.Stop();
  cluster.RunFor(sim::Millis(500));
  const ClientStats& s = client.stats();
  ASSERT_GT(s.txns_committed, 0u);
  EXPECT_EQ(s.txns_aborted, 0u);
  // Every committed transaction waited op_gap before each op but the first.
  EXPECT_GE(s.total_commit_latency,
            static_cast<sim::Duration>(s.txns_committed) * 3 * cc.op_gap);
}

TEST(Client, AggregateSums) {
  Cluster cluster(Cfg(6));
  cluster.RunFor(sim::Seconds(1));
  ClientConfig cc;
  auto clients = workload::MakeClients(AllNodes(cluster), cluster.runtime_view(),
                                       4, cc);
  for (auto& c : clients) c->Start();
  cluster.RunFor(sim::Seconds(2));
  for (auto& c : clients) c->Stop();
  cluster.RunFor(sim::Millis(200));
  uint64_t manual = 0;
  for (auto& c : clients) manual += c->stats().txns_committed;
  EXPECT_EQ(workload::Aggregate(clients).txns_committed, manual);
}

}  // namespace
}  // namespace vp
