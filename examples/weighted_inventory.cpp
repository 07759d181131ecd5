// Weighted copies (paper §4, R1 "possibly weighted majority"): a retailer
// keeps inventory replicated at a headquarters (vote weight 2) and two
// stores (weight 1 each, total 4). With weights, the headquarters plus
// EITHER store forms a majority (3/4), and the two stores together (2/4)
// do not — so the side containing HQ keeps operating through any split,
// while a stores-only fragment is read/write-refused.
//
//   $ ./build/examples/weighted_inventory
#include <cstdio>
#include <cstdlib>

#include "harness/cluster.h"

using namespace vp;

namespace {

constexpr ProcessorId kHq = 0, kStoreA = 1, kStoreB = 2;
constexpr ObjectId kWidgets = 0;

/// Sells one widget at `p` (decrement stock); false if refused.
bool SellOne(harness::Cluster& cluster, ProcessorId p) {
  const bool committed =
      cluster.RunTxn(p, {harness::Add(kWidgets, -1)}).committed;
  cluster.RunFor(sim::Millis(50));
  return committed;
}

}  // namespace

int main() {
  harness::ClusterConfig config;
  config.n_processors = 3;
  config.protocol = harness::Protocol::kVirtualPartition;
  config.seed = 77;
  config.placement.AddCopy(kWidgets, kHq, 2);      // HQ: weight 2.
  config.placement.AddCopy(kWidgets, kStoreA, 1);  // Stores: weight 1.
  config.placement.AddCopy(kWidgets, kStoreB, 1);
  config.initial_values[kWidgets] = "100";
  harness::Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));

  std::printf("inventory: 100 widgets; votes: HQ=2, storeA=1, storeB=1\n\n");
  int sold = 0;
  sold += SellOne(cluster, kStoreA);
  sold += SellOne(cluster, kStoreB);
  std::printf("connected: both stores sold a widget (%d/2)\n\n", sold);

  // Split 1: HQ + store A vs store B. HQ's side has 3/4 votes.
  cluster.graph().Partition({{kHq, kStoreA}, {kStoreB}});
  cluster.RunFor(sim::Seconds(1));
  const bool hq_side = SellOne(cluster, kStoreA);
  const bool lone_store = SellOne(cluster, kStoreB);
  std::printf("split {HQ,A}|{B}: sale at store A: %s; at store B: %s\n",
              hq_side ? "committed (3/4 votes)" : "refused (!!)",
              lone_store ? "committed (!!)" : "refused (1/4 votes)");
  if (hq_side) ++sold;

  // Split 2: HQ alone vs the two stores. Neither 2/4 side has a majority —
  // writes stop everywhere (safety over availability).
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  cluster.graph().Partition({{kHq}, {kStoreA, kStoreB}});
  cluster.RunFor(sim::Seconds(1));
  const bool hq_alone = SellOne(cluster, kHq);
  const bool stores_together = SellOne(cluster, kStoreA);
  std::printf("split {HQ}|{A,B}: sale at HQ: %s; at stores: %s\n",
              hq_alone ? "committed (!!)" : "refused (2/4 votes)",
              stores_together ? "committed (!!)" : "refused (2/4 votes)");

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  const bool after_heal = SellOne(cluster, kStoreB);
  if (after_heal) ++sold;

  const int64_t stock = std::strtoll(
      cluster.store(kHq).Read(kWidgets).value().value.c_str(), nullptr, 10);
  auto cert = cluster.Certify();
  std::printf("\nafter heal: stock = %lld (sold %d), one-copy serializable: "
              "%s\n", static_cast<long long>(stock), sold,
              cert.ok ? "yes" : "NO");
  const bool pass = hq_side && !lone_store && !hq_alone &&
                    !stores_together && after_heal &&
                    stock == 100 - sold && cert.ok;
  std::printf("%s\n", pass ? "DEMO OK" : "DEMO FAILED");
  return pass ? 0 : 1;
}
