// A five-branch bank whose accounts are replicated at every branch. The
// WAN splits the branches 2|3; the majority side keeps serving transfers,
// the minority side is refused (R1), and after the network heals the
// minority copies catch up (R5). An audit then verifies that no money was
// created or destroyed and that the whole execution is one-copy
// serializable.
//
//   $ ./build/examples/partitioned_bank
#include <cstdio>
#include <cstdlib>

#include "harness/cluster.h"

using namespace vp;

namespace {

constexpr ObjectId kAccounts = 4;
constexpr int64_t kOpening = 1000;

/// Transfers `amount` from account `from` to `to`, coordinated at branch
/// `at`. Returns true if the transfer committed.
bool Transfer(harness::Cluster& cluster, ProcessorId at, ObjectId from,
              ObjectId to, int64_t amount) {
  const bool committed =
      cluster
          .RunTxn(at, {harness::Add(from, -amount), harness::Add(to, amount)})
          .committed;
  cluster.RunFor(sim::Millis(50));
  return committed;
}

int64_t BalanceAt(harness::Cluster& cluster, ProcessorId p, ObjectId acct) {
  return std::strtoll(cluster.store(p).Read(acct).value().value.c_str(),
                      nullptr, 10);
}

}  // namespace

int main() {
  harness::ClusterConfig config;
  config.n_processors = 5;  // Five branches.
  config.n_objects = kAccounts;
  config.initial_value = std::to_string(kOpening);
  config.protocol = harness::Protocol::kVirtualPartition;
  config.seed = 2026;
  harness::Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  std::printf("bank open: 5 branches, %u accounts of %lld each\n\n",
              kAccounts, static_cast<long long>(kOpening));

  // Normal operation.
  int committed = 0;
  committed += Transfer(cluster, 0, 0, 1, 100);
  committed += Transfer(cluster, 3, 2, 3, 250);
  std::printf("normal operation: %d/2 transfers committed\n", committed);

  // The WAN splits: branches {0,1} lose contact with {2,3,4}.
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  std::printf("\n*** network partition: {0,1} | {2,3,4} ***\n");

  const bool minority_ok = Transfer(cluster, 0, 0, 1, 50);
  std::printf("transfer at minority branch 0: %s\n",
              minority_ok ? "committed (!!)" : "refused (R1: no majority)");
  const bool majority_ok = Transfer(cluster, 4, 1, 2, 75);
  std::printf("transfer at majority branch 4: %s\n",
              majority_ok ? "committed" : "refused (!!)");

  // Heal; R5 brings the minority branches' copies up to date.
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  std::printf("\n*** network healed ***\n");

  committed = Transfer(cluster, 1, 3, 0, 30);
  std::printf("transfer at recovered branch 1: %s\n\n",
              committed ? "committed" : "refused (!!)");

  // Audit: every branch agrees on every balance, the total is conserved,
  // and the recorded execution is one-copy serializable.
  bool agree = true;
  int64_t total = 0;
  for (ObjectId acct = 0; acct < kAccounts; ++acct) {
    const int64_t v0 = BalanceAt(cluster, 0, acct);
    total += v0;
    std::printf("account %u: %lld\n", acct, static_cast<long long>(v0));
    for (ProcessorId p = 1; p < 5; ++p) {
      if (BalanceAt(cluster, p, acct) != v0) agree = false;
    }
  }
  auto cert = cluster.Certify();
  std::printf("\naudit: copies agree: %s; total = %lld (expected %lld); "
              "one-copy serializable: %s\n",
              agree ? "yes" : "NO", static_cast<long long>(total),
              static_cast<long long>(kOpening * kAccounts),
              cert.ok ? "yes" : "NO");
  const bool pass = agree && total == kOpening * kAccounts && cert.ok &&
                    !minority_ok && majority_ok;
  std::printf("%s\n", pass ? "AUDIT PASSED" : "AUDIT FAILED");
  return pass ? 0 : 1;
}
