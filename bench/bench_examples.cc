// Experiments E1 and E2: the paper's worked anomalies (Figure 1/Example 1
// and Figure 2 + Tables 1-2/Example 2), executed mechanically on the naive
// view protocol (reproducing the violations) and on the virtual-partition
// protocol (closing them). Prints the same objects/transactions the paper
// tabulates.
#include <cstdio>

#include "bench_util.h"

namespace vp::bench {
namespace {

// -------------------------- Example 1 --------------------------

struct Ex1Row {
  std::string read_a, read_b;
  std::string copy_values[3];
  bool committed_a = false, committed_b = false;
  bool one_copy_sr = false;
};

/// One increment transaction of x at `at`; returns (committed, read value).
std::pair<bool, std::string> IncrementX(harness::Cluster& cluster,
                                        ProcessorId at) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    harness::TxnResult t =
        cluster.RunTxn(at, {harness::Increment(0)}, sim::Seconds(3));
    cluster.RunFor(sim::Millis(100));
    if (t.committed) return {true, t.reads[0]};
    // The non-transitive graph churns with the probe period; a fixed retry
    // cadence can phase-lock with it (deterministic simulation), so vary
    // the settle time across attempts.
    cluster.RunFor(sim::Millis(40 + (attempt * 37) % 160));
  }
  return {false, "(never committed)"};
}

Ex1Row RunExample1(harness::Protocol protocol) {
  harness::ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 7;
  config.protocol = protocol;
  harness::Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().SetEdge(0, 1, false);  // Figure 1: A-B down.
  cluster.RunFor(sim::Seconds(1));

  Ex1Row row;
  auto [ca, ra] = IncrementX(cluster, 0);
  auto [cb, rb] = IncrementX(cluster, 1);
  row.committed_a = ca;
  row.committed_b = cb;
  row.read_a = ra;
  row.read_b = rb;
  cluster.RunFor(sim::Seconds(1));
  for (ProcessorId p = 0; p < 3; ++p)
    row.copy_values[p] = cluster.store(p).Read(0).value().value;
  row.one_copy_sr = cluster.CertifyAnyOrder().ok;
  return row;
}

// -------------------------- Example 2 --------------------------

constexpr ObjectId kA = 0, kB = 1, kC = 2, kD = 3;

harness::ClusterConfig Example2Config(harness::Protocol protocol) {
  harness::ClusterConfig c;
  c.n_processors = 4;
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

struct Ex2Row {
  bool committed[4] = {false, false, false, false};
  bool one_copy_sr = false;
};

bool RunReadWrite(harness::Cluster& cluster, ProcessorId at, ObjectId r,
                  ObjectId w, const char* tag) {
  harness::TxnResult t = cluster.RunTxn(
      at, {harness::Read(r), harness::Write(w, tag)}, sim::Seconds(3));
  cluster.RunFor(sim::Millis(100));
  return t.committed;
}

Ex2Row RunExample2(harness::Protocol protocol) {
  harness::Cluster cluster(Example2Config(protocol));
  if (protocol == harness::Protocol::kNaiveView) {
    // Table 1's intermediate views: B and D updated, A and C stale.
    cluster.naive_node(0).SetViewOverride({0, 1});
    cluster.naive_node(1).SetViewOverride({1, 2});
    cluster.naive_node(2).SetViewOverride({2, 3});
    cluster.naive_node(3).SetViewOverride({0, 3});
  } else {
    cluster.RunFor(sim::Seconds(1));
    cluster.graph().Partition({{1, 2}, {0, 3}});  // Figure 2, new state.
    cluster.RunFor(sim::Seconds(1));
  }
  Ex2Row row;
  row.committed[0] = RunReadWrite(cluster, 0, kB, kA, "TA");
  row.committed[1] = RunReadWrite(cluster, 1, kC, kB, "TB");
  row.committed[2] = RunReadWrite(cluster, 2, kD, kC, "TC");
  row.committed[3] = RunReadWrite(cluster, 3, kA, kD, "TD");
  cluster.RunFor(sim::Millis(500));
  row.one_copy_sr = cluster.CertifyAnyOrder().ok;
  return row;
}

void Main() {
  std::printf("E1 (Figure 1 / Example 1): two increments of x from 0\n\n");
  Table t1({"protocol", "A read", "B read", "x@A", "x@B", "x@C",
            "1SR (exhaustive)"});
  for (harness::Protocol proto :
       {harness::Protocol::kNaiveView,
        harness::Protocol::kVirtualPartition}) {
    Ex1Row r = RunExample1(proto);
    t1.AddRow({harness::ProtocolName(proto), r.read_a, r.read_b,
               r.copy_values[0], r.copy_values[1], r.copy_values[2],
               r.one_copy_sr ? "yes" : "NO"});
  }
  t1.Print();
  std::printf(
      "\nNaive: both increments read 0 and every copy ends at 1 — a lost "
      "update.\nVP: the increments serialize; some copy holds 2.\n\n");

  std::printf(
      "E2 (Figure 2, Tables 1-2 / Example 2): T_A:r(b)w(a)  T_B:r(c)w(b)  "
      "T_C:r(d)w(c)  T_D:r(a)w(d)\n\n");
  Table t2({"protocol", "T_A", "T_B", "T_C", "T_D", "1SR (exhaustive)"});
  for (harness::Protocol proto :
       {harness::Protocol::kNaiveView,
        harness::Protocol::kVirtualPartition}) {
    Ex2Row r = RunExample2(proto);
    auto fmt = [](bool c) { return std::string(c ? "committed" : "blocked"); };
    t2.AddRow({harness::ProtocolName(proto), fmt(r.committed[0]),
               fmt(r.committed[1]), fmt(r.committed[2]), fmt(r.committed[3]),
               r.one_copy_sr ? "yes" : "NO"});
  }
  t2.Print();
  std::printf(
      "\nNaive: all four commit on stale/fresh views — serializable but "
      "not 1SR\n(the reads-from cycle T_A<T_B<T_C<T_D<T_A). VP: S3 forces "
      "agreed views\n{B,C}|{A,D}; the majority rule blocks T_A and T_C, "
      "breaking the cycle.\n");
}

}  // namespace
}  // namespace vp::bench

int main() {
  vp::bench::Main();
  return 0;
}
