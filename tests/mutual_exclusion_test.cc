// The fundamental safety property behind R1+R3: for EVERY two-way split of
// the system, at most one side can successfully write a given logical
// object (their views hold disjoint processor sets, and only one can hold
// a weighted majority of its copies). Verified by brute force over all
// splits, for uniform and weighted placements, against the live protocol.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Write;

/// All two-way splits (A, complement) of {0..n-1} with A nonempty and not
/// everything, up to symmetry.
std::vector<std::vector<ProcessorId>> Splits(uint32_t n) {
  std::vector<std::vector<ProcessorId>> out;
  for (uint32_t mask = 1; mask < (1u << n) - 1u; ++mask) {
    if ((mask & 1u) == 0) continue;  // Fix 0 on side A to halve symmetry.
    std::vector<ProcessorId> side;
    for (ProcessorId p = 0; p < n; ++p) {
      if (mask & (1u << p)) side.push_back(p);
    }
    out.push_back(std::move(side));
  }
  return out;
}

struct SplitOutcome {
  bool side_a_wrote = false;
  bool side_b_wrote = false;
};

SplitOutcome TrySplit(ClusterConfig config,
                      const std::vector<ProcessorId>& side_a) {
  const uint32_t n = config.n_processors;
  std::vector<ProcessorId> side_b;
  std::vector<bool> in_a(n, false);
  for (ProcessorId p : side_a) in_a[p] = true;
  for (ProcessorId p = 0; p < n; ++p) {
    if (!in_a[p]) side_b.push_back(p);
  }

  Cluster cluster(std::move(config));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({side_a, side_b});
  cluster.RunFor(sim::Seconds(1));

  SplitOutcome out;
  auto ta = cluster.RunTxn(side_a.front(), {Write(0, "A")});
  out.side_a_wrote = ta.committed;
  auto tb = cluster.RunTxn(side_b.front(), {Write(0, "B")});
  out.side_b_wrote = tb.committed;
  return out;
}

TEST(MutualExclusion, UniformCopiesEveryTwoWaySplit) {
  for (const auto& side_a : Splits(5)) {
    ClusterConfig config;
    config.n_processors = 5;
    config.n_objects = 1;
    config.seed = 77;
    config.protocol = Protocol::kVirtualPartition;
    SplitOutcome out = TrySplit(std::move(config), side_a);
    EXPECT_FALSE(out.side_a_wrote && out.side_b_wrote)
        << "both sides wrote with |A|=" << side_a.size();
    // With 5 uniform copies, the side holding >= 3 processors can write.
    const bool a_majority = side_a.size() >= 3;
    EXPECT_EQ(out.side_a_wrote, a_majority) << "|A|=" << side_a.size();
    EXPECT_EQ(out.side_b_wrote, !a_majority) << "|A|=" << side_a.size();
  }
}

TEST(MutualExclusion, WeightedCopiesEveryTwoWaySplit) {
  // Copies at {0,1,2} with weights {3,2,1} (total 6, majority > 3).
  for (const auto& side_a : Splits(4)) {
    ClusterConfig config;
    config.n_processors = 4;
    config.seed = 79;
    config.protocol = Protocol::kVirtualPartition;
    config.placement.AddCopy(0, 0, 3);
    config.placement.AddCopy(0, 1, 2);
    config.placement.AddCopy(0, 2, 1);
    Weight votes_a = 0;
    for (ProcessorId p : side_a) {
      if (p == 0) votes_a += 3;
      if (p == 1) votes_a += 2;
      if (p == 2) votes_a += 1;
    }
    SplitOutcome out = TrySplit(std::move(config), side_a);
    EXPECT_FALSE(out.side_a_wrote && out.side_b_wrote);
    EXPECT_EQ(out.side_a_wrote, 2 * votes_a > 6)
        << "votes_a=" << votes_a;
    EXPECT_EQ(out.side_b_wrote, 2 * (6 - votes_a) > 6)
        << "votes_a=" << votes_a;
  }
}

TEST(MutualExclusion, EvenVotesCanBlockBothSides) {
  // 4 uniform copies, 2|2 split: NEITHER side has a strict majority —
  // safety over availability (both sides refuse).
  ClusterConfig config;
  config.n_processors = 4;
  config.n_objects = 1;
  config.seed = 81;
  config.protocol = Protocol::kVirtualPartition;
  SplitOutcome out = TrySplit(std::move(config), {0, 1});
  EXPECT_FALSE(out.side_a_wrote);
  EXPECT_FALSE(out.side_b_wrote);
}

TEST(MutualExclusion, QuorumProtocolSameProperty) {
  for (const auto& side_a : Splits(5)) {
    ClusterConfig config;
    config.n_processors = 5;
    config.n_objects = 1;
    config.seed = 83;
    config.protocol = Protocol::kMajorityVoting;
    config.quorum.poll_all = true;
    // Spelled as kQuorum with an explicit 3-of-5 majority.
    config.protocol = Protocol::kQuorum;
    config.quorum.read_quorum = 3;
    config.quorum.write_quorum = 3;
    config.quorum.poll_all = true;
    SplitOutcome out = TrySplit(std::move(config), side_a);
    EXPECT_FALSE(out.side_a_wrote && out.side_b_wrote)
        << "both sides wrote with |A|=" << side_a.size();
  }
}

}  // namespace
}  // namespace vp
