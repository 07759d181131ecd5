// Golden-trace parity for the runtime abstraction layer.
//
// The SimRuntime adapters must be invisible: a run through
// Clock/Executor/Transport has to produce byte-for-byte the trace the
// pre-refactor code produced straight against Scheduler/Network. The
// digests below were captured from the direct-wiring implementation; any
// change to scheduling order, rng-draw order, or message routing shows up
// here as a digest mismatch long before a protocol test would notice.
//
// Eight pinned configurations cover both nemesis seeds used elsewhere as
// anchors (3, 438) across protocols and the harsh/reliable generator, and
// a 25-seed smoke sweep covers the default VP generator. A third table
// pins ROWA and the naive-view strawman at the same anchors, and VP and
// quorum on a crash-amnesia plan whose reboots retire a coordinator with
// logical operations in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nemesis/nemesis.h"

namespace vp {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Runs the plan `gen` generates for `seed` under `proto`. Every protocol
/// but the naive-view strawman must come out violation-free; the strawman
/// violates by design, so its plans must violate.
uint64_t DigestFor(uint64_t seed, harness::Protocol proto,
                   const nemesis::GeneratorConfig& gen) {
  nemesis::FaultPlan plan = nemesis::GeneratePlan(seed, gen);
  plan.protocol = proto;
  nemesis::RunOutcome out = nemesis::RunPlan(plan);
  if (proto == harness::Protocol::kNaiveView) {
    EXPECT_TRUE(out.violation()) << "naive-view ran clean at seed " << seed;
  } else {
    EXPECT_FALSE(out.violation()) << out.failure;
  }
  return Fnv1a(out.trace);
}

uint64_t DigestFor(uint64_t seed, harness::Protocol proto, bool harsh,
                   bool reliable) {
  nemesis::GeneratorConfig gen;
  gen.harsh = harsh;
  gen.reliable = reliable;
  return DigestFor(seed, proto, gen);
}

struct Golden {
  uint64_t seed;
  harness::Protocol proto;
  bool harsh;
  bool reliable;
  uint64_t digest;
};

TEST(RuntimeParity, PinnedConfigurationsMatchGoldenDigests) {
  using harness::Protocol;
  const Golden kGolden[] = {
      {3, Protocol::kVirtualPartition, false, false, 0xf0e6103c6be783ceULL},
      {3, Protocol::kVirtualPartition, true, true, 0xcacf0d4bc06f3774ULL},
      {3, Protocol::kQuorum, true, true, 0x560e43276e93835fULL},
      {3, Protocol::kMajorityVoting, true, true, 0x560e43276e93835fULL},
      {438, Protocol::kVirtualPartition, false, false, 0x3ae6e0d59e0a2964ULL},
      {438, Protocol::kVirtualPartition, true, true, 0xfb63ed9a7c02c097ULL},
      {438, Protocol::kQuorum, true, true, 0xe8d3308c6e26ce8cULL},
      {438, Protocol::kMajorityVoting, true, true, 0xe8d3308c6e26ce8cULL},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(DigestFor(g.seed, g.proto, g.harsh, g.reliable), g.digest)
        << "trace drift at seed " << g.seed << " protocol "
        << harness::ProtocolName(g.proto) << " harsh=" << g.harsh
        << " reliable=" << g.reliable;
  }
}

TEST(RuntimeParity, ComparatorAndRebootPathsMatchGoldenDigests) {
  using harness::Protocol;
  const Golden kHarsh[] = {
      {3, Protocol::kRowa, true, true, 0x9e71e1981074dfa1ULL},
      {438, Protocol::kRowa, true, true, 0x75c2f2ab92669e2dULL},
      {3, Protocol::kNaiveView, true, true, 0x24ae03b056443277ULL},
      {438, Protocol::kNaiveView, true, true, 0x5ed9f00bb6d16954ULL},
  };
  for (const Golden& g : kHarsh) {
    EXPECT_EQ(DigestFor(g.seed, g.proto, g.harsh, g.reliable), g.digest)
        << "trace drift at seed " << g.seed << " protocol "
        << harness::ProtocolName(g.proto);
  }
  // The fault-storm generator settings: crash-amnesia with the reliable
  // channel. Seed 3's plan reboots a coordinator with a logical operation
  // in flight under both protocols, so the crash sweep of pending ops is
  // part of the pinned trace.
  nemesis::GeneratorConfig amnesia;
  amnesia.enable_amnesia = true;
  amnesia.reliable = true;
  EXPECT_EQ(DigestFor(3, Protocol::kVirtualPartition, amnesia),
            0x124fec9e8bf77384ULL)
      << "trace drift at amnesia seed 3, virtual-partition";
  EXPECT_EQ(DigestFor(3, Protocol::kQuorum, amnesia), 0xaaaf68c639c066a6ULL)
      << "trace drift at amnesia seed 3, quorum";
}

TEST(RuntimeParity, SmokeSweepMatchesGoldenDigests) {
  const uint64_t kSmoke[25] = {
      0x8f23814d3b03268dULL, 0xa7d9f0b0af278586ULL, 0xb1166e3017ae9b2eULL,
      0xf0e6103c6be783ceULL, 0xac9718d4e491d71eULL, 0xff1db59e0422b387ULL,
      0x749c339213ecd1a0ULL, 0x7f3aa9907ffd5b3eULL, 0xe176f28d6bfd4482ULL,
      0x55c30c57e24f958aULL, 0x42082ecb890163a9ULL, 0x8829b64b72459b03ULL,
      0xc1789eddb2508d79ULL, 0xca3e3dc06ab28b73ULL, 0x75338a03f140728bULL,
      0x2dbcdb980edb7d69ULL, 0x82a97c03fbbea209ULL, 0xbcf464771310baa0ULL,
      0x3f60aa20be68e5a7ULL, 0xb9f8b98c663a9f36ULL, 0x125a95b70583b981ULL,
      0xab02c8f7d37b1e49ULL, 0xf6d07ecc763322f8ULL, 0x382f42d8dcb45b39ULL,
      0x8d8172d811dd056aULL,
  };
  for (uint64_t seed = 0; seed < 25; ++seed) {
    EXPECT_EQ(DigestFor(seed, harness::Protocol::kVirtualPartition,
                        /*harsh=*/false, /*reliable=*/false),
              kSmoke[seed])
        << "trace drift at smoke seed " << seed;
  }
}

}  // namespace
}  // namespace vp
