// Tests for the flight recorder, the online invariant probes, and the
// per-transaction critical-path attribution (src/obs/flight_recorder.h,
// probes.h, critical_path.h): ring semantics and dump/parse round-trips,
// each probe rule in isolation, the exact-sum contract of the latency
// decomposition, end-to-end recording on a live sim cluster, reconfig
// trace-id propagation, and the nemesis integration (violating runs ship
// a parseable `.fdr` whose first bad event the probes flagged live).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "nemesis/nemesis.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/trace.h"
#include "storage/stable_store.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using obs::FdrEvent;
using obs::FdrKind;
using obs::FlightRecorder;
using obs::FdrMode;
using obs::MetricsRegistry;
using obs::ProbeEngine;
using obs::ProbeRule;
using obs::RegistryMode;
using obs::TxnPathTracker;

FdrEvent Ev(int64_t ts, ProcessorId node, FdrKind kind, uint64_t a = 0,
            uint64_t b = 0, TxnId txn = {}) {
  FdrEvent e;
  e.ts_us = ts;
  e.node = node;
  e.kind = kind;
  e.txn = txn;
  e.a = a;
  e.b = b;
  return e;
}

TEST(FdrRing, KindNamesRoundTrip) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(FdrKind::kProbeViolation);
       ++k) {
    const FdrKind kind = static_cast<FdrKind>(k);
    FdrKind back;
    ASSERT_TRUE(obs::FdrKindFromName(obs::FdrKindName(kind), &back))
        << obs::FdrKindName(kind);
    EXPECT_EQ(back, kind);
  }
  FdrKind unused;
  EXPECT_FALSE(obs::FdrKindFromName("warp.drive", &unused));
}

TEST(FdrRing, DumpParseRoundTripPreservesEvents) {
  FlightRecorder rec(FdrMode::kSerial, 3, /*capacity=*/8);
  ASSERT_TRUE(rec.enabled());
  rec.Record(Ev(100, 0, FdrKind::kTxnBegin, 7, 0, TxnId{0, 1}));
  rec.Record(Ev(250, 2, FdrKind::kPhysWrite, 3,
                FlightRecorder::HashValue("v1"), TxnId{0, 1}));
  rec.Record(Ev(300, 1, FdrKind::kViewCommit, FlightRecorder::PackVpId(
                VpId{2, 1}), 0b111));
  rec.Record(Ev(410, 0, FdrKind::kTxnDecide, 1, 310, TxnId{0, 1}));

  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::Parse(rec.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FlightRecorder::Parsed& p = parsed.value();
  EXPECT_EQ(p.n_nodes, 3u);
  EXPECT_EQ(p.capacity, 8u);
  ASSERT_EQ(p.events.size(), 4u);
  EXPECT_EQ(p.nodes, (std::set<ProcessorId>{0, 1, 2}));
  // Merged oldest-first by timestamp across the per-node rings.
  EXPECT_EQ(p.events[0].ts_us, 100);
  EXPECT_EQ(p.events[3].ts_us, 410);
  EXPECT_EQ(p.events[0].kind, FdrKind::kTxnBegin);
  EXPECT_EQ(p.events[0].txn, (TxnId{0, 1}));
  EXPECT_EQ(p.events[1].kind, FdrKind::kPhysWrite);
  EXPECT_EQ(p.events[1].b, FlightRecorder::HashValue("v1"));
  EXPECT_EQ(p.events[2].a, FlightRecorder::PackVpId(VpId{2, 1}));
  EXPECT_EQ(p.events[3].b, 310u);
}

TEST(FdrRing, RingKeepsOnlyTheLastCapacityEvents) {
  FlightRecorder rec(FdrMode::kSerial, 1, /*capacity=*/4);
  for (int64_t i = 0; i < 10; ++i) {
    rec.Record(Ev(i, 0, FdrKind::kWalAppend, static_cast<uint64_t>(i)));
  }
  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::Parse(rec.Dump());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().events.size(), 4u);
  // The oldest six were overwritten; the survivors are ts 6..9 in order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed.value().events[i].ts_us, static_cast<int64_t>(6 + i));
  }
}

TEST(FdrRing, DisabledAndOutOfRangeRecordsAreDropped) {
  EXPECT_FALSE(FlightRecorder::Disabled()->enabled());
  FlightRecorder::Disabled()->Record(Ev(1, 0, FdrKind::kTxnBegin));

  FlightRecorder rec(FdrMode::kConcurrent, 2, /*capacity=*/4);
  rec.Record(Ev(1, 5, FdrKind::kTxnBegin));  // Node 5 of 2: dropped.
  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::Parse(rec.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().events.empty());
}

TEST(FdrRing, ParseRejectsGarbage) {
  EXPECT_FALSE(FlightRecorder::Parse("").ok());
  EXPECT_FALSE(FlightRecorder::Parse("not a header\n").ok());
  FlightRecorder rec(FdrMode::kSerial, 1, 2);
  rec.Record(Ev(1, 0, FdrKind::kTxnBegin));
  // Corrupt the event line's kind in an otherwise valid dump.
  std::string dump = rec.Dump();
  const size_t at = dump.find("txn.begin");
  ASSERT_NE(at, std::string::npos);
  dump.replace(at, 9, "txn.burgl");
  EXPECT_FALSE(FlightRecorder::Parse(dump).ok());
}

TEST(FdrRing, WriteFileParseFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "fdr_roundtrip.fdr";
  FlightRecorder rec(FdrMode::kSerial, 2, 4);
  rec.Record(Ev(5, 1, FdrKind::kFsync, 0, 128));
  ASSERT_TRUE(rec.WriteFile(path).ok());
  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().events.size(), 1u);
  EXPECT_EQ(parsed.value().events[0].kind, FdrKind::kFsync);
  EXPECT_EQ(parsed.value().events[0].b, 128u);
  EXPECT_FALSE(FlightRecorder::ParseFile("/nonexistent/x.fdr").ok());
}

TEST(Probes, ViewUniquenessFlagsConflictingMemberSets) {
  MetricsRegistry reg(RegistryMode::kSerial);
  ProbeEngine probes(/*thread_safe=*/false, &reg);
  const uint64_t vp = FlightRecorder::PackVpId(VpId{3, 0});
  probes.OnFdrEvent(Ev(10, 0, FdrKind::kViewCommit, vp, 0b0111));
  probes.OnFdrEvent(Ev(20, 1, FdrKind::kViewCommit, vp, 0b0111));
  EXPECT_FALSE(probes.flagged()) << "same member set must not flag";
  probes.OnFdrEvent(Ev(30, 2, FdrKind::kViewCommit, vp, 0b1100));
  ASSERT_TRUE(probes.flagged());
  EXPECT_EQ(probes.first()->rule, ProbeRule::kViewUniqueness);
  EXPECT_NE(probes.Describe().find("view-uniqueness"), std::string::npos);
}

TEST(Probes, EpochMonotonicFlagsPerNodeRegression) {
  ProbeEngine probes(/*thread_safe=*/false,
                     MetricsRegistry::Default());
  probes.OnFdrEvent(Ev(10, 0, FdrKind::kEpochSwitch, 2));
  probes.OnFdrEvent(Ev(20, 1, FdrKind::kEpochSwitch, 1));
  EXPECT_FALSE(probes.flagged()) << "epochs are per-node";
  probes.OnFdrEvent(Ev(30, 0, FdrKind::kEpochSwitch, 3));
  EXPECT_FALSE(probes.flagged());
  probes.OnFdrEvent(Ev(40, 0, FdrKind::kEpochSwitch, 1));
  ASSERT_TRUE(probes.flagged());
  EXPECT_EQ(probes.first()->rule, ProbeRule::kEpochMonotonic);
  EXPECT_EQ(probes.first()->event.ts_us, 40);
}

TEST(Probes, CommitBeforeReadFlagsServingAfterOutcomeApplied) {
  ProbeEngine probes(/*thread_safe=*/false,
                     MetricsRegistry::Default());
  probes.AddKnownValue("x");
  const TxnId txn{1, 9};
  const uint64_t h = FlightRecorder::HashValue("x");
  // Served before the outcome: legitimate.
  probes.OnFdrEvent(Ev(10, 2, FdrKind::kPhysRead, 0, h, txn));
  // Abort outcomes do not arm the guard (abort releases nothing visible).
  probes.OnFdrEvent(Ev(20, 2, FdrKind::kOutcomeApplied, 0, 0, txn));
  probes.OnFdrEvent(Ev(30, 2, FdrKind::kPhysRead, 0, h, txn));
  EXPECT_FALSE(probes.flagged());
  // Commit applied at node 2; a duplicate served at node 3 is still fine.
  probes.OnFdrEvent(Ev(40, 2, FdrKind::kOutcomeApplied, 1, 0, txn));
  probes.OnFdrEvent(Ev(50, 3, FdrKind::kPhysRead, 0, h, txn));
  EXPECT_FALSE(probes.flagged()) << "the boundary is per (node, txn)";
  probes.OnFdrEvent(Ev(60, 2, FdrKind::kPhysWrite, 0, h, txn));
  ASSERT_TRUE(probes.flagged());
  EXPECT_EQ(probes.first()->rule, ProbeRule::kCommitBeforeRead);
}

TEST(Probes, DurableReadTracesServedValuesToStagedWrites) {
  ProbeEngine probes(/*thread_safe=*/false,
                     MetricsRegistry::Default());
  probes.AddKnownValue("init");
  const TxnId txn{0, 1};
  probes.OnFdrEvent(Ev(10, 0, FdrKind::kPhysRead, 0,
                       FlightRecorder::HashValue("init"), txn));
  EXPECT_FALSE(probes.flagged()) << "initial values are known";
  // A staged write extends the known set; reading it back is legitimate.
  probes.OnFdrEvent(Ev(20, 1, FdrKind::kPhysWrite, 0,
                       FlightRecorder::HashValue("staged"), txn));
  probes.OnFdrEvent(Ev(30, 1, FdrKind::kPhysRead, 0,
                       FlightRecorder::HashValue("staged"), txn));
  EXPECT_FALSE(probes.flagged());
  // Bytes no write ever staged: the device fabricated them (rot served
  // verbatim by the nochecksum control).
  probes.OnFdrEvent(Ev(40, 1, FdrKind::kPhysRead, 0,
                       FlightRecorder::HashValue("r0t"), txn));
  ASSERT_TRUE(probes.flagged());
  EXPECT_EQ(probes.first()->rule, ProbeRule::kDurableRead);
  EXPECT_NE(probes.Describe().find("durable-read"), std::string::npos);
}

TEST(Probes, FirstViolationIsEchoedIntoTheRecorderAndCounted) {
  MetricsRegistry reg(RegistryMode::kSerial);
  FlightRecorder rec(FdrMode::kSerial, 2, 8);
  ProbeEngine probes(/*thread_safe=*/false, &reg);
  rec.set_listener(&probes);
  probes.AttachRecorder(&rec);

  rec.Record(Ev(10, 0, FdrKind::kEpochSwitch, 2));
  rec.Record(Ev(20, 0, FdrKind::kEpochSwitch, 1));  // Regression: flags.
  // A second, different violation must not displace the first.
  rec.Record(Ev(30, 1, FdrKind::kPhysRead, 0,
                FlightRecorder::HashValue("junk"), TxnId{0, 1}));

  ASSERT_TRUE(probes.flagged());
  EXPECT_EQ(probes.first()->rule, ProbeRule::kEpochMonotonic);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("probe.violations"), 2u);
  EXPECT_GE(snap.CounterValue("probe.events"), 3u);

  // The echo lands in the dump as a probe.violation event at the offending
  // node, carrying the rule index (violation echoes are not re-checked).
  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::Parse(rec.Dump());
  ASSERT_TRUE(parsed.ok());
  bool saw_echo = false;
  for (const FdrEvent& e : parsed.value().events) {
    if (e.kind != FdrKind::kProbeViolation) continue;
    saw_echo = true;
    EXPECT_EQ(e.node, 0u);
    EXPECT_EQ(e.a, static_cast<uint64_t>(ProbeRule::kEpochMonotonic));
  }
  EXPECT_TRUE(saw_echo);
}

/// The decomposition contract: the five components sum to exactly the
/// measured total for every clamp order the tracker can hit.
TEST(CriticalPath, ComponentsSumExactlyToTotal) {
  const auto sum = [](const TxnPathTracker::Breakdown& b) {
    return b.lock_wait_us + b.quorum_rtt_us + b.fsync_us +
           b.retransmit_stall_us + b.queueing_us;
  };

  {
    // Two overlapping ops: remote time is the union of their windows.
    TxnPathTracker t;
    t.OpIssued(100);
    t.OpIssued(150);
    t.OpCompleted(200, /*lock_wait_us=*/30);
    t.OpCompleted(400, /*lock_wait_us=*/50);
    const TxnPathTracker::Breakdown b = t.Finalize(1000);
    EXPECT_EQ(sum(b), 1000u);
    EXPECT_EQ(b.lock_wait_us, 80u);
    EXPECT_EQ(b.quorum_rtt_us, 220u);  // Union window 300 minus lock wait.
    EXPECT_EQ(b.queueing_us, 700u);
    EXPECT_EQ(b.fsync_us, 0u);
  }
  {
    // Reported lock wait exceeding the remote window clamps to it.
    TxnPathTracker t;
    t.OpIssued(0);
    t.OpCompleted(300, /*lock_wait_us=*/500);
    const TxnPathTracker::Breakdown b = t.Finalize(1000);
    EXPECT_EQ(sum(b), 1000u);
    EXPECT_EQ(b.lock_wait_us, 300u);
    EXPECT_EQ(b.quorum_rtt_us, 0u);
  }
  {
    // Retransmit stall is bounded by what lock wait left of the window.
    TxnPathTracker t;
    t.OpIssued(0);
    t.OpCompleted(300, /*lock_wait_us=*/100);
    t.AddRetransmitStall(5000);
    const TxnPathTracker::Breakdown b = t.Finalize(1000);
    EXPECT_EQ(sum(b), 1000u);
    EXPECT_EQ(b.retransmit_stall_us, 200u);
    EXPECT_EQ(b.quorum_rtt_us, 0u);
  }
  {
    // Fsync is bounded by the local (non-remote) share; queueing absorbs
    // the rest.
    TxnPathTracker t;
    t.OpIssued(0);
    t.OpCompleted(300, 0);
    t.AddFsync(5000);
    const TxnPathTracker::Breakdown b = t.Finalize(1000);
    EXPECT_EQ(sum(b), 1000u);
    EXPECT_EQ(b.fsync_us, 700u);
    EXPECT_EQ(b.queueing_us, 0u);
  }
  {
    // An op still outstanding at decision time (doomed-txn abort): its
    // open window lands in queueing, and the sum still holds.
    TxnPathTracker t;
    t.OpIssued(100);
    const TxnPathTracker::Breakdown b = t.Finalize(500);
    EXPECT_EQ(sum(b), 500u);
    EXPECT_EQ(b.queueing_us, 500u);
  }
  {
    // No instrumentation at all: everything is queueing.
    TxnPathTracker t;
    const TxnPathTracker::Breakdown b = t.Finalize(123);
    EXPECT_EQ(sum(b), 123u);
    EXPECT_EQ(b.queueing_us, 123u);
  }
}

// A live sim cluster records protocol events into the always-on recorder,
// the probes stay quiet on a healthy run, and the txn.path.* histograms
// obey the exact-sum contract in aggregate.
TEST(ClusterFdr, SimRunRecordsEventsAndPathsSumExactly) {
  ClusterConfig config = testutil::Cfg(3, /*seed=*/77);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  uint64_t committed = 0;
  for (int i = 0; i < 4; ++i) {
    const harness::TxnResult out = cluster.RunTxn(
        static_cast<ProcessorId>(i % 3),
        {testutil::Write(0, "w" + std::to_string(i)), testutil::Read(1)});
    if (out.committed) ++committed;
  }
  ASSERT_GT(committed, 0u);

  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::Parse(cluster.fdr().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::set<FdrKind> kinds;
  for (const FdrEvent& e : parsed.value().events) kinds.insert(e.kind);
  EXPECT_TRUE(kinds.count(FdrKind::kTxnBegin));
  EXPECT_TRUE(kinds.count(FdrKind::kTxnDecide));
  EXPECT_TRUE(kinds.count(FdrKind::kPhysWrite));
  EXPECT_TRUE(kinds.count(FdrKind::kViewCommit));
  EXPECT_FALSE(parsed.value().nodes.empty());
  EXPECT_FALSE(cluster.probes().flagged()) << cluster.probes().Describe();

  // Aggregate exactness: the five component histograms sum to the total
  // histogram, observation for observation, so the sums match too.
  const obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
  const obs::MetricsSnapshot::HistogramEntry* total =
      snap.FindHistogram("txn.path.total_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, committed)
      << "one breakdown per committed transaction";
  uint64_t component_sum = 0;
  for (const char* name :
       {"txn.path.lock_wait_us", "txn.path.quorum_rtt_us",
        "txn.path.fsync_us", "txn.path.retransmit_stall_us",
        "txn.path.queueing_us"}) {
    const obs::MetricsSnapshot::HistogramEntry* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, committed) << name;
    component_sum += h->sum;
  }
  EXPECT_EQ(component_sum, total->sum);
  EXPECT_GT(total->sum, 0u);
}

// A reconfiguration's trace id travels from the originating
// ProposeReconfig through the VpCommit broadcast to every member's
// epoch-switch instant.
TEST(ClusterFdr, ReconfigTraceIdPropagatesToEveryEpochSwitch) {
  ClusterConfig config = testutil::Cfg(4, /*seed=*/33);
  config.tracing = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  cluster.ProposeReconfig(1, {ReconfigOp{ReconfigOp::Kind::kSetWeight,
                                         /*obj=*/0, /*proc=*/0,
                                         /*weight=*/2}});
  cluster.RunFor(sim::Seconds(2));
  ASSERT_EQ(cluster.LatestEpoch(), 1u);

  uint64_t reconfig_trace = 0;
  bool ended = false;
  std::vector<obs::TraceEvent> switches;
  for (const obs::TraceEvent& e : cluster.tracer().events()) {
    if (e.name == "vp.reconfig" && e.phase == 'b') {
      EXPECT_EQ(reconfig_trace, 0u) << "one batch, one span";
      reconfig_trace = e.id;
      EXPECT_EQ(e.proc, 1u) << "span opens at the proposer";
    }
    if (e.name == "vp.reconfig" && e.phase == 'e') ended = true;
    if (e.name == "vp.epoch_switch") switches.push_back(e);
  }
  ASSERT_NE(reconfig_trace, 0u);
  EXPECT_TRUE(ended);

  // Every processor switched to epoch 1 exactly once, and each instant
  // carries the originating reconfig trace id end to end.
  ASSERT_EQ(switches.size(), 4u);
  std::set<ProcessorId> switched;
  for (const obs::TraceEvent& e : switches) {
    EXPECT_EQ(e.id, reconfig_trace) << "p" << e.proc;
    switched.insert(e.proc);
  }
  EXPECT_EQ(switched.size(), 4u);
}

TEST(NemesisFdr, CleanRunsCarryNoDumpButFdrOutWritesOne) {
  const nemesis::FaultPlan plan = nemesis::GeneratePlan(11);
  const nemesis::RunOutcome out = nemesis::RunPlan(plan);
  ASSERT_FALSE(out.violation()) << out.failure;
  EXPECT_TRUE(out.fdr.empty()) << "dumps are reserved for failures";
  EXPECT_FALSE(out.probe_flagged) << out.probe_first;

  nemesis::RunOptions opts;
  opts.fdr_out = ::testing::TempDir() + "clean_run.fdr";
  const nemesis::RunOutcome traced = nemesis::RunPlan(plan, opts);
  ASSERT_FALSE(traced.violation());
  const Result<FlightRecorder::Parsed> parsed =
      FlightRecorder::ParseFile(opts.fdr_out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().n_nodes, plan.n_processors);
  EXPECT_FALSE(parsed.value().events.empty());
}

// The rot-serving negative control: every violating run ships a
// non-empty, parseable flight-recorder dump, and the online probes flag
// the corruption live (first bad event) rather than at end-of-run
// certification.
TEST(NemesisFdr, NoChecksumViolationsShipParseableFdrAndProbesFlagLive) {
  nemesis::GeneratorConfig cfg;
  cfg.enable_corruption = true;
  cfg.integrity = storage::IntegrityMode::kNoChecksum;

  uint32_t violations = 0;
  uint32_t probe_flagged = 0;
  for (uint64_t seed = 20; seed <= 30; ++seed) {
    const nemesis::FaultPlan plan = nemesis::GeneratePlan(seed, cfg);
    const nemesis::RunOutcome out = nemesis::RunPlan(plan);
    if (!out.violation()) continue;
    ++violations;
    ASSERT_FALSE(out.fdr.empty()) << "seed " << seed;
    const Result<FlightRecorder::Parsed> parsed =
        FlightRecorder::Parse(out.fdr);
    ASSERT_TRUE(parsed.ok())
        << "seed " << seed << ": " << parsed.status().ToString();
    EXPECT_FALSE(parsed.value().events.empty()) << "seed " << seed;
    EXPECT_FALSE(parsed.value().nodes.empty()) << "seed " << seed;
    if (out.probe_flagged) {
      ++probe_flagged;
      EXPECT_FALSE(out.probe_first.empty());
      // No echo-in-dump assertion here: the violation may be thousands of
      // events old by run end, legitimately evicted from the last-N ring.
    }
  }
  EXPECT_GE(violations, 1u)
      << "the nochecksum control must violate in this seed range";
  EXPECT_GE(probe_flagged, 1u)
      << "at least one violation must be probe-caught live";
}

}  // namespace
}  // namespace vp
