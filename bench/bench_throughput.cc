// Experiment E14: real-thread throughput and commit latency.
//
// Every other bench runs on the simulator, where latency is modeled and
// throughput is meaningless. This one drives the protocols on
// runtime::ThreadRuntime — N closed-loop client threads calling the
// blocking ThreadCluster API against strand-parallel nodes — and reports
// committed transactions per second plus p50/p99 commit latency of real
// wall-clock time. Results go to stdout and to a JSON file
// (BENCH_throughput.json by default) so the numbers are diffable across
// commits; the run aborts with a nonzero exit if the committed history
// fails the 1SR certifier.
//
// Usage:
//   bench_throughput [--smoke] [--protocol=NAME] [--clients=N]
//                    [--duration-ms=N] [--threads=1,2,4,8] [--zipf=THETA]
//                    [--out=PATH] [--trace-out=PATH] [--overhead-check]
//
// --smoke shrinks the run for CI (TSan job): short window, fewer clients,
// all protocols, full certification.
// --threads runs an additional worker-count scaling sweep (E18): the first
// selected protocol is re-run at each listed ThreadRuntime worker count and
// the per-count throughput, certification verdict and runtime counters
// (mailbox pushes vs. timer-heap lock acquisitions) land in a "scaling"
// array in the JSON. Any uncertified point fails the run.
// --zipf=THETA replaces the conflict-free object choice with Zipf(THETA)
// draws over all 16 objects (0 = uniform, 0.99 = YCSB-style hot keys), so
// clients collide on hot objects and the lock_wait / abort axes carry
// signal. The theta is recorded in the JSON.
// --trace-out enables causal tracing for the first protocol's run and
// writes its Chrome trace_event JSON there.
// --overhead-check discards one warm-up run of VP, then alternates five
// runs with the whole observability stack off (flight recorder, invariant
// probes, tracing) and five with all of it on, and fails (exit 1) if the
// instrumented median throughput drops below 90% of the baseline median.
// The guard is skipped when a baseline run committed too few transactions
// for the comparison to mean anything (short smoke windows under TSan).
//
// Every per-protocol JSON entry also carries the per-txn critical-path
// attribution (E19): p50/mean of the txn.path.{lock_wait, quorum_rtt,
// fsync, retransmit_stall, queueing}_us histograms plus txn.path.total_us,
// and two validation ratios — component_p50_sum_over_total_p50 (sum of the
// five component p50s over the total histogram's p50; the components sum
// exactly to the coordinator-observed duration per txn, so this staying
// near 1 validates the breakdown at the distribution level) and
// attributed_p50_over_measured_p50 (coordinator-observed p50 over the
// client-observed p50; the gap is client-side scheduling the node never
// sees).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "harness/thread_cluster.h"

namespace vp::bench {
namespace {

struct Options {
  bool smoke = false;
  std::string protocol;  // Empty = the three headline protocols.
  uint32_t clients = 8;
  uint32_t duration_ms = 5000;
  uint32_t warmup_ms = 1000;
  std::string out = "BENCH_throughput.json";
  /// Enable tracing on the first protocol's run and write its span JSON.
  std::string trace_out;
  /// Instrumentation-overhead guard mode (see file comment).
  bool overhead_check = false;
  /// Worker counts for the E18 scaling sweep; empty = no sweep.
  std::vector<uint32_t> threads;
  /// Zipfian skew of the object-choice distribution; 0 = the conflict-free
  /// legacy workload.
  double zipf = 0.0;
};

struct ProtoResult {
  std::string protocol;
  /// Runtime worker threads the run actually used (after clamping).
  uint32_t workers = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double txns_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool certified_1sr = false;
  std::string certify_detail;
  obs::MetricsSnapshot metrics;
};

// E19: per-txn critical-path attribution block. p50 and mean of each
// txn.path.* component histogram, plus the ratio of attributed p50 total
// to the measured (client-observed) p50 commit latency.
void WritePathBreakdown(obs::JsonWriter& w, const ProtoResult& r) {
  static constexpr const char* kComponents[] = {
      "txn.path.lock_wait_us",        "txn.path.quorum_rtt_us",
      "txn.path.fsync_us",            "txn.path.retransmit_stall_us",
      "txn.path.queueing_us",         "txn.path.total_us",
  };
  w.BeginObject("critical_path");
  for (const char* name : kComponents) {
    const obs::MetricsSnapshot::HistogramEntry* h =
        r.metrics.FindHistogram(name);
    w.BeginObject(name);
    w.Field("count", h != nullptr ? h->count : 0);
    w.Field("p50_us", h != nullptr ? h->p50 : 0.0, 1);
    w.Field("mean_us",
            h != nullptr && h->count > 0
                ? static_cast<double>(h->sum) / static_cast<double>(h->count)
                : 0.0,
            1);
    w.EndObject();
  }
  const obs::MetricsSnapshot::HistogramEntry* total =
      r.metrics.FindHistogram("txn.path.total_us");
  // Per-txn the five components sum exactly to the coordinator-observed
  // duration; p50s do not commute with sums, so this ratio staying near 1
  // validates the instrumentation points against the latency distribution.
  double component_p50_sum = 0;
  for (const char* name : kComponents) {
    if (std::strcmp(name, "txn.path.total_us") == 0) continue;
    const obs::MetricsSnapshot::HistogramEntry* h =
        r.metrics.FindHistogram(name);
    if (h != nullptr) component_p50_sum += h->p50;
  }
  w.Field("component_p50_sum_over_total_p50",
          total != nullptr && total->p50 > 0 ? component_p50_sum / total->p50
                                             : 0.0,
          3);
  // Client-observed p50 exceeds the coordinator's: the gap is submit/wakeup
  // scheduling the node never sees, not attribution error.
  const double measured_p50_us = r.p50_ms * 1000.0;
  w.Field("attributed_p50_over_measured_p50",
          total != nullptr && measured_p50_us > 0
              ? total->p50 / measured_p50_us
              : 0.0,
          3);
  w.EndObject();
}

double PercentileMs(std::vector<runtime::Duration>& lat, double q) {
  if (lat.empty()) return 0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(lat.size() - 1));
  std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
  return sim::ToMillis(lat[idx]);
}

ProtoResult RunOne(harness::Protocol proto, const Options& opts,
                   bool tracing = false, const std::string& trace_out = {},
                   uint32_t workers = 0,
                   size_t fdr_capacity = obs::FlightRecorder::kDefaultCapacity) {
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 3;
  cfg.n_objects = 16;
  cfg.protocol = proto;
  cfg.runtime.workers = workers;  // 0 = runtime default.
  cfg.tracing = tracing || !trace_out.empty();
  cfg.fdr_capacity = fdr_capacity;
  // Wall-clock-realistic VP bounds. The sim defaults (δ=5ms, π=100ms) are
  // tuned for modeled delays; on an oversubscribed host a busy worker pool
  // alone can exceed 2δ, and every missed probe deadline tears the view
  // down and pays partition re-creation plus R4 aborts. Correctness never
  // depends on δ — availability does — so the bench uses bounds the
  // hardware can actually meet.
  cfg.vp.delta = sim::Millis(50);
  cfg.vp.probe_period = sim::Seconds(1);
  cfg.runtime.delta = sim::Millis(50);
  // Majority voting and ROWA get the same widening: one round trip at
  // that δ instead of the simulator's 20-ms op timeout.
  cfg.quorum.op_timeout = 2 * cfg.vp.delta;
  TC cluster(cfg);

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::vector<std::vector<runtime::Duration>> latencies(opts.clients);

  // Object-choice distribution for --zipf: shared across threads (it is
  // immutable after construction), drawn with a per-thread rng.
  const ZipfGenerator zipf(16, opts.zipf > 0 ? opts.zipf : 0.0);

  std::vector<std::thread> threads;
  threads.reserve(opts.clients);
  for (uint32_t t = 0; t < opts.clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eedULL * (t + 1));
      uint64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ObjectId own, shared;
        if (opts.zipf > 0) {
          // Hot-key skew: both the incremented and the read object come
          // from the Zipf draw, so threads collide on the head of the
          // distribution and lock_wait / abort behavior carries signal.
          own = static_cast<ObjectId>(zipf.Next(rng));
          shared = static_cast<ObjectId>(zipf.Next(rng));
        } else {
          // Conflict-free by construction: thread t increments its own
          // object in [0,8) and reads a rotating object in [8,16), so locks
          // are acquired in ascending object order and (up to 8 clients) no
          // two threads write the same object. The result is peak protocol
          // throughput; contention behavior is a separate axis, covered by
          // the simulator experiments (E8).
          own = static_cast<ObjectId>(t % 8);
          shared = static_cast<ObjectId>(8 + (t + seq) % 8);
        }
        TC::TxnResult r = cluster.RunTxn(
            static_cast<ProcessorId>(t % cluster.size()),
            {TC::Increment(own), TC::Read(shared)});
        ++seq;
        if (!measuring.load(std::memory_order_acquire)) continue;
        if (r.committed) {
          committed.fetch_add(1, std::memory_order_relaxed);
          latencies[t].push_back(r.latency);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(opts.warmup_ms));
  measuring.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(opts.duration_ms));
  measuring.store(false, std::memory_order_release);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  cluster.Stop();

  ProtoResult result;
  result.protocol = harness::ProtocolName(proto);
  result.workers = cluster.runtime().workers();
  result.committed = committed.load();
  result.aborted = aborted.load();
  result.txns_per_sec =
      elapsed_s > 0 ? static_cast<double>(result.committed) / elapsed_s : 0;
  std::vector<runtime::Duration> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.p50_ms = PercentileMs(all, 0.50);
  result.p99_ms = PercentileMs(all, 0.99);
  const history::CertifyResult cert = cluster.Certify();
  result.certified_1sr = cert.ok;
  result.certify_detail = cert.detail;
  result.metrics = cluster.metrics().Snapshot();
  if (!trace_out.empty()) {
    if (cluster.tracer().WriteFile(trace_out)) {
      std::printf("wrote trace to %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  return result;
}

void WriteJson(const std::string& path, const Options& opts,
               const std::vector<ProtoResult>& results,
               const std::vector<ProtoResult>& scaling) {
  WriteBenchJson(path, "throughput", [&](obs::JsonWriter& w) {
    w.Field("backend", "thread");
    w.Field("n_processors", 3);
    w.Field("n_objects", 16);
    w.Field("clients", opts.clients);
    w.Field("duration_ms", opts.duration_ms);
    w.Field("zipf_theta", opts.zipf, 2);
    w.Field("hardware_threads",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.BeginArray("results");
    for (const ProtoResult& r : results) {
      w.BeginObject();
      w.Field("protocol", r.protocol);
      w.Field("workers", static_cast<uint64_t>(r.workers));
      w.Field("committed", r.committed);
      w.Field("aborted", r.aborted);
      w.Field("txns_per_sec", r.txns_per_sec, 1);
      w.Field("p50_commit_ms", r.p50_ms);
      w.Field("p99_commit_ms", r.p99_ms);
      w.Field("certified_1sr", r.certified_1sr);
      WritePathBreakdown(w, r);
      r.metrics.WriteJson(w, "metrics");
      w.EndObject();
    }
    w.EndArray();
    // E18: worker-count scaling sweep (first selected protocol only).
    // Kept separate from `results` so existing diff tooling keyed on the
    // per-protocol entries is unaffected.
    if (!scaling.empty()) {
      w.BeginArray("scaling");
      for (const ProtoResult& r : scaling) {
        w.BeginObject();
        w.Field("protocol", r.protocol);
        w.Field("workers", static_cast<uint64_t>(r.workers));
        w.Field("committed", r.committed);
        w.Field("aborted", r.aborted);
        w.Field("txns_per_sec", r.txns_per_sec, 1);
        w.Field("p50_commit_ms", r.p50_ms);
        w.Field("p99_commit_ms", r.p99_ms);
        w.Field("certified_1sr", r.certified_1sr);
        w.Field("mailbox_pushes",
                r.metrics.CounterValue("runtime.mailbox_pushes"));
        w.Field("cross_shard_wakeups",
                r.metrics.CounterValue("runtime.cross_shard_wakeups"));
        w.EndObject();
      }
      w.EndArray();
    }
  });
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// --overhead-check: the registry is always on; the switchable
/// instrumentation is the flight recorder + invariant probes (off with
/// fdr_capacity = 0) and tracing. After one discarded warm-up run, runs
/// with all of it off (baseline) and all of it on (instrumented) alternate,
/// so drift in the host's load hits both arms alike; the instrumented
/// median must stay within 10% of the baseline median.
int OverheadCheck(const Options& opts) {
  const harness::Protocol proto = harness::Protocol::kVirtualPartition;
  constexpr int kRounds = 5;
  std::printf("overhead check: VP, %u clients, %u ms window, %d rounds\n",
              opts.clients, opts.duration_ms, kRounds);
  (void)RunOne(proto, opts, /*tracing=*/false, {}, 0, /*fdr_capacity=*/0);
  std::vector<double> base, traced;
  uint64_t min_committed = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    const ProtoResult b =
        RunOne(proto, opts, /*tracing=*/false, {}, 0, /*fdr_capacity=*/0);
    const ProtoResult t = RunOne(proto, opts, /*tracing=*/true);
    std::printf("  round %d: baseline %.1f, instrumented %.1f txns/sec\n",
                round, b.txns_per_sec, t.txns_per_sec);
    base.push_back(b.txns_per_sec);
    traced.push_back(t.txns_per_sec);
    min_committed = std::min(min_committed, b.committed);
  }
  const double base_median = Median(base);
  const double traced_median = Median(traced);
  std::printf("  median: baseline %.1f, instrumented %.1f txns/sec "
              "(recorder+probes+tracing)\n",
              base_median, traced_median);
  // Below this many committed transactions the window is noise-dominated
  // (short smoke runs on oversubscribed CI hosts) and a ratio test would
  // flake; report but do not enforce.
  constexpr uint64_t kMinTxnsForGuard = 200;
  if (min_committed < kMinTxnsForGuard) {
    std::printf("  guard skipped: baseline committed %llu < %llu\n",
                static_cast<unsigned long long>(min_committed),
                static_cast<unsigned long long>(kMinTxnsForGuard));
    return 0;
  }
  if (traced_median < 0.9 * base_median) {
    std::fprintf(stderr,
                 "overhead check FAILED: instrumented median %.1f < 90%% of "
                 "baseline median %.1f\n",
                 traced_median, base_median);
    return 1;
  }
  std::printf("  guard ok: recorder+probes+tracing within 10%% of baseline\n");
  return 0;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&arg](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (const char* v = val("--protocol=")) {
      opts.protocol = v;
    } else if (const char* v = val("--clients=")) {
      opts.clients = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = val("--duration-ms=")) {
      opts.duration_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = val("--threads=")) {
      for (const char* s = v; *s != '\0';) {
        char* end = nullptr;
        const long n = std::strtol(s, &end, 10);
        if (end == s || n <= 0) {
          std::fprintf(stderr, "bad --threads list: %s\n", v);
          return 2;
        }
        opts.threads.push_back(static_cast<uint32_t>(n));
        s = (*end == ',') ? end + 1 : end;
      }
    } else if (const char* v = val("--out=")) {
      opts.out = v;
    } else if (const char* v = val("--zipf=")) {
      opts.zipf = std::atof(v);
    } else if (const char* v = val("--trace-out=")) {
      opts.trace_out = v;
    } else if (arg == "--overhead-check") {
      opts.overhead_check = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.smoke) {
    opts.clients = 4;
    opts.duration_ms = 400;
    opts.warmup_ms = 400;
  }
  if (opts.overhead_check) return OverheadCheck(opts);

  std::vector<harness::Protocol> protos;
  if (opts.protocol.empty()) {
    protos = {harness::Protocol::kVirtualPartition,
              harness::Protocol::kMajorityVoting, harness::Protocol::kRowa};
  } else {
    harness::Protocol p;
    if (!harness::ProtocolFromName(opts.protocol, &p)) {
      std::fprintf(stderr, "unknown protocol: %s\n", opts.protocol.c_str());
      return 2;
    }
    protos = {p};
  }

  std::printf(
      "E14: thread-backend throughput (%u clients, %u ms window, 3 nodes)\n"
      "%-18s %12s %10s %12s %12s  %s\n",
      opts.clients, opts.duration_ms, "protocol", "txns/sec", "committed",
      "p50 (ms)", "p99 (ms)", "1SR");
  std::vector<ProtoResult> results;
  bool all_certified = true;
  for (harness::Protocol proto : protos) {
    // Tracing (when requested) applies to the first protocol's run only.
    ProtoResult r = RunOne(proto, opts, /*tracing=*/false,
                           results.empty() ? opts.trace_out : std::string());
    std::printf("%-18s %12.1f %10llu %12.3f %12.3f  %s\n",
                r.protocol.c_str(), r.txns_per_sec,
                static_cast<unsigned long long>(r.committed), r.p50_ms,
                r.p99_ms, r.certified_1sr ? "yes" : "NO");
    // E19: where the committed-txn critical path went (p50, microseconds).
    {
      auto p50 = [&r](const char* name) {
        const obs::MetricsSnapshot::HistogramEntry* h =
            r.metrics.FindHistogram(name);
        return h != nullptr ? h->p50 : 0.0;
      };
      std::printf(
          "    path p50 us: lock_wait %.0f  quorum_rtt %.0f  fsync %.0f  "
          "retransmit %.0f  queueing %.0f  | total %.0f (measured %.0f)\n",
          p50("txn.path.lock_wait_us"), p50("txn.path.quorum_rtt_us"),
          p50("txn.path.fsync_us"), p50("txn.path.retransmit_stall_us"),
          p50("txn.path.queueing_us"), p50("txn.path.total_us"),
          r.p50_ms * 1000.0);
    }
    if (!r.certified_1sr) {
      std::fprintf(stderr, "1SR violation (%s): %s\n", r.protocol.c_str(),
                   r.certify_detail.c_str());
      all_certified = false;
    }
    results.push_back(std::move(r));
  }

  // E18: worker-count scaling sweep over the first selected protocol.
  std::vector<ProtoResult> scaling;
  if (!opts.threads.empty()) {
    const harness::Protocol proto = protos.front();
    std::printf(
        "\nE18: worker scaling, %s (%u clients, %u ms window, %u hw threads)\n"
        "%8s %12s %10s %12s %16s  %s\n",
        harness::ProtocolName(proto).c_str(), opts.clients, opts.duration_ms,
        std::thread::hardware_concurrency(), "workers", "txns/sec",
        "committed", "p99 (ms)", "mailbox pushes", "1SR");
    for (uint32_t workers : opts.threads) {
      ProtoResult r = RunOne(proto, opts, /*tracing=*/false, {}, workers);
      std::printf(
          "%8u %12.1f %10llu %12.3f %16llu  %s\n", r.workers,
          r.txns_per_sec, static_cast<unsigned long long>(r.committed),
          r.p99_ms,
          static_cast<unsigned long long>(
              r.metrics.CounterValue("runtime.mailbox_pushes")),
          r.certified_1sr ? "yes" : "NO");
      if (!r.certified_1sr) {
        std::fprintf(stderr, "1SR violation (%s, %u workers): %s\n",
                     r.protocol.c_str(), r.workers, r.certify_detail.c_str());
        all_certified = false;
      }
      scaling.push_back(std::move(r));
    }
  }

  WriteJson(opts.out, opts, results, scaling);
  return all_certified ? 0 : 1;
}

}  // namespace
}  // namespace vp::bench

int main(int argc, char** argv) { return vp::bench::Main(argc, argv); }
