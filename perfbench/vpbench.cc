// vpbench: the repository benchmark for the virtual-partition (VP) protocol.
//
//   vpbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
//           [--spans-out PATH]
//
// Workloads (see README.md next to this file for why each exists):
//   update       thread backend, conflict-free Increment + Read
//   read-mostly  thread backend, 90% three-Read transactions, 10% update
//   fault-storm  sim backend, nemesis plans with amnesia + reliable channel
//
// Thread-backend rounds run the whole cluster and its clients on one CPU,
// a different CPU each round, and count throughput per CPU second: with the
// threads spread over the cores, throughput measured the host's cross-core
// wake-up latency more than the program. The bounded timings are scaled to
// a core of nominal speed with a reference workload timed next to them
// (ReferenceSeconds); per-layer timings are as measured.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
// per-layer run drives transactions through the same public calls
// ThreadCluster::RunTxn makes and records a span around each call into a
// layer (spans live here only; nothing inside src/ is traced for this).
//
// Every run checks its outputs: thread runs end with Stop() + Certify() and
// compare every replica of every object with the committed increments the
// clients counted; every fault-storm plan must pass all RunOutcome checks
// (a plan that commits nothing is counted, not failed). Any failure exits 1
// without printing a result. The last line of stdout is the result object
// {correct, attempted, failed, metrics} with the metrics this workload
// exercises; the line before it carries the run metadata.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>
#include <time.h>

#include "common/rng.h"
#include "harness/thread_cluster.h"
#include "nemesis/nemesis.h"

namespace vp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using TC = harness::ThreadCluster;

constexpr uint32_t kProcessors = 3;
constexpr ObjectId kObjects = 16;
constexpr uint32_t kClients = 2;
constexpr uint32_t kWorkers = 3;
/// Thread workloads build this many clusters per run; each is one checked
/// round. Several set-ups per run make setup_s a median.
constexpr int kRounds = 8;
constexpr double kWarmupS = 0.25;
/// Thread workloads: time between two reference samples in a window.
constexpr std::chrono::milliseconds kReferenceGap{100};
/// fault-storm: plans per cluster size (the generator's processor range)
/// per second of --seconds. Fixed work per run.
constexpr int kPlansPerSizePerSecond = 3;
/// Plan generation is fast; repeat it for a steady median.
constexpr int kSetupReps = 61;
/// A run during which the hypervisor gave more than this share of the host's
/// CPU time to other guests is marked timing_valid = false.
constexpr double kMaxStealFrac = 0.03;

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "vpbench: FAILED: %s\n", why.c_str());
  std::exit(1);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the whole
/// process (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it leaves out time
/// the threads were descheduled, including hypervisor steal.
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host speed. On a shared host a core's speed moves by a third within
/// minutes as the neighbours' load changes, and CPU time moves with it.
/// ReferenceSeconds times, in thread CPU time, a fixed piece of work built
/// only from the standard library (hashing, short strings, allocation, a
/// heap and type-erased calls, the operations the protocol code is made
/// of); no code from src/ runs in it. Timings are divided by the slowdown,
/// the reference time measured next to them over its nominal time, so they
/// read as on a core of nominal speed. bench.cpu_slowdown reports the
/// factor.
constexpr double kReferenceNominalS = 500e-6;
double ReferenceSeconds() {
  const double a = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  std::unordered_map<uint64_t, std::string> map;
  std::priority_queue<uint64_t> heap;
  std::vector<std::function<uint64_t(uint64_t)>> calls;
  uint64_t x = 88172645463325252ULL, acc = 0;
  for (int i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x % 1024] = std::to_string(x);
    const auto it = map.find((x >> 11) % 1024);
    if (it != map.end()) acc += it->second.size();
    if (i % 3 == 0) map.erase((x >> 23) % 1024);
    heap.push(x);
    if (heap.size() > 256) heap.pop();
    if (calls.size() > 64) calls.clear();
    calls.emplace_back([x](uint64_t y) { return x ^ y; });
    acc += calls.back()(acc);
  }
  static volatile uint64_t sink;
  sink = sink + acc;
  return CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - a;
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return v[idx];
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Slowdown from reference times taken around a measurement: the median,
/// which for a before/after pair is the lower one.
double Slowdown(std::vector<double> reference_s) {
  return Median(std::move(reference_s)) / kReferenceNominalS;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
};

/// Host CPU time the hypervisor gave to other guests ("steal") and all CPU
/// time, in jiffies, from /proc/stat; zeros where unavailable.
std::pair<uint64_t, uint64_t> HostStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, steal = 0, total = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

class Report {
 public:
  /// `meta` is the run-metadata object's fields and `timing_valid` whether
  /// the build can be timed; Print completes both with the share of host CPU
  /// time stolen while the run ran.
  Report(std::string meta, bool timing_valid)
      : meta_(std::move(meta)),
        timing_valid_(timing_valid),
        cpu_(HostStealAndTotal()) {}
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Prints the metadata line and the result line. Only the metrics the
  /// workload exercises are set; run.py completes the rest from
  /// BENCHMARK.json with 0.
  void Print(uint64_t attempted, uint64_t failed) {
    const auto [steal, total] = HostStealAndTotal();
    const double steal_frac =
        Ratio(static_cast<double>(steal - cpu_.first),
              static_cast<double>(total - cpu_.second));
    std::printf(
        "{\"meta\": {%s, \"host_steal_frac\": %.4f, \"timing_valid\": %s}}\n",
        meta_.c_str(), steal_frac,
        timing_valid_ && steal_frac <= kMaxStealFrac ? "true" : "false");
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", m.value);
      out += (first ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  const std::string meta_;
  const bool timing_valid_;
  const std::pair<uint64_t, uint64_t> cpu_;
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Spans (traced run only)

struct Span {
  uint64_t txn = 0;  // TxnKey of a transaction, or a fault-storm plan seed.
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root.
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// One client's spans, appended without locking and merged at the end.
class SpanLog {
 public:
  uint32_t Add(uint64_t txn, uint32_t parent, const char* name,
               Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{txn, ++next_id_, parent, name, start, end});
    return next_id_;
  }
  /// Updates a span whose end was not known when it was opened.
  void Close(uint32_t id, uint64_t txn, Clock::time_point end) {
    Span& s = spans_[id - first_id_];
    s.txn = txn;
    s.end = end;
  }
  void Reset(uint32_t id_base) {
    spans_.clear();
    next_id_ = first_id_ = id_base;
    ++first_id_;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint32_t next_id_ = 0;
  uint32_t first_id_ = 1;
};

uint64_t TxnKey(TxnId t) { return (uint64_t{t.coordinator} << 40) | t.seq; }

/// Per-client samples taken while tracing.
struct TraceSamples {
  uint64_t runons = 0;
  std::vector<double> handoff_us;  // RunOn call -> closure starts.
  std::vector<double> wake_us;     // Protocol callback -> client resumes.
  std::vector<double> read_us, write_us, commit_us;  // Closure -> callback.
  std::vector<double> harness_self_us, core_self_us;  // Per committed txn.
  std::vector<double> txn_us;                          // Per committed txn.
};

/// Runs one transaction through the calls RunTxn makes (RunOn + NewTxnId/
/// Begin, LogicalRead/LogicalWrite, Commit on the node) and records a span
/// around each: "txn" (root), "harness.<step>" (RunOn call to client
/// resume) and, as its child, "core.<step>" (closure start to protocol
/// callback). A harness span's self time is hand-off plus wake-up.
TC::TxnResult TracedTxn(TC& cluster, ProcessorId at,
                        const std::vector<TC::Op>& ops, SpanLog& log,
                        TraceSamples& s) {
  core::NodeBase& node = cluster.node(at);
  TC::TxnResult result;
  const Clock::time_point begin = Clock::now();
  const uint32_t root = log.Add(0, 0, "txn", begin, begin);
  double harness_self = 0, core_self = 0;
  TxnId txn;
  const Status stopped = Status::Unavailable("runtime stopped");

  // One step: RunOn(at, call), then wait for `done` if the call is
  // asynchronous. `call` receives the time-stamping callback hook.
  auto step = [&](const char* hname, const char* cname,
                  std::vector<double>* core_sample,
                  const std::function<void(std::function<void()>)>& call,
                  bool async, std::future<void>* done) -> bool {
    Clock::time_point t_call = Clock::now(), t_start, t_fired;
    ++s.runons;
    if (!cluster.runtime().RunOn(at, [&] {
          t_start = Clock::now();
          call([&t_fired] { t_fired = Clock::now(); });
          if (!async) t_fired = Clock::now();
        })) {
      return false;
    }
    if (async) done->wait();
    const Clock::time_point t_resume = Clock::now();
    const uint32_t h = log.Add(TxnKey(txn), root, hname, t_call, t_resume);
    log.Add(TxnKey(txn), h, cname, t_start, t_fired);
    const double handoff = Micros(t_start - t_call);
    const double wake = Micros(t_resume - t_fired);
    const double core = Micros(t_fired - t_start);
    s.handoff_us.push_back(handoff);
    s.wake_us.push_back(wake);
    if (core_sample != nullptr) core_sample->push_back(core);
    harness_self += handoff + wake;
    core_self += core;
    return true;
  };

  auto finish = [&](bool committed, Status failure) {
    result.committed = committed;
    result.failure = std::move(failure);
    const Clock::time_point end = Clock::now();
    log.Close(root, TxnKey(txn), end);
    if (committed) {
      s.harness_self_us.push_back(harness_self);
      s.core_self_us.push_back(core_self);
      s.txn_us.push_back(Micros(end - begin));
    }
    return result;
  };

  if (!step("harness.begin", "core.begin", nullptr,
            [&](std::function<void()>) {
              txn = node.NewTxnId();
              node.Begin(txn);
            },
            false, nullptr)) {
    return finish(false, stopped);
  }

  auto read = [&](ObjectId obj, Value* out) -> Status {
    std::promise<void> p;
    std::future<void> f = p.get_future();
    Result<core::ReadResult> r = Status::Unavailable("no callback");
    if (!step("harness.read", "core.read", &s.read_us,
              [&](std::function<void()> stamp) {
                node.LogicalRead(txn, obj,
                                 [&, stamp](Result<core::ReadResult> rr) {
                                   r = std::move(rr);
                                   stamp();
                                   p.set_value();
                                 });
              },
              true, &f)) {
      return stopped;
    }
    if (!r.ok()) return r.status();
    *out = r.value().value;
    return Status::Ok();
  };
  auto write = [&](ObjectId obj, Value value) -> Status {
    std::promise<void> p;
    std::future<void> f = p.get_future();
    Status st = Status::Ok();
    if (!step("harness.write", "core.write", &s.write_us,
              [&](std::function<void()> stamp) {
                node.LogicalWrite(txn, obj, std::move(value),
                                  [&, stamp](Status ws) {
                                    st = ws;
                                    stamp();
                                    p.set_value();
                                  });
              },
              true, &f)) {
      return stopped;
    }
    return st;
  };

  Status failed = Status::Ok();
  for (const TC::Op& op : ops) {
    Value v;
    switch (op.kind) {
      case TC::Op::Kind::kRead:
        failed = read(op.obj, &v);
        if (failed.ok()) result.reads.push_back(std::move(v));
        break;
      case TC::Op::Kind::kWrite:
        failed = write(op.obj, op.value);
        break;
      case TC::Op::Kind::kIncrement:
        failed = read(op.obj, &v);
        if (!failed.ok()) break;
        result.reads.push_back(v);
        failed = write(op.obj, std::to_string(std::strtoll(v.c_str(), nullptr,
                                                           10) + 1));
        break;
    }
    if (!failed.ok()) break;
  }
  if (!failed.ok()) {
    (void)step("harness.abort", "core.abort", nullptr,
               [&](std::function<void()>) { node.Abort(txn); }, false,
               nullptr);
    return finish(false, failed);
  }

  std::promise<void> p;
  std::future<void> f = p.get_future();
  Status decision = Status::Ok();
  if (!step("harness.commit", "core.commit", &s.commit_us,
            [&](std::function<void()> stamp) {
              node.Commit(txn, [&, stamp](Status cs) {
                decision = cs;
                stamp();
                p.set_value();
              });
            },
            true, &f)) {
    return finish(false, stopped);
  }
  return finish(decision.ok(), decision);
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                Clock::time_point epoch) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "vpbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "# txn\tid\tparent\tname\tstart_us\tdur_us\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      char line[160];
      std::snprintf(line, sizeof line, "%llx\t%u\t%u\t%s\t%.3f\t%.3f\n",
                    static_cast<unsigned long long>(s.txn), s.id, s.parent,
                    s.name, Micros(s.start - epoch), Micros(s.end - s.start));
      out << line;
    }
  }
}

/// Restricts the calling thread, and the threads it creates afterwards, to
/// one CPU at a time, moving to the next CPU it may run on at each Next().
/// On a shared host the cores' speeds differ by up to 15% at one moment and
/// change within seconds; spreading the work evenly over the cores keeps
/// one core's neighbours from setting a whole run's speed.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CoreRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Thread workloads

enum class Shape { kUpdate, kReadMostly };

/// Per-client request generator; a pure function of (seed, client).
class TxnSource {
 public:
  TxnSource(Shape shape, uint64_t seed, uint32_t client)
      : shape_(shape),
        rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1),
        client_(client) {}

  std::vector<TC::Op> Next() {
    if (shape_ == Shape::kReadMostly && !rng_.Bernoulli(0.1)) {
      return ThreeReads();
    }
    return Update();
  }

 private:
  // Conflict-free: client t increments only objects in [0,8) congruent to
  // t mod kClients and reads one of [8,16); reads never conflict, writes
  // never collide, and locks are taken in ascending object order.
  std::vector<TC::Op> Update() {
    const auto own = static_cast<ObjectId>(
        client_ + kClients * rng_.Uniform(8 / kClients));
    const auto shared = static_cast<ObjectId>(8 + rng_.Uniform(8));
    return {TC::Increment(own), TC::Read(shared)};
  }
  std::vector<TC::Op> ThreeReads() {
    std::array<ObjectId, 3> objs{};
    for (size_t i = 0; i < objs.size(); ++i) {
      ObjectId o;
      do {
        o = static_cast<ObjectId>(rng_.Uniform(kObjects));
      } while (std::find(objs.begin(), objs.begin() + static_cast<ptrdiff_t>(i),
                         o) != objs.begin() + static_cast<ptrdiff_t>(i));
      objs[i] = o;
    }
    return {TC::Read(objs[0]), TC::Read(objs[1]), TC::Read(objs[2])};
  }

  Shape shape_;
  Rng rng_;
  uint32_t client_;
};

harness::ThreadClusterConfig ClusterConfig(uint32_t processors,
                                           uint32_t workers) {
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = processors;
  cfg.n_objects = kObjects;
  cfg.protocol = harness::Protocol::kVirtualPartition;
  cfg.runtime.workers = workers;
  // bench_throughput's wall-clock VP bounds: δ = 50 ms, π = 1 s.
  cfg.vp.delta = sim::Millis(50);
  cfg.vp.probe_period = sim::Seconds(1);
  cfg.runtime.delta = sim::Millis(50);
  return cfg;
}

/// Builds a cluster and retries a read-only transaction (polling, 1 ms
/// apart) until one commits: set-up includes initial VP formation.
std::unique_ptr<TC> SetUp(uint32_t processors, uint32_t workers,
                          double* setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto cluster = std::make_unique<TC>(ClusterConfig(processors, workers));
  while (!cluster->RunTxn(0, {TC::Read(0)}).committed) {
    if (Seconds(Clock::now() - t0) > 30) {
      Fail("no commit within 30 s of set-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *setup_s = Seconds(Clock::now() - t0);
  return cluster;
}

/// Waits until every replica holds its expected value (participants apply
/// a commit after the coordinator's decision callback), stops the runtime,
/// then checks the stores and certifies 1SR. Returns the certify time.
double StopAndCheck(TC& cluster, const std::vector<uint64_t>& increments) {
  auto mismatch = [&](bool on_strand) -> std::string {
    for (ProcessorId p = 0; p < cluster.size(); ++p) {
      std::string bad;
      auto scan = [&] {
        for (ObjectId o = 0; o < kObjects && bad.empty(); ++o) {
          Result<storage::CopyVersion> c = cluster.store(p).Read(o);
          const std::string want = std::to_string(increments[o]);
          if (!c.ok() || c.value().value != want) {
            bad.append("p").append(std::to_string(p));
            bad.append(" o").append(std::to_string(o));
            bad.append(" holds '").append(c.ok() ? c.value().value : "<none>");
            bad.append("', committed increments say '").append(want + "'");
          }
        }
      };
      if (on_strand) {
        if (!cluster.runtime().RunOn(p, scan)) return "runtime stopped";
      } else {
        scan();
      }
      if (!bad.empty()) return bad;
    }
    return "";
  };
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (!mismatch(true).empty() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.Stop();
  const std::string bad = mismatch(false);
  if (!bad.empty()) Fail("replica state: " + bad);
  const Clock::time_point t0 = Clock::now();
  const history::CertifyResult cert = cluster.Certify();
  const double certify_s = Seconds(Clock::now() - t0);
  if (!cert.ok) Fail("1SR certification: " + cert.detail);
  return certify_s;
}

/// What the clients of one window did.
struct Window {
  double seconds = 0;
  uint64_t committed = 0;  // Committed requests.
  uint64_t aborted = 0;    // Aborted attempts (each retried).
  /// Commit-latency p50/p99 (us) of each run of kChunk consecutive commits.
  std::vector<double> chunk_p50, chunk_p99;
  obs::MetricsSnapshot before, after;
  /// CPU time the cluster and client threads got during the window.
  double cpu_s = 0;
  /// Host slowdown during the window (see ReferenceSeconds).
  double slowdown = 1;
  uint64_t tasks_before = 0, tasks_after = 0;
};

struct Round {
  double setup_s = 0;
  double certify_s = 0;
  /// Set-up plus stop, replica check and certification: the round's wall
  /// time without the benchmark's own warm-up and window.
  double checked_s = 0;
  uint64_t recorded_committed = 0;
  Window plain, traced;
  obs::MetricsSnapshot final_metrics;
};

struct ClientState {
  explicit ClientState(Shape shape, uint64_t seed, uint32_t t)
      : source(shape, seed, t) {}
  TxnSource source;
  std::vector<uint64_t> increments = std::vector<uint64_t>(kObjects, 0);
  // Per phase (1 = plain window, 2 = traced window).
  std::array<uint64_t, 3> committed{}, aborted{};
  /// (completion time, latency us) of each committed transaction.
  std::array<std::vector<std::pair<Clock::time_point, double>>, 3> commits;
  SpanLog spans;
  TraceSamples samples;
};

enum Phase : int { kWarm = 0, kPlain = 1, kTraced = 2, kStop = 3 };

/// Reported figures are medians over parts of a run (rounds, chunks), so a
/// stall of the shared host that covers part of a run moves few parts.
/// Commit latency percentiles are taken per chunk of kChunk consecutive
/// commits (in completion order, across clients): a p99 with ten samples
/// beyond it in every full chunk. A trailing partial chunk joins the chunk
/// before it.
constexpr size_t kChunk = 1000;
void ChunkPercentiles(const std::vector<std::unique_ptr<ClientState>>& cs,
                      Phase ph, Window& w) {
  std::vector<std::pair<Clock::time_point, double>> all;
  for (const auto& c : cs) {
    all.insert(all.end(), c->commits[ph].begin(), c->commits[ph].end());
  }
  std::sort(all.begin(), all.end());
  const size_t chunks = std::max<size_t>(1, all.size() / kChunk);
  for (size_t i = 0; i < chunks && !all.empty(); ++i) {
    const size_t end = i + 1 == chunks ? all.size() : (i + 1) * kChunk;
    std::vector<double> lat;
    for (size_t j = i * kChunk; j < end; ++j) lat.push_back(all[j].second);
    w.chunk_p50.push_back(Percentile(lat, 0.50));
    w.chunk_p99.push_back(Percentile(lat, 0.99));
  }
}

/// One checked round: set up a cluster, run the closed loop (warm-up, a
/// plain window and, when tracing, a traced window), stop and check.
Round RunRound(Shape shape, uint64_t seed, int round, double plain_s,
               double traced_s, std::vector<std::unique_ptr<ClientState>>& cs,
               double* runon_idle_us) {
  Round r;
  std::unique_ptr<TC> cluster = SetUp(kProcessors, kWorkers, &r.setup_s);

  if (runon_idle_us != nullptr) {
    // Floor of a hand-off: a no-op RunOn round trip on the idle cluster.
    std::vector<double> idle;
    for (int i = 0; i < 2000; ++i) {
      const Clock::time_point a = Clock::now();
      if (!cluster->runtime().RunOn(0, [] {})) Fail("runtime stopped");
      idle.push_back(Micros(Clock::now() - a));
    }
    *runon_idle_us = Median(std::move(idle));
  }

  cs.clear();
  for (uint32_t t = 0; t < kClients; ++t) {
    cs.push_back(std::make_unique<ClientState>(
        shape, seed * 31 + static_cast<uint64_t>(round), t));
    cs.back()->spans.Reset(
        (static_cast<uint32_t>(round) * kClients + t) << 24);
  }
  std::atomic<int> phase{kWarm};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientState& c = *cs[t];
      const auto at = static_cast<ProcessorId>(t % kProcessors);
      while (true) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        const std::vector<TC::Op> ops = c.source.Next();
        // The workloads are conflict-free; an aborted attempt is counted and
        // retried with the same operations until it commits or the run ends.
        uint64_t aborts = 0;
        TC::TxnResult res;
        double latency_us = 0;
        do {
          const Clock::time_point a = Clock::now();
          res = ph == kTraced ? TracedTxn(*cluster, at, ops, c.spans, c.samples)
                              : cluster->RunTxn(at, ops);
          latency_us = Micros(Clock::now() - a);
          if (!res.committed) ++aborts;
        } while (!res.committed &&
                 phase.load(std::memory_order_acquire) != kStop);
        if (res.committed) {
          for (const TC::Op& op : ops) {
            if (op.kind == TC::Op::Kind::kIncrement) ++c.increments[op.obj];
          }
        }
        // Count the request in its phase only if it committed there.
        if (ph == kWarm || !res.committed ||
            phase.load(std::memory_order_acquire) != ph) {
          continue;
        }
        c.aborted[ph] += aborts;
        ++c.committed[ph];
        c.commits[ph].emplace_back(Clock::now(), latency_us);
      }
    });
  }

  auto window = [&](Phase ph, double seconds, Window& w) {
    w.before = cluster->metrics().Snapshot();
    w.tasks_before = cluster->runtime().tasks_run();
    const Clock::time_point a = Clock::now();
    const Clock::time_point end =
        a + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds));
    const double cpu_a = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double own_a = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    phase.store(ph, std::memory_order_release);
    // Sample the host's speed on the round's CPU every kReferenceGap.
    std::vector<double> reference;
    for (Clock::time_point now = a; now < end; now = Clock::now()) {
      reference.push_back(ReferenceSeconds());
      std::this_thread::sleep_for(std::min<Clock::duration>(
          kReferenceGap, end - Clock::now()));
    }
    w.seconds = Seconds(Clock::now() - a);
    // Less this thread's own time, spent on the reference work.
    w.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_a -
              (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - own_a);
    w.slowdown = Slowdown(std::move(reference));
    w.after = cluster->metrics().Snapshot();
    w.tasks_after = cluster->runtime().tasks_run();
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  window(kPlain, plain_s, r.plain);
  if (traced_s > 0) window(kTraced, traced_s, r.traced);
  phase.store(kStop, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  for (Phase ph : {kPlain, kTraced}) {
    Window& w = ph == kPlain ? r.plain : r.traced;
    for (const auto& c : cs) {
      w.committed += c->committed[ph];
      w.aborted += c->aborted[ph];
    }
    ChunkPercentiles(cs, ph, w);
  }
  std::vector<uint64_t> increments(kObjects, 0);
  for (const auto& c : cs) {
    for (ObjectId o = 0; o < kObjects; ++o) increments[o] += c->increments[o];
  }
  const Clock::time_point check = Clock::now();
  r.certify_s = StopAndCheck(*cluster, increments);
  r.checked_s = r.setup_s + Seconds(Clock::now() - check);
  r.recorded_committed = cluster->recorder().committed_count();
  r.final_metrics = cluster->metrics().Snapshot();
  std::fprintf(stderr,
               "vpbench: round %d: setup %.3f s, %llu commits in %.2f s "
               "(%.2f CPU s, slowdown %.3f), certify %.1f ms\n",
               round, r.setup_s,
               static_cast<unsigned long long>(r.plain.committed),
               r.plain.seconds, r.plain.cpu_s, r.plain.slowdown,
               r.certify_s * 1e3);
  return r;
}

/// Floor with no remote message: `update` transactions from one client on a
/// 1-processor cluster; returns the p50 client-observed latency (us).
double SingleNodeCommitP50(uint64_t seed, double seconds) {
  double setup_s = 0;
  std::unique_ptr<TC> cluster = SetUp(1, 1, &setup_s);
  TxnSource source(Shape::kUpdate, seed, 0);
  SpanLog log;
  TraceSamples samples;
  std::vector<uint64_t> increments(kObjects, 0);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const std::vector<TC::Op> ops = source.Next();
    if (TracedTxn(*cluster, 0, ops, log, samples).committed) {
      for (const TC::Op& op : ops) {
        if (op.kind == TC::Op::Kind::kIncrement) ++increments[op.obj];
      }
    }
  }
  StopAndCheck(*cluster, increments);
  return Median(samples.txn_us);
}

double HistP50(const obs::MetricsSnapshot& m, const char* name) {
  const obs::MetricsSnapshot::HistogramEntry* h = m.FindHistogram(name);
  return h != nullptr ? h->p50 : 0;
}
double HistP99(const obs::MetricsSnapshot& m, const char* name) {
  const obs::MetricsSnapshot::HistogramEntry* h = m.FindHistogram(name);
  return h != nullptr ? h->p99 : 0;
}
/// Counter growth across the windows of all rounds.
double Delta(const std::vector<Round>& rounds, bool traced, const char* name) {
  double sum = 0;
  for (const Round& r : rounds) {
    const Window& w = traced ? r.traced : r.plain;
    sum += static_cast<double>(w.after.CounterValue(name) -
                               w.before.CounterValue(name));
  }
  return sum;
}

/// The windows of all rounds. Rates and latencies are in reference time:
/// each window's are scaled by its slowdown.
struct Totals {
  double ref_cpu_s = 0;
  uint64_t committed = 0, aborted = 0;
  std::vector<double> chunk_p50, chunk_p99;
  /// Commits per reference CPU second of each round's window.
  std::vector<double> rate;
  std::vector<double> slowdown;
};
Totals Sum(const std::vector<Round>& rounds, bool traced) {
  Totals t;
  for (const Round& r : rounds) {
    const Window& w = traced ? r.traced : r.plain;
    const double ref_cpu_s = w.cpu_s / w.slowdown;
    t.ref_cpu_s += ref_cpu_s;
    t.committed += w.committed;
    t.aborted += w.aborted;
    for (double us : w.chunk_p50) t.chunk_p50.push_back(us / w.slowdown);
    for (double us : w.chunk_p99) t.chunk_p99.push_back(us / w.slowdown);
    t.rate.push_back(Ratio(static_cast<double>(w.committed), ref_cpu_s));
    t.slowdown.push_back(w.slowdown);
  }
  return t;
}

int RunThreadWorkload(Shape shape, uint64_t seed, double seconds, bool trace,
                      const std::string& spans_out, Report& rep) {
  // The traced run splits each round's window into a plain half (the
  // baseline for the tracing overhead) and a traced half.
  const double per_round = seconds / kRounds;
  const double plain_s = trace ? per_round / 2 : per_round;
  const double traced_s = trace ? per_round / 2 : 0;
  std::vector<Round> rounds;
  std::vector<std::unique_ptr<ClientState>> cs;
  TraceSamples samples;
  std::vector<SpanLog> logs;
  double runon_idle_us = 0;
  const Clock::time_point epoch = Clock::now();
  // Each round runs on one CPU, the next round on the next: the cluster's
  // worker threads and the clients inherit the affinity set here.
  CoreRotation cores;
  for (int i = 0; i < kRounds; ++i) {
    cores.Next();
    rounds.push_back(RunRound(shape, seed, i, plain_s, traced_s, cs,
                              trace && i == 0 ? &runon_idle_us : nullptr));
    if (!trace) continue;
    for (auto& c : cs) {
      const TraceSamples& s = c->samples;
      samples.runons += s.runons;
      auto append = [](std::vector<double>& to,
                       const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(samples.handoff_us, s.handoff_us);
      append(samples.wake_us, s.wake_us);
      append(samples.read_us, s.read_us);
      append(samples.write_us, s.write_us);
      append(samples.commit_us, s.commit_us);
      append(samples.harness_self_us, s.harness_self_us);
      append(samples.core_self_us, s.core_self_us);
      logs.push_back(std::move(c->spans));
    }
  }

  const Totals plain = Sum(rounds, false);
  if (plain.committed == 0) Fail("no transaction committed in the window");
  std::vector<double> setups, certifies;
  double checked = 0, certify_total = 0, recorded = 0;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    certifies.push_back(r.certify_s * 1e3);
    checked += r.checked_s;
    certify_total += r.certify_s;
    recorded += static_cast<double>(r.recorded_committed);
  }

  uint64_t attempted = plain.committed;
  if (!trace) {
    rep.Set("txns_per_s", Median(plain.rate), "1/s");
    rep.Set("commit_p50_ms", Median(plain.chunk_p50) / 1e3, "ms");
    rep.Set("commit_frac",
            Ratio(static_cast<double>(plain.committed),
                  static_cast<double>(plain.committed + plain.aborted)),
            "fraction");
    rep.Set("setup_s", Median(setups), "s");
    rep.Set("plans_per_s", Ratio(kRounds, checked), "1/s");
    std::fprintf(stderr,
                 "vpbench: %llu commits in the window, %zu chunks of %zu\n",
                 static_cast<unsigned long long>(plain.committed),
                 plain.chunk_p50.size(), kChunk);
  } else {
    const Totals traced = Sum(rounds, true);
    if (traced.committed == 0) Fail("no transaction committed while traced");
    attempted += traced.committed;
    const double commits = static_cast<double>(traced.committed);
    // From the untraced half, like the end-to-end figures.
    rep.Set("commit_p99_ms", Median(plain.chunk_p99) / 1e3, "ms");
    const double attempts =
        static_cast<double>(traced.committed + traced.aborted);
    auto per_commit = [&](const char* counter) {
      return Ratio(Delta(rounds, true, counter), commits);
    };
    double tasks = 0;
    for (const Round& r : rounds) {
      tasks +=
          static_cast<double>(r.traced.tasks_after - r.traced.tasks_before);
    }
    std::vector<double> quorum, queueing, lock_path, lock_p50, lock_p99, views;
    for (const Round& r : rounds) {
      quorum.push_back(HistP50(r.final_metrics, "txn.path.quorum_rtt_us"));
      queueing.push_back(HistP50(r.final_metrics, "txn.path.queueing_us"));
      lock_path.push_back(HistP50(r.final_metrics, "txn.path.lock_wait_us"));
      lock_p50.push_back(HistP50(r.final_metrics, "lock.wait_us"));
      lock_p99.push_back(HistP99(r.final_metrics, "lock.wait_us"));
      views.push_back(
          static_cast<double>(r.final_metrics.CounterValue("vp.view_changes")));
    }
    rep.Set("harness.handoffs_per_txn",
            Ratio(static_cast<double>(samples.runons), commits), "count");
    rep.Set("harness.handoff_wait_us_p50", Percentile(samples.handoff_us, 0.5),
            "us");
    rep.Set("harness.handoff_wait_us_p99",
            Percentile(samples.handoff_us, 0.99), "us");
    rep.Set("harness.client_wake_us", Median(samples.wake_us), "us");
    rep.Set("harness.self_us_per_txn", Median(samples.harness_self_us), "us");
    rep.Set("runtime.tasks_per_commit", Ratio(tasks, commits), "count");
    rep.Set("runtime.mailbox_pushes_per_commit",
            per_commit("runtime.mailbox_pushes"), "count");
    rep.Set("runtime.cross_shard_wakeups_per_commit",
            per_commit("runtime.cross_shard_wakeups"), "count");
    rep.Set("runtime.runon_idle_us", runon_idle_us, "us");
    rep.Set("net.msgs_per_commit", per_commit("net.msgs_sent"), "count");
    rep.Set("net.remote_msgs_per_commit", per_commit("net.msgs_remote"),
            "count");
    rep.Set("core.read_us", Median(samples.read_us), "us");
    rep.Set("core.write_us", Median(samples.write_us), "us");
    rep.Set("core.commit_us", Median(samples.commit_us), "us");
    rep.Set("core.self_us_per_txn", Median(samples.core_self_us), "us");
    rep.Set("core.path_quorum_rtt_us", Median(quorum), "us");
    rep.Set("core.path_queueing_us", Median(queueing), "us");
    rep.Set("core.path_lock_wait_us", Median(lock_path), "us");
    rep.Set("core.view_changes", Median(views), "count");
    rep.Set("core.single_node_commit_p50_us",
            SingleNodeCommitP50(seed, std::min(1.0, seconds / 10)), "us");
    rep.Set("cc.lock_waits_per_commit", per_commit("lock.waits"), "count");
    rep.Set("cc.lock_timeouts_per_kattempt",
            1e3 * Ratio(Delta(rounds, true, "lock.timeouts"), attempts),
            "count");
    rep.Set("cc.lock_wait_us_p50", Median(lock_p50), "us");
    rep.Set("cc.lock_wait_us_p99", Median(lock_p99), "us");
    rep.Set("abort_frac", Ratio(static_cast<double>(traced.aborted), attempts),
            "fraction");
    rep.Set("storage.phys_writes_served_per_commit",
            per_commit("node.phys_writes_served"), "count");
    rep.Set("storage.phys_reads_served_per_commit",
            per_commit("node.phys_reads_served"), "count");
    rep.Set("history.certify_ms", Median(certifies), "ms");
    rep.Set("history.certify_us_per_txn", Ratio(certify_total * 1e6, recorded),
            "us");
    rep.Set("obs.probe_events_per_commit", per_commit("probe.events"), "count");
    const double plain_tps =
        Ratio(static_cast<double>(plain.committed), plain.ref_cpu_s);
    const double traced_tps = Ratio(commits, traced.ref_cpu_s);
    rep.Set("bench.trace_overhead_frac", 1 - Ratio(traced_tps, plain_tps),
            "fraction");
    rep.Set("bench.cpu_slowdown", Median(plain.slowdown), "ratio");
    std::vector<const SpanLog*> ptrs;
    for (const SpanLog& l : logs) ptrs.push_back(&l);
    WriteSpans(spans_out, ptrs, epoch);
  }
  rep.Print(attempted, 0);
  return 0;
}

// ---------------------------------------------------------------------------
// fault-storm

int RunFaultStorm(uint64_t seed, double seconds, bool trace,
                  const std::string& spans_out, Report& rep) {
  // Plans are taken in seed order from a range derived from the workload
  // seed, stratified by cluster size: the first `per_size` plans of each
  // size. Plan cost grows ~6x from 4 to 7 processors, so a fixed mix keeps
  // the run's cost from depending on how many large plans the seed drew.
  // The work is single-threaded and timed in thread CPU time.
  const auto per_size =
      static_cast<size_t>(std::max(1.0, kPlansPerSizePerSecond * seconds));
  const uint64_t first = seed * 100003ULL + 1;
  nemesis::GeneratorConfig gen;
  gen.enable_amnesia = true;
  gen.reliable = true;
  const uint32_t sizes = gen.max_processors - gen.min_processors + 1;

  // Set-up: generating a range of 4x the plans needed (so its length does
  // not depend on the seed) and selecting from it. It is repeated for a
  // median, once up front and then spread between the plan runs: a 2-ms
  // burst of repetitions alone reads whichever speed the shared core had
  // for those milliseconds.
  const uint64_t range = 4 * per_size * sizes;
  CoreRotation cores;
  std::vector<double> gen_s;
  std::vector<double> gen_raw_s;
  auto set_up = [&] {
    cores.Next();
    const double ref_a = ReferenceSeconds();
    const double a = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    std::vector<nemesis::FaultPlan> generated;
    for (uint64_t s = first; s < first + range; ++s) {
      generated.push_back(nemesis::GeneratePlan(s, gen));
    }
    std::vector<nemesis::FaultPlan> picked;
    std::vector<size_t> have(gen.max_processors + 1, 0);
    for (nemesis::FaultPlan& plan : generated) {
      const uint32_t n = plan.n_processors;
      if (n < gen.min_processors || n > gen.max_processors ||
          have[n] == per_size) {
        continue;
      }
      ++have[n];
      picked.push_back(std::move(plan));
    }
    const double raw = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - a;
    gen_raw_s.push_back(raw);
    gen_s.push_back(raw / Slowdown({ref_a, ReferenceSeconds()}));
    if (picked.size() != per_size * sizes) {
      Fail("plan range too short to fill every cluster size");
    }
    return picked;
  };
  const std::vector<nemesis::FaultPlan> plans = set_up();
  const size_t set_up_every = std::max<size_t>(1, plans.size() / kSetupReps);

  SpanLog log;
  const Clock::time_point epoch = Clock::now();
  std::vector<double> run_ms, p50_ms, p99_ms;
  // RunPlan CPU time in reference seconds (see ReferenceSeconds).
  double run_ref_s = 0;
  std::vector<double> slowdowns;
  uint64_t committed = 0, aborted = 0, stalled = 0;
  double msgs = 0, remote = 0, retransmits = 0, views = 0, timeouts = 0,
         lock_waits = 0, fsyncs = 0, wal_bytes = 0, served_w = 0,
         served_r = 0, probe_events = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    const nemesis::FaultPlan& plan = plans[i];
    if (i % set_up_every == set_up_every - 1 && gen_s.size() < kSetupReps) {
      set_up();
    }
    cores.Next();
    const double ref_a = ReferenceSeconds();
    const Clock::time_point a = Clock::now();
    const double cpu_a = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const nemesis::RunOutcome out = nemesis::RunPlan(plan);
    const double cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_a;
    const double slowdown = Slowdown({ref_a, ReferenceSeconds()});
    slowdowns.push_back(slowdown);
    run_ref_s += cpu_s / slowdown;
    if (trace) log.Add(plan.seed, 0, "nemesis.run", a, Clock::now());
    if (out.violation()) {
      Fail("plan seed " + std::to_string(plan.seed) + ": " + out.failure);
    }
    // A plan whose storm smothers every commit passed all its checks; the
    // protocol promises no liveness during a storm, so (as in the nemesis
    // campaign) it is counted, not failed.
    if (!out.progress) ++stalled;
    run_ms.push_back(cpu_s * 1e3);
    committed += out.committed;
    aborted += out.aborted;
    // Commit latency in simulated time: the plan's committed-transaction
    // critical-path total (txn.path.total_us counts committed txns only).
    p50_ms.push_back(HistP50(out.metrics, "txn.path.total_us") / 1e3);
    p99_ms.push_back(HistP99(out.metrics, "txn.path.total_us") / 1e3);
    const obs::MetricsSnapshot& m = out.metrics;
    auto c = [&m](const char* name) {
      return static_cast<double>(m.CounterValue(name));
    };
    msgs += c("net.msgs_sent");
    remote += c("net.msgs_remote");
    retransmits += c("rel.retransmits");
    views += c("vp.view_changes");
    timeouts += c("lock.timeouts");
    lock_waits += c("lock.waits");
    fsyncs += c("wal.fsyncs");
    wal_bytes += c("wal.bytes");
    served_w += c("node.phys_writes_served");
    served_r += c("node.phys_reads_served");
    probe_events += c("probe.events");
  }
  if (committed == 0) Fail("no plan committed a transaction");
  std::fprintf(stderr, "vpbench: %zu plans, %llu stalled (no commit)\n",
               plans.size(), static_cast<unsigned long long>(stalled));
  const double n = static_cast<double>(plans.size());
  const double commits = static_cast<double>(committed);
  const double attempts = static_cast<double>(committed + aborted);

  if (!trace) {
    // Transactions run to a decision, committed or aborted: how many of a
    // plan's transactions commit is a property of its faults (commit_frac
    // reports it), and counting only commits doubled the spread across
    // seeds. The thread workloads never abort, so there the two agree.
    rep.Set("txns_per_s", Ratio(attempts, run_ref_s), "1/s");
    rep.Set("commit_p50_ms", Median(p50_ms), "ms");
    rep.Set("commit_frac", Ratio(commits, attempts), "fraction");
    rep.Set("setup_s", Median(gen_s), "s");
    rep.Set("plans_per_s", Ratio(n, run_ref_s), "1/s");
  } else {
    rep.Set("commit_p99_ms", Median(p99_ms), "ms");
    rep.Set("nemesis.run_ms_p50", Percentile(run_ms, 0.5), "ms");
    rep.Set("nemesis.run_ms_p90", Percentile(run_ms, 0.9), "ms");
    rep.Set("nemesis.generate_ms", Median(gen_raw_s) * 1e3 / n, "ms");
    rep.Set("bench.cpu_slowdown", Median(slowdowns), "ratio");
    rep.Set("sim.committed_per_plan", commits / n, "count");
    rep.Set("nemesis.stalled_plans", static_cast<double>(stalled), "count");
    rep.Set("net.msgs_per_plan", msgs / n, "count");
    rep.Set("net.retransmits_per_plan", retransmits / n, "count");
    rep.Set("core.view_changes_per_plan", views / n, "count");
    rep.Set("cc.lock_timeouts_per_plan", timeouts / n, "count");
    rep.Set("storage.fsyncs_per_plan", fsyncs / n, "count");
    rep.Set("storage.wal_bytes_per_plan", wal_bytes / n, "bytes");
    rep.Set("net.msgs_per_commit", Ratio(msgs, commits), "count");
    rep.Set("net.remote_msgs_per_commit", Ratio(remote, commits), "count");
    rep.Set("core.view_changes", views, "count");
    rep.Set("cc.lock_waits_per_commit", Ratio(lock_waits, commits), "count");
    rep.Set("cc.lock_timeouts_per_kattempt", 1e3 * Ratio(timeouts, attempts),
            "count");
    rep.Set("abort_frac", Ratio(static_cast<double>(aborted), attempts),
            "fraction");
    rep.Set("storage.phys_writes_served_per_commit", Ratio(served_w, commits),
            "count");
    rep.Set("storage.phys_reads_served_per_commit", Ratio(served_r, commits),
            "count");
    rep.Set("obs.probe_events_per_commit", Ratio(probe_events, commits),
            "count");
    WriteSpans(spans_out, {&log}, epoch);
  }
  rep.Print(static_cast<uint64_t>(plans.size()), 0);
  return 0;
}

// ---------------------------------------------------------------------------

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

int Main(int argc, char** argv) {
  std::string workload, commit = "unknown", spans_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (flag == "--commit") {
      commit = val;
    } else if (flag == "--spans-out") {
      spans_out = val;
    } else {
      std::fprintf(stderr, "vpbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || workload.empty() || seconds <= 0 || seconds > 120 ||
      trace < 0) {
    std::fprintf(stderr,
                 "usage: vpbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--spans-out PATH]\n");
    return 2;
  }
  const bool is_fault = workload == "fault-storm";
  Shape shape = Shape::kUpdate;
  if (workload == "read-mostly") {
    shape = Shape::kReadMostly;
  } else if (workload != "update" && !is_fault) {
    std::fprintf(stderr, "vpbench: unknown workload %s\n", workload.c_str());
    return 2;
  }

  const std::string sanitize = VPBENCH_SANITIZE;
  const bool sanitized = !(sanitize == "OFF" || sanitize.empty());
  char meta[1024];
  std::snprintf(
      meta, sizeof meta,
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"optimized\": %s, \"vpart_sanitize\": \"%s\", "
      "\"git_commit\": \"%s\", \"clients\": %u, \"runtime_workers\": %u, "
      "\"processors\": %u, \"objects\": %u",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
      std::thread::hardware_concurrency(), VPBENCH_BUILD_TYPE,
      Optimized() ? "true" : "false", sanitize.c_str(), commit.c_str(),
      is_fault ? 0 : kClients, is_fault ? 0 : kWorkers,
      is_fault ? 0 : kProcessors, is_fault ? 0 : kObjects);
  if (!Optimized() || sanitized) {
    std::fprintf(stderr,
                 "vpbench: WARNING: sanitized or non-optimised build; "
                 "timings are not comparable\n");
  }

  Report rep(meta, Optimized() && !sanitized);
  return is_fault ? RunFaultStorm(seed, seconds, trace == 1, spans_out, rep)
                  : RunThreadWorkload(shape, seed, seconds, trace == 1,
                                      spans_out, rep);
}

}  // namespace
}  // namespace vp::perfbench

int main(int argc, char** argv) { return vp::perfbench::Main(argc, argv); }
