// Flight recorder: a fixed-size, allocation-free per-node ring buffer of
// recent protocol events, recorded always-on in both runtimes.
//
// Each processor owns one ring. On the simulator every ring is written
// from the single simulation thread (serial mode: plain stores, zero
// scheduling or rng impact, so golden parity digests are untouched). On
// the thread runtime every node's handlers run on that node's strand, so
// each ring has exactly one writer and recording stays lock-free
// (concurrent mode: the write index uses release stores; dumps happen
// after the runtime quiesces, whose thread join supplies the
// happens-before edge).
//
// The recorder is a diagnosis instrument, not a history: when a nemesis
// run trips an invariant (or a reboot quarantines a device), the last-N
// events of every node are dumped to a replayable JSON-lines `.fdr` file
// alongside the shrunken `.plan`, so the first bad event is inspectable
// without re-running under full tracing.
//
// A listener (obs/probes.h) observes every event at record time — that is
// how online invariant probes see the stream live rather than post-hoc.
//
// Event vocabulary (kind → meaning of the generic args a/b):
//   txn.begin       txn; a = epoch
//   txn.decide      txn; a = 1 commit / 0 abort; b = duration_us
//   outcome.applied txn; a = 1 commit / 0 abort (participant side)
//   phys.read       txn; a = object; b = FNV-1a hash of the served value
//   phys.write      txn; a = object; b = FNV-1a hash of the staged value
//   view.commit     a = packed vp id; b = member bitmask (bit p = proc p)
//   view.depart     a = packed vp id of the partition departed from
//   epoch.switch    a = new epoch; b = packed vp id of the carrying view
//   wal.append      a = record bytes; b = WAL record type
//   fsync           a = persist point (0 wal / 1 copy / 2 viewmeta /
//                       3 reconfig); b = bytes
//   retransmit      a = channel message id; b = destination processor
//   salvage         a = 1 quarantined / 0 torn-tail truncation
//   probe.violation a = probe rule index (see obs/probes.h)
#ifndef VPART_OBS_FLIGHT_RECORDER_H_
#define VPART_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/vp_id.h"

namespace vp::obs {

enum class FdrKind : uint8_t {
  kTxnBegin = 0,
  kTxnDecide,
  kOutcomeApplied,
  kPhysRead,
  kPhysWrite,
  kViewCommit,
  kViewDepart,
  kEpochSwitch,
  kWalAppend,
  kFsync,
  kRetransmit,
  kSalvage,
  kProbeViolation,
};

const char* FdrKindName(FdrKind kind);
bool FdrKindFromName(std::string_view name, FdrKind* out);

/// One recorded event. Plain data, fixed size: recording never allocates.
struct FdrEvent {
  int64_t ts_us = 0;
  ProcessorId node = 0;
  FdrKind kind = FdrKind::kTxnBegin;
  /// Transaction the event belongs to; {kInvalidProcessor, 0} when none.
  TxnId txn{};
  uint64_t a = 0;
  uint64_t b = 0;

  bool has_txn() const { return txn.valid(); }
};

/// Observes every recorded event inline (see obs/probes.h). Implementations
/// used from the thread runtime must synchronize internally: events arrive
/// from every node strand.
class FdrListener {
 public:
  virtual ~FdrListener() = default;
  virtual void OnFdrEvent(const FdrEvent& e) = 0;
};

enum class FdrMode { kSerial, kConcurrent };

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  /// `n_nodes` rings of `capacity` events each. A zero capacity builds a
  /// recorder that drops everything (the Disabled() fallback).
  FlightRecorder(FdrMode mode, uint32_t n_nodes,
                 size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return capacity_ != 0; }
  FdrMode mode() const { return mode_; }

  /// Records `e` into its node's ring (single writer per ring: the node's
  /// strand) and forwards it to the listener, if any. Events from node ids
  /// outside [0, n_nodes) are dropped.
  void Record(const FdrEvent& e);

  /// The listener sees every event inline at record time. Set during
  /// harness construction, before any node runs.
  void set_listener(FdrListener* listener) { listener_ = listener; }

  /// Serializes the last-N events of every node as JSON lines: one header
  /// line, then one line per event, merged oldest-first by timestamp.
  /// Call only while quiesced (simulator idle, or thread runtime stopped).
  std::string Dump() const;
  Status WriteFile(const std::string& path) const;

  /// Parsed form of a dump, for replay tooling and CI validation.
  struct Parsed {
    uint32_t n_nodes = 0;
    size_t capacity = 0;
    std::vector<FdrEvent> events;
    std::set<ProcessorId> nodes;  // Nodes with at least one event.
  };
  static Result<Parsed> Parse(const std::string& text);
  static Result<Parsed> ParseFile(const std::string& path);

  /// FNV-1a over a value's bytes: the hash recorded with phys.read /
  /// phys.write events, used by the durable-read probe to trace a served
  /// value back to some staged write or initial value.
  static uint64_t HashValue(std::string_view value);

  /// Packs a vp id into one argument word: (n << 8) | p. Processor ids in
  /// the harnesses are single-digit; sequence numbers never approach 2^56.
  static uint64_t PackVpId(const VpId& v) {
    return (v.n << 8) | (v.p & 0xff);
  }
  /// Member bitmask of a view (bit p set ⇔ processor p in the view).
  /// Processors ≥ 64 would alias; harness clusters stay far below that.
  static uint64_t MemberMask(const std::set<ProcessorId>& view) {
    uint64_t mask = 0;
    for (ProcessorId p : view) mask |= uint64_t{1} << (p & 63);
    return mask;
  }

  /// Process-global recorder that drops everything: the fallback for nodes
  /// and channels constructed without one, so their code never null-checks.
  static FlightRecorder* Disabled();

 private:
  struct Ring {
    std::vector<FdrEvent> buf;
    /// Total events ever recorded; buf[next % capacity] is the write slot.
    /// Written only by the owning node's strand; release stores pair with
    /// the acquire load in Dump (which runs after the runtime quiesced).
    std::atomic<uint64_t> next{0};
  };

  const FdrMode mode_;
  const size_t capacity_;
  std::vector<Ring> rings_;
  FdrListener* listener_ = nullptr;
};

}  // namespace vp::obs

#endif  // VPART_OBS_FLIGHT_RECORDER_H_
