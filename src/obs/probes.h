// Online invariant probes: lightweight monitors that consume the flight-
// recorder stream live and flag violations at the moment the bad event is
// recorded, instead of at post-hoc certification. An hour-long churn run
// that trips an invariant becomes a pinpointed first-bad-event report (the
// probe remembers the offending event; the surrounding context is in the
// `.fdr` dump).
//
// Rules (each maps to a post-hoc check it front-runs):
//   view-uniqueness   (S1)  Two commits of the same vp id must carry the
//                           same member set. Keyed on view.commit events.
//   epoch-monotonic         A processor's configuration epoch never
//                           regresses. Keyed on epoch.switch events.
//   commit-before-read      No physical op of transaction T may be served
//                           at a node that already applied T's commit
//                           outcome (the stale-txn guard: a duplicate
//                           served after commit re-stages stale values and
//                           double-records the op in the conflict graph).
//                           Keyed per (node, txn): the coordinator's
//                           decision alone is not the boundary, because a
//                           network-duplicated request can legitimately be
//                           served in the decision → outcome-delivery
//                           window while the participant still holds the
//                           transaction's locks.
//   durable-read            Every served read value must hash-match some
//                           previously staged write or an initial value.
//                           Staging always precedes commit precedes
//                           visibility, so a mismatch means the device
//                           fabricated bytes — this is what catches the
//                           `nochecksum` negative control serving rot, at
//                           the serving event rather than at end-of-run
//                           certification.
//
// False-positive discipline: every rule above is implied by invariants the
// post-hoc checkers enforce, so on a healthy run the probes never fire
// (violation-free campaigns double as the probes' own negative control).
// Replay re-staging after a crash deliberately does NOT extend the known-
// value set: the genuine value was recorded when first staged, so garbage
// resurrected from a corrupt WAL stays unknown and is flagged when served.
#ifndef VPART_OBS_PROBES_H_
#define VPART_OBS_PROBES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/types.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace vp::obs {

/// Probe rule indices (the `a` argument of probe.violation events).
enum class ProbeRule : uint8_t {
  kViewUniqueness = 0,
  kEpochMonotonic,
  kCommitBeforeRead,
  kDurableRead,
};

const char* ProbeRuleName(ProbeRule rule);

class ProbeEngine : public FdrListener {
 public:
  /// `thread_safe` selects the concurrent variant (one mutex around the
  /// monitors — events arrive from every node strand on the thread
  /// runtime; the serial simulator skips the lock entirely). Counters
  /// "probe.events" / "probe.violations" land in `registry` (null = the
  /// process-global default).
  explicit ProbeEngine(bool thread_safe,
                       MetricsRegistry* registry = nullptr);

  /// Registers a legitimate pre-existing value (the harness calls this for
  /// every initial copy value before the run starts).
  void AddKnownValue(std::string_view value);

  /// Violations are echoed into `recorder` as probe.violation events so
  /// the `.fdr` dump shows the flag in its event context.
  void AttachRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // FdrListener.
  void OnFdrEvent(const FdrEvent& e) override;

  struct Violation {
    ProbeRule rule = ProbeRule::kViewUniqueness;
    std::string detail;
    FdrEvent event;  // The first bad event.
  };

  bool flagged() const;
  /// The first violation observed, if any.
  std::optional<Violation> first() const;
  /// "rule: detail (node N at T)" of the first violation; empty if none.
  std::string Describe() const;

 private:
  void Check(const FdrEvent& e);
  void Flag(const FdrEvent& e, ProbeRule rule, std::string detail);

  const bool thread_safe_;
  mutable std::mutex mu_;
  FlightRecorder* recorder_ = nullptr;
  Counter* ctr_events_ = nullptr;
  Counter* ctr_violations_ = nullptr;

  // --- monitor state (guarded by mu_ when thread_safe_) ---
  /// Packed vp id → member bitmask of the first commit seen.
  std::map<uint64_t, uint64_t> view_members_;
  /// Per-processor highest epoch.switch seen.
  std::map<ProcessorId, uint64_t> last_epoch_;
  /// (node, txn) pairs whose COMMIT outcome that node already applied.
  /// Hashed: every served physical op probes it, and it grows with the run.
  struct NodeTxnHash {
    size_t operator()(const std::pair<ProcessorId, TxnId>& k) const {
      return TxnIdHash()(k.second) * 31 + k.first;
    }
  };
  std::unordered_set<std::pair<ProcessorId, TxnId>, NodeTxnHash>
      outcome_applied_;
  /// Hashes of initial values and every staged write.
  std::unordered_set<uint64_t> known_values_;
  std::optional<Violation> first_;
};

}  // namespace vp::obs

#endif  // VPART_OBS_PROBES_H_
