// Correctness certifiers for recorded executions.
//
// 1. CertifyOneCopySR — mechanical check of Theorem 1′: replays committed
//    transactions against a ONE-COPY database in virtual-partition creation
//    order (ties within a partition broken by commit time, valid under
//    strict 2PL where commit order extends the serialization order). Every
//    logical read must return exactly the one-copy value; any mismatch is a
//    one-copy-serializability violation witness.
//
// 2. CertifyOneCopySRAnyOrder — exhaustive search for an equivalent serial
//    one-copy execution, for protocols without virtual partitions (and for
//    demonstrating that the anomalies of Examples 1 & 2 admit NO serial
//    order). Exponential; intended for small histories.
//
// 3. CheckConflictSerializable — builds the conflict graph of recorded
//    physical operations of committed transactions and reports any cycle
//    (checks the CP-serializability assumption A1 delivered by the lock
//    manager).
#ifndef VPART_HISTORY_CHECKER_H_
#define VPART_HISTORY_CHECKER_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "history/recorder.h"

namespace vp::history {

/// Outcome of a certification pass.
struct CertifyResult {
  bool ok = false;
  /// For failures: a human-readable witness of the violation.
  std::string detail;
  /// For successes of CertifyOneCopySR*: the serial order used.
  std::vector<TxnId> serial_order;
  /// True when the exhaustive search was skipped because the history
  /// exceeded `max_txns` (result is then inconclusive, ok=false).
  bool skipped = false;
  /// For successes of the replay-based certifiers: the one-copy database
  /// after replaying the serial order. Callers can compare it against the
  /// physical copies to detect state-level durability loss (committed
  /// writes that vanished without any committed read witnessing it).
  std::map<ObjectId, Value> final_db;
};

/// Initial one-copy database contents; objects absent from the map start
/// with the empty value.
using InitialDb = std::map<ObjectId, Value>;

/// Theorem 1′ check: replay in (vp ≺, commit-time) order.
CertifyResult CertifyOneCopySR(const HistoryView& committed,
                               const InitialDb& initial);

/// Replays the given explicit order; exposed for tests.
CertifyResult ReplaySerialOrder(const HistoryView& committed,
                                const InitialDb& initial,
                                const std::vector<size_t>& order);

/// Searches all permutations (up to max_txns!) for a valid serial order.
CertifyResult CertifyOneCopySRAnyOrder(
    const HistoryView& committed, const InitialDb& initial,
    size_t max_txns = 9);

/// Conflict-graph acyclicity over recorded physical operations.
CertifyResult CheckConflictSerializable(
    const std::vector<Recorder::PhysOp>& physical_ops,
    const HistoryView& committed);

/// Theorem 1′ replay along the topological order of the committed
/// transactions' physical conflict graph — the exact serialization order
/// strict 2PL enforces. Commit timestamps can misorder anti-dependencies
/// (a reader and a later writer may commit in the same microsecond, or a
/// copy applies a committed write only when the outcome message lands), so
/// this candidate succeeds on executions the commit-time replays misjudge.
/// Returns skipped when the conflict graph is cyclic (no topological order
/// exists; CheckConflictSerializable reports the cycle).
CertifyResult CertifyOneCopySRConflictOrder(
    const std::vector<Recorder::PhysOp>& physical_ops,
    const HistoryView& committed, const InitialDb& initial);

/// No-lost-committed-write / durability check: every value returned by a
/// committed transaction's read must originate from the initial database or
/// from a write of some COMMITTED transaction. A read tracing to an aborted
/// (or phantom) write witnesses a durability bug — e.g. R5 recovery
/// installing a rolled-back stage, or a replica resurrecting discarded
/// state after crash/recovery churn.
CertifyResult CheckNoLostCommittedWrites(
    const HistoryView& committed, const InitialDb& initial);

}  // namespace vp::history

#endif  // VPART_HISTORY_CHECKER_H_
