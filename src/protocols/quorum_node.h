// Weighted-voting quorum consensus (Gifford [G]) over the same substrate as
// the VP protocol, for apples-to-apples comparison.
//
// Every copy carries a version (stored in the date field's sequence
// number). A logical read collects replies from copies worth at least
// `read_quorum` votes and returns the highest-versioned value. A logical
// write first polls a write quorum for the current version under exclusive
// locks, then writes value/version+1 to those copies.
//
// Specializations:
//   * majority voting (Thomas [T]): read_quorum = write_quorum = ⌊V/2⌋+1,
//   * ROWA: read_quorum = 1, write_quorum = V (no fault tolerance for
//     writes; the availability baseline).
//
// Configurable copy-selection policy:
//   * minimal (default): contact the cheapest set of copies forming a
//     quorum — fewest messages, but a single unresponsive member aborts
//     the operation;
//   * poll_all: contact every copy and succeed once a quorum of replies
//     arrives — more messages, maximal availability.
#ifndef VPART_PROTOCOLS_QUORUM_NODE_H_
#define VPART_PROTOCOLS_QUORUM_NODE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/node_base.h"

namespace vp::protocols {

struct QuorumConfig {
  /// Votes required to read. 0 means "majority" (computed per object).
  Weight read_quorum = 0;
  /// Votes required to write. 0 means "majority".
  Weight write_quorum = 0;
  /// When read_quorum/write_quorum are 0 and this is true, the write
  /// quorum is ALL votes (ROWA).
  bool write_all = false;
  /// Contact every copy instead of a minimal quorum.
  bool poll_all = false;
  sim::Duration op_timeout = sim::Millis(20);
  sim::Duration lock_timeout = sim::Millis(100);
  sim::Duration outcome_retry_period = sim::Millis(40);
  std::string display_name = "quorum";
};

class QuorumNode : public core::NodeBase {
 public:
  QuorumNode(ProcessorId id, core::NodeEnv env, QuorumConfig config);

  void LogicalRead(TxnId txn, ObjectId obj, core::ReadCallback cb) override;
  void LogicalWrite(TxnId txn, ObjectId obj, Value value,
                    core::WriteCallback cb) override;
  std::string name() const override { return config_.display_name; }

  /// Effective quorums for an object (resolving the "majority" defaults).
  Weight ReadQuorum(ObjectId obj) const;
  Weight WriteQuorum(ObjectId obj) const;

 protected:
  /// Vote counting for reads and version polls; a write's phase 2 needs
  /// every polled copy (the default rule).
  OpStep OnOpReply(LogicalOp& op, const OpReply& r) override;

 private:
  /// Copies to contact for a quorum of `needed` votes; empty if no such
  /// set exists (object under-replicated for the quorum).
  std::vector<ProcessorId> SelectCopies(ObjectId obj, Weight needed) const;

  /// Phase 2 of a write whose version poll reached a quorum: writes
  /// value/version+1 to the polled copies.
  void StartWritePhase2(LogicalOp& op);

  QuorumConfig config_;
};

/// Thomas-style majority voting: r = w = majority. Takes everything but
/// the quorum shape (timeouts, poll_all) from `base`.
QuorumConfig MajorityVotingConfig(QuorumConfig base = {});

/// Read-one/write-all without views: r = 1, w = all votes. Takes everything
/// but the quorum shape (timeouts, poll_all) from `base`.
QuorumConfig RowaConfig(QuorumConfig base = {});

}  // namespace vp::protocols

#endif  // VPART_PROTOCOLS_QUORUM_NODE_H_
