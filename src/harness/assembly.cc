#include "harness/assembly.h"

#include <string_view>
#include <utility>

#include "common/logging.h"

namespace vp::harness {

std::string ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kVirtualPartition:
      return "virtual-partition";
    case Protocol::kQuorum:
      return "quorum";
    case Protocol::kMajorityVoting:
      return "majority-voting";
    case Protocol::kRowa:
      return "rowa";
    case Protocol::kNaiveView:
      return "naive-view";
  }
  return "?";
}

bool ProtocolFromName(const std::string& name, Protocol* out) {
  for (Protocol p :
       {Protocol::kVirtualPartition, Protocol::kQuorum,
        Protocol::kMajorityVoting, Protocol::kRowa, Protocol::kNaiveView}) {
    if (ProtocolName(p) == name) {
      *out = p;
      return true;
    }
  }
  return false;
}

namespace {
bool Concurrent(const obs::MetricsRegistry* metrics) {
  return metrics->mode() == obs::RegistryMode::kConcurrent;
}
}  // namespace

Assembly::Assembly(const AssemblyConfig& config, Substrate substrate)
    : config_(config),
      substrate_(std::move(substrate)),
      placement_(config_.placement.object_count() > 0
                     ? config_.placement
                     : storage::CopyPlacement::FullReplication(
                           config_.n_processors, config_.n_objects)),
      placements_(placement_),
      fdr_(Concurrent(substrate_.metrics) ? obs::FdrMode::kConcurrent
                                          : obs::FdrMode::kSerial,
           config_.n_processors, config_.fdr_capacity),
      probes_(/*thread_safe=*/Concurrent(substrate_.metrics),
              substrate_.metrics) {
  tracer_.set_enabled(config_.tracing);
  // Probes consume the recorder stream live; violations are echoed back
  // into the rings so a dump shows the flag in its event context.
  fdr_.set_listener(&probes_);
  probes_.AttachRecorder(&fdr_);
  // Legitimate pre-existing values for the durable-read probe: every
  // configured initial value, plus the empty value unstaged copies serve.
  probes_.AddKnownValue("");
  probes_.AddKnownValue(config_.initial_value);
  for (const auto& [obj, v] : config_.initial_values) {
    probes_.AddKnownValue(v);
  }
  const uint32_t n = config_.n_processors;
  stores_.resize(n);
  locks_.resize(n);
  nodes_.reserve(n);
  for (ProcessorId p = 0; p < n; ++p) {
    if (substrate_.stable) {
      storage::StableStore* stable = substrate_.stable(p);
      stable->AttachMetrics(substrate_.metrics);
      MirrorStableEvents(p, stable);
    }
    BuildReplica(p);
  }
  for (ProcessorId p = 0; p < n; ++p) nodes_.push_back(MakeNode(p));
}

const Value& Assembly::InitialValue(ObjectId obj) const {
  auto it = config_.initial_values.find(obj);
  return it != config_.initial_values.end() ? it->second
                                            : config_.initial_value;
}

void Assembly::BuildReplica(ProcessorId p) {
  stores_[p] = std::make_unique<storage::ReplicaStore>();
  locks_[p] = std::make_unique<cc::LockManager>(
      substrate_.executor(p), substrate_.clock, substrate_.metrics);
  for (ObjectId obj : placement_.LocalObjects(p)) {
    stores_[p]->CreateCopy(obj, InitialValue(obj), kEpochDate);
  }
  // First boot persists the initial images onto the empty device; a
  // reboot loads the persisted images over the fresh initial values.
  if (substrate_.stable) stores_[p]->AttachStable(substrate_.stable(p));
}

void Assembly::MirrorStableEvents(ProcessorId p,
                                  storage::StableStore* stable) {
  // The hook outlives reboots: the StableStore survives them and `p` is
  // stable.
  stable->set_event_hook([this, p](const char* what, uint64_t a,
                                   uint64_t b) {
    obs::FdrEvent e;
    e.ts_us = static_cast<int64_t>(substrate_.clock->Now());
    e.node = p;
    const std::string_view w = what;
    if (w == "wal") {
      e.kind = obs::FdrKind::kWalAppend;
      e.a = a;
      e.b = b;
      fdr_.Record(e);
      e.kind = obs::FdrKind::kFsync;  // Every WAL append syncs the device.
      e.a = 0;
      e.b = a;
    } else if (w == "copy") {
      e.kind = obs::FdrKind::kFsync;
      e.a = 1;
      e.b = a;
    } else if (w == "viewmeta") {
      e.kind = obs::FdrKind::kFsync;
      e.a = 2;
      e.b = 0;
    } else if (w == "reconfig") {
      e.kind = obs::FdrKind::kFsync;
      e.a = 3;
      e.b = a;
    } else if (w == "salvage.torn") {
      e.kind = obs::FdrKind::kSalvage;
      e.a = 0;
      e.b = a;
    } else if (w == "salvage.quarantine") {
      e.kind = obs::FdrKind::kSalvage;
      e.a = 1;
      e.b = 0;
    } else {
      return;
    }
    fdr_.Record(e);
  });
}

std::unique_ptr<core::NodeBase> Assembly::MakeNode(ProcessorId p) {
  core::NodeEnv env;
  env.clock = substrate_.clock;
  env.executor = substrate_.executor(p);
  env.transport = substrate_.transport;
  env.placement = &placement_;
  env.placements = &placements_;
  env.store = stores_[p].get();
  env.locks = locks_[p].get();
  env.recorder = &recorder_;
  env.stable = substrate_.stable ? substrate_.stable(p) : nullptr;
  env.reliable = config_.reliable;
  env.reliable.jitter_seed ^= substrate_.jitter_salt;
  env.metrics = substrate_.metrics;
  env.tracer = &tracer_;
  env.fdr = &fdr_;
  switch (config_.protocol) {
    case Protocol::kVirtualPartition:
      return std::make_unique<core::VpNode>(p, env, config_.vp);
    case Protocol::kQuorum:
      return std::make_unique<protocols::QuorumNode>(p, env, config_.quorum);
    case Protocol::kMajorityVoting:
      return std::make_unique<protocols::QuorumNode>(
          p, env, protocols::MajorityVotingConfig(config_.quorum));
    case Protocol::kRowa:
      return std::make_unique<protocols::QuorumNode>(
          p, env, protocols::RowaConfig(config_.quorum));
    case Protocol::kNaiveView:
      return std::make_unique<protocols::NaiveViewNode>(p, env, config_.naive);
  }
  VP_CHECK(false);
  return nullptr;
}

void Assembly::Rebuild(ProcessorId p) {
  retired_nodes_.push_back(std::move(nodes_[p]));
  retired_locks_.push_back(std::move(locks_[p]));
  retired_stores_.push_back(std::move(stores_[p]));
  BuildReplica(p);
  nodes_[p] = MakeNode(p);
}

core::VpNode& Assembly::vp_node(ProcessorId p) {
  VP_CHECK(config_.protocol == Protocol::kVirtualPartition);
  return static_cast<core::VpNode&>(*nodes_[p]);
}

protocols::NaiveViewNode& Assembly::naive_node(ProcessorId p) {
  VP_CHECK(config_.protocol == Protocol::kNaiveView);
  return static_cast<protocols::NaiveViewNode&>(*nodes_[p]);
}

history::InitialDb Assembly::initial_db() const {
  history::InitialDb db;
  for (ObjectId obj = 0; obj < placement_.object_count(); ++obj) {
    db[obj] = InitialValue(obj);
  }
  return db;
}

history::CertifyResult Assembly::Certify() const {
  const history::HistoryView committed = recorder_.Committed();
  const history::InitialDb initial = initial_db();
  history::CertifyResult r = history::CertifyOneCopySR(committed, initial);
  if (r.ok) return r;
  // The commit-time replay keys can misjudge anti-dependencies (ties,
  // outcome-application lag); the conflict-graph order is the witness
  // strict 2PL actually enforces. Any passing replay is a sound 1SR proof.
  history::CertifyResult conflict_order = history::CertifyOneCopySRConflictOrder(
      recorder_.physical_ops(), committed, initial);
  if (conflict_order.ok) return conflict_order;
  return r;
}

history::CertifyResult Assembly::CertifyAnyOrder(size_t max_txns) const {
  return history::CertifyOneCopySRAnyOrder(recorder_.Committed(),
                                           initial_db(), max_txns);
}

history::CertifyResult Assembly::CertifyConflicts() const {
  return history::CheckConflictSerializable(recorder_.physical_ops(),
                                            recorder_.Committed());
}

history::CertifyResult Assembly::CertifyDurableReads() const {
  return history::CheckNoLostCommittedWrites(recorder_.Committed(),
                                             initial_db());
}

core::ProtocolStats Assembly::AggregateStats() const {
  core::ProtocolStats sum;
  for (const auto& node : nodes_) {
    const core::ProtocolStats& s = node->stats();
    sum.txns_aborted += s.txns_aborted;
    sum.reads_attempted += s.reads_attempted;
    sum.reads_ok += s.reads_ok;
    sum.phys_reads_sent += s.phys_reads_sent;
    sum.phys_writes_sent += s.phys_writes_sent;
    sum.vp_joins += s.vp_joins;
    sum.recovery_reads_sent += s.recovery_reads_sent;
    sum.recovery_skipped_objects += s.recovery_skipped_objects;
    sum.recovery_log_records += s.recovery_log_records;
    sum.recovery_date_polls += s.recovery_date_polls;
    sum.recovery_value_fetches += s.recovery_value_fetches;
  }
  return sum;
}

}  // namespace vp::harness
