#include "harness/cluster.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace vp::harness {

namespace {
std::vector<std::unique_ptr<storage::StableStore>> NewStables(
    const ClusterConfig& config) {
  std::vector<std::unique_ptr<storage::StableStore>> stables;
  stables.reserve(config.n_processors);
  for (ProcessorId p = 0; p < config.n_processors; ++p) {
    stables.push_back(std::make_unique<storage::StableStore>(
        config.durability, config.integrity));
  }
  return stables;
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      graph_(config_.n_processors),
      network_(&scheduler_, &graph_, config_.net, config_.seed ^ 0x9e37),
      injector_(&scheduler_, &graph_),
      runtime_(&scheduler_, &network_),
      stables_(NewStables(config_)),
      assembly_(config_,
                Substrate{
                    .clock = runtime_.clock(),
                    .transport = runtime_.transport(),
                    .executor = [this](ProcessorId) {
                      return runtime_.executor();
                    },
                    .metrics = &metrics_,
                    .stable = [this](ProcessorId p) {
                      return stables_[p].get();
                    },
                    .jitter_salt = config_.seed,
                }) {
  network_.AttachMetrics(&metrics_);
  reboot_pending_.assign(config_.n_processors, false);
  for (ProcessorId p = 0; p < config_.n_processors; ++p) node(p).Start();
  injector_.SetProcessorHooks(
      [this](ProcessorId p, bool amnesia) {
        if (!amnesia || !stables_[p]->amnesia()) return;
        // The volatile state dies now; the matching recover reboots the
        // node from stable storage.
        reboot_pending_[p] = true;
        node(p).Retire();
      },
      [this](ProcessorId p) {
        if (!reboot_pending_[p]) return;
        reboot_pending_[p] = false;
        Reboot(p);
      });
  injector_.SetCorruptionHook([this](const net::FaultAction& a) {
    using Kind = net::FaultAction::Kind;
    storage::StableStore* stable = stables_[a.a].get();
    switch (a.kind) {
      case Kind::kBitRot:
        if (a.corrupt_obj != kInvalidObject) {
          stable->CorruptCopyImage(a.corrupt_obj);
        } else {
          stable->CorruptWalPrepare(a.wal_index);
        }
        break;
      case Kind::kTornWrite:
        if (a.corrupt_obj != kInvalidObject) {
          stable->TearCopyImage(a.corrupt_obj);
        } else {
          stable->TearWalPrepare(a.wal_index);
        }
        break;
      case Kind::kCrashAmnesiaTorn:
        stable->TearTailOnCrash(/*drop=*/a.count != 0);
        break;
      default:
        break;
    }
  });
}

void Cluster::Reboot(ProcessorId p) {
  storage::StableStore* stable = stables_[p].get();
  VP_CHECK_MSG(stable->amnesia(), "reboot requires an amnesia fault model");
  stable->BeginIncarnation();
  // Ensure the old object is quiet even if the crash hook never ran (tests
  // calling Reboot directly); Retire is idempotent.
  node(p).Retire();
  assembly_.Rebuild(p);
  node(p).Start();
  VP_LOG(kInfo, scheduler_.Now())
      << "p" << p << " rebooted from stable storage (incarnation "
      << stable->incarnation() << ")";
}

TxnResult Cluster::RunTxn(ProcessorId at, std::vector<TxnOp> ops,
                          sim::Duration budget) {
  // Heap-held, so a decision landing after the budget writes into live
  // state.
  auto decided = std::make_shared<std::optional<TxnResult>>();
  const sim::SimTime start = scheduler_.Now();
  StartTxnProgram(node(at), std::move(ops),
                  [this, decided, start](TxnResult r) {
                    r.latency = scheduler_.Now() - start;
                    *decided = std::move(r);
                  });
  while (!decided->has_value() && scheduler_.Now() < start + budget) {
    if (!scheduler_.RunOne()) break;
  }
  if (!decided->has_value()) {
    TxnResult none;
    none.failure = Status::Timeout("no decision within the budget");
    return none;
  }
  return std::move(**decided);
}

void Cluster::Revive(ProcessorId p) {
  graph_.SetAlive(p, true);
  if (reboot_pending_[p]) {
    reboot_pending_[p] = false;
    Reboot(p);
  }
}

storage::StableStats Cluster::AggregateStableStats() const {
  storage::StableStats sum;
  for (const auto& s : stables_) {
    const storage::StableStats& st = s->stats();
    sum.fsyncs += st.fsyncs;
    sum.wal_appends += st.wal_appends;
    sum.wal_bytes += st.wal_bytes;
    sum.copy_persist_bytes += st.copy_persist_bytes;
    sum.wal_replay_records += st.wal_replay_records;
    sum.reboots += st.reboots;
    sum.torn_truncated += st.torn_truncated;
    sum.quarantined += st.quarantined;
    sum.scrub_repairs += st.scrub_repairs;
  }
  return sum;
}

bool Cluster::VpConverged() const {
  if (config_.protocol != Protocol::kVirtualPartition) return false;
  for (ProcessorId a = 0; a < config_.n_processors; ++a) {
    if (!graph_.Alive(a)) continue;
    const auto& na = static_cast<const core::VpNode&>(assembly_.node(a));
    if (!na.assigned()) return false;
    for (ProcessorId b = a + 1; b < config_.n_processors; ++b) {
      if (!graph_.Alive(b) || !graph_.CanCommunicate(a, b)) continue;
      const auto& nb = static_cast<const core::VpNode&>(assembly_.node(b));
      if (!nb.assigned() || !(na.cur_id() == nb.cur_id())) return false;
    }
  }
  return true;
}

}  // namespace vp::harness
