#ifndef KEA_CORE_DEPLOYMENT_H_
#define KEA_CORE_DEPLOYMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/deployment_ledger.h"
#include "sim/cluster.h"

namespace kea::core {

/// A per-group configuration recommendation produced by an optimizer.
struct GroupRecommendation {
  sim::MachineGroupKey group;
  int current_max_containers = 0;
  int recommended_max_containers = 0;
};

template <class Io>
void Transfer(Io& io, GroupRecommendation& r) {
  io(r.group, r.current_max_containers, r.recommended_max_containers);
}

/// One change the deployment module actually applied.
struct AppliedChange {
  sim::MachineGroupKey group;
  int old_max_containers = 0;
  int new_max_containers = 0;
  bool clamped = false;  ///< True when the recommendation exceeded max_step.
};

/// A change batch (the APPLY and MODULE_ROLLBACK payload) is a
/// std::vector<AppliedChange> on the wire; see common/snapshot.h.
template <class Io>
void Transfer(Io& io, AppliedChange& c) {
  io(c.group, c.old_max_containers, c.new_max_containers, c.clamped);
}

/// The Deployment Module: rolls recommendations out to the full cluster with
/// the production guardrails of Section 5.2.2 — "we only modify the
/// configuration by a small margin, i.e. decrease or increase the maximum
/// running containers for each group of machines by one" (max_step below).
class DeploymentModule {
 public:
  struct Options {
    /// Largest per-round change in max_containers per group.
    int max_step = 1;
    /// Floor for any group's max_containers.
    int min_containers = 1;
  };

  DeploymentModule() : options_(Options()) {}
  explicit DeploymentModule(const Options& options) : options_(options) {}

  /// Replaces the guardrail options; history and ledger keys are kept.
  void set_options(const Options& options) { options_ = options; }

  /// The conservative target of one recommendation: clamped to +-max_step
  /// of its current value, floored at min_containers. Equal to the current
  /// value for a no-op.
  static int ConservativeTarget(const GroupRecommendation& rec,
                                const Options& options);

  /// Clamps each recommendation to +-max_step of its current value and
  /// applies it to the cluster. No-op recommendations (delta 0 after
  /// clamping) are skipped. Returns the changes applied, which are also kept
  /// in history().
  StatusOr<std::vector<AppliedChange>> ApplyConservatively(
      const std::vector<GroupRecommendation>& recommendations,
      sim::Cluster* cluster);

  /// All changes applied through this module, in order.
  const std::vector<AppliedChange>& history() const { return history_; }

  /// CSV dump of history() — one row per applied change, in order. Columns:
  ///   sc,sku,old_max_containers,new_max_containers,clamped
  std::string HistoryCsv() const;

  /// Attaches a write-ahead ledger: each ApplyConservatively batch and each
  /// RollbackLast is journaled (keys "module/apply/<n>", "module/rollback/<n>")
  /// *before* the cluster is mutated. `ledger` must outlive the module; null
  /// detaches. The per-operation counters feeding the keys survive
  /// checkpoint/restore via SerializeState().
  void AttachLedger(DeploymentLedger* ledger) { ledger_ = ledger; }

  /// Restores the configuration prior to the last ApplyConservatively call
  /// (the rollback path when flighting invalidates a model). Changes are
  /// undone in reverse application order. Semantics are explicit because the
  /// guardrailed rollout leans on them:
  ///   - OK no-op when the last apply produced no changes (all
  ///     recommendations clamped to no-ops) — there is nothing to restore,
  ///     and the fleet is already in the pre-apply state;
  ///   - idempotent FailedPrecondition on a second rollback (or before any
  ///     apply): the call never mutates the cluster, so retrying it is safe
  ///     and returns the same error.
  Status RollbackLast(sim::Cluster* cluster);

  /// True while the last ApplyConservatively has not been rolled back.
  bool has_pending_batch() const { return has_last_batch_; }

  /// Bit-exact checkpoint of mutable state: history, the pending batch, and
  /// the ledger-key counters. Options and the ledger binding are
  /// construction-time and not included.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <class Io>
  friend void Transfer(Io& io, DeploymentModule& module);

  Options options_;
  DeploymentLedger* ledger_ = nullptr;
  std::vector<AppliedChange> history_;
  std::vector<AppliedChange> last_batch_;
  bool has_last_batch_ = false;  ///< Apply seen and not yet rolled back.
  int64_t apply_count_ = 0;      ///< ApplyConservatively calls (ledger keys).
  int64_t rollback_count_ = 0;   ///< Effective RollbackLast calls (ledger keys).
};

}  // namespace kea::core

#endif  // KEA_CORE_DEPLOYMENT_H_
