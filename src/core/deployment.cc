#include "core/deployment.h"

#include <algorithm>
#include <cstdlib>

#include "common/csv.h"
#include "common/snapshot.h"

namespace kea::core {

int DeploymentModule::ConservativeTarget(const GroupRecommendation& rec,
                                         const Options& options) {
  int delta = rec.recommended_max_containers - rec.current_max_containers;
  int clamped = std::clamp(delta, -options.max_step, options.max_step);
  return std::max(rec.current_max_containers + clamped, options.min_containers);
}

StatusOr<std::vector<AppliedChange>> DeploymentModule::ApplyConservatively(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to deploy");
  }

  // Decide first (pure), then journal the intent, then mutate — write-ahead
  // ordering, so a failed append leaves the cluster untouched.
  std::vector<AppliedChange> applied;
  for (const GroupRecommendation& rec : recommendations) {
    int target = ConservativeTarget(rec, options_);
    if (target == rec.current_max_containers) continue;

    AppliedChange change;
    change.group = rec.group;
    change.old_max_containers = rec.current_max_containers;
    change.new_max_containers = target;
    change.clamped =
        std::abs(rec.recommended_max_containers - rec.current_max_containers) >
        options_.max_step;
    applied.push_back(change);
  }

  if (ledger_ != nullptr) {
    const std::string key = "module/apply/" + std::to_string(apply_count_);
    KEA_RETURN_IF_ERROR(ledger_
                            ->Append(DeploymentLedger::EventType::kApply, key,
                                     EncodeState(applied))
                            .status());
  }
  ++apply_count_;

  for (const AppliedChange& change : applied) {
    KEA_RETURN_IF_ERROR(
        cluster->SetGroupMaxContainers(change.group, change.new_max_containers));
  }
  last_batch_ = applied;
  has_last_batch_ = true;
  history_.insert(history_.end(), applied.begin(), applied.end());
  return applied;
}

Status DeploymentModule::RollbackLast(sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (!has_last_batch_) {
    // Never applied, or already rolled back: idempotent error, no mutation —
    // and no ledger record, since nothing is about to change.
    return Status::FailedPrecondition("nothing to roll back");
  }
  if (ledger_ != nullptr) {
    const std::string key = "module/rollback/" + std::to_string(rollback_count_);
    KEA_RETURN_IF_ERROR(
        ledger_
            ->Append(DeploymentLedger::EventType::kModuleRollback, key,
                     EncodeState(last_batch_))
            .status());
  }
  ++rollback_count_;
  // Empty batch (every recommendation clamped to a no-op): the cluster is
  // already in the pre-apply state, so rolling back is an OK no-op.
  for (auto it = last_batch_.rbegin(); it != last_batch_.rend(); ++it) {
    KEA_RETURN_IF_ERROR(
        cluster->SetGroupMaxContainers(it->group, it->old_max_containers));
  }
  last_batch_.clear();
  has_last_batch_ = false;
  return Status::OK();
}

std::string DeploymentModule::HistoryCsv() const {
  CsvWriter writer;
  writer.SetHeader(
      {"sc", "sku", "old_max_containers", "new_max_containers", "clamped"});
  for (const AppliedChange& c : history_) {
    (void)writer.AppendRow({std::to_string(c.group.sc), std::to_string(c.group.sku),
                            std::to_string(c.old_max_containers),
                            std::to_string(c.new_max_containers),
                            c.clamped ? "1" : "0"});
  }
  return writer.ToString();
}

template <class Io>
void Transfer(Io& io, DeploymentModule& m) {
  io(Nested(m.history_), Nested(m.last_batch_), m.has_last_batch_,
     m.apply_count_, m.rollback_count_);
}

std::string DeploymentModule::SerializeState() const {
  return EncodeState(*this);
}

Status DeploymentModule::RestoreState(const std::string& blob) {
  return DecodeState(blob, this);
}

}  // namespace kea::core
