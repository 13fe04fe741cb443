#include "core/flighting.h"

#include <algorithm>
#include <unordered_set>

namespace kea::core {

Status ApplyPatch(const ConfigPatch& patch, const std::vector<int>& machine_ids,
                  sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  auto& machines = cluster->mutable_machines();
  for (int id : machine_ids) {
    if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(id));
    }
  }
  if (patch.max_containers) {
    if (*patch.max_containers <= 0) {
      return Status::InvalidArgument("max_containers must be positive");
    }
    for (int id : machine_ids) {
      machines[static_cast<size_t>(id)].max_containers = *patch.max_containers;
    }
  }
  if (patch.power_cap_fraction) {
    KEA_RETURN_IF_ERROR(cluster->SetPowerCap(machine_ids, *patch.power_cap_fraction));
  }
  if (patch.feature_enabled) {
    KEA_RETURN_IF_ERROR(cluster->SetFeature(machine_ids, *patch.feature_enabled));
  }
  if (patch.software_config) {
    KEA_RETURN_IF_ERROR(cluster->SetSoftwareConfig(machine_ids, *patch.software_config));
  }
  return Status::OK();
}

StatusOr<FlightId> FlightingService::CreateFlight(FlightSpec spec) {
  if (spec.machine_ids.empty()) {
    return Status::InvalidArgument("flight needs target machines");
  }
  if (spec.patch.empty()) {
    return Status::InvalidArgument("flight has an empty configuration patch");
  }
  if (spec.end_hour <= spec.start_hour) {
    return Status::InvalidArgument("flight window must have positive length");
  }
  // A machine may carry at most one flight at a time: two patches racing on
  // the same machine in overlapping windows would make both arms' telemetry
  // unattributable (and End() would restore a snapshot taken mid-flight of
  // the other). Registration is rejected, not silently allowed.
  std::unordered_set<int> requested(spec.machine_ids.begin(),
                                    spec.machine_ids.end());
  for (size_t other = 0; other < specs_.size(); ++other) {
    const FlightSpec& existing = specs_[other];
    if (spec.start_hour >= existing.end_hour ||
        existing.start_hour >= spec.end_hour) {
      continue;  // Disjoint windows never conflict.
    }
    for (int mid : existing.machine_ids) {
      if (requested.count(mid) > 0) {
        return Status::FailedPrecondition(
            "machine " + std::to_string(mid) + " is already in flight '" +
            existing.name + "' (" + std::to_string(existing.start_hour) + "-" +
            std::to_string(existing.end_hour) + ") overlapping hours " +
            std::to_string(spec.start_hour) + "-" +
            std::to_string(spec.end_hour));
      }
    }
  }
  FlightId id = static_cast<FlightId>(specs_.size());
  specs_.push_back(std::move(spec));
  snapshots_[id] = Snapshot{};
  return id;
}

Status FlightingService::Begin(FlightId id, sim::Cluster* cluster) {
  if (id < 0 || static_cast<size_t>(id) >= specs_.size()) {
    return Status::NotFound("unknown flight id");
  }
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  Snapshot& snap = snapshots_[id];
  if (snap.active) return Status::FailedPrecondition("flight already active");

  const FlightSpec& spec = specs_[static_cast<size_t>(id)];
  const auto& machines = cluster->machines();
  snap.machines.clear();
  for (int mid : spec.machine_ids) {
    if (mid < 0 || static_cast<size_t>(mid) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(mid));
    }
    snap.machines.push_back(machines[static_cast<size_t>(mid)]);
  }
  KEA_RETURN_IF_ERROR(ApplyPatch(spec.patch, spec.machine_ids, cluster));
  snap.active = true;
  return Status::OK();
}

Status FlightingService::End(FlightId id, sim::Cluster* cluster) {
  if (id < 0 || static_cast<size_t>(id) >= specs_.size()) {
    return Status::NotFound("unknown flight id");
  }
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  Snapshot& snap = snapshots_[id];
  if (!snap.active) return Status::FailedPrecondition("flight is not active");

  auto& machines = cluster->mutable_machines();
  bool sc_changed = false;
  for (const sim::Machine& prior : snap.machines) {
    sim::Machine& current = machines[static_cast<size_t>(prior.id)];
    if (current.sc != prior.sc) sc_changed = true;
    current = prior;
  }
  if (sc_changed) {
    // Restore group indexes after SC reassignment.
    std::vector<int> ids;
    ids.reserve(snap.machines.size());
    for (const sim::Machine& m : snap.machines) ids.push_back(m.id);
    // SetSoftwareConfig rebuilds groups; reapply each machine's (restored) sc.
    for (const sim::Machine& m : snap.machines) {
      KEA_RETURN_IF_ERROR(cluster->SetSoftwareConfig({m.id}, m.sc));
    }
  }
  snap.active = false;
  snap.machines.clear();
  return Status::OK();
}

StatusOr<bool> FlightingService::IsActive(FlightId id) const {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return Status::NotFound("unknown flight id");
  return it->second.active;
}

}  // namespace kea::core
