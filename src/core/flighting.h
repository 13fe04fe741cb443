#ifndef KEA_CORE_FLIGHTING_H_
#define KEA_CORE_FLIGHTING_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/cluster.h"

namespace kea::core {

/// Configuration payload of a flight: only the set fields are changed on the
/// target machines; everything else is left untouched.
struct ConfigPatch {
  std::optional<int> max_containers;
  std::optional<double> power_cap_fraction;
  std::optional<bool> feature_enabled;
  std::optional<sim::ScId> software_config;

  bool empty() const {
    return !max_containers && !power_cap_fraction && !feature_enabled &&
           !software_config;
  }
};

/// Wire layout (nested in FLIGHT_STARTED ledger payloads); see
/// common/snapshot.h.
template <class Io>
void Transfer(Io& io, ConfigPatch& patch) {
  io(patch.max_containers, patch.power_cap_fraction, patch.feature_enabled,
     patch.software_config);
}

/// A flight: a configuration patch applied to named machines for a time
/// window. Mirrors the production flighting tool, where "users can specify
/// the machine names and the starting/ending time of each flighting"
/// (Section 4.1).
struct FlightSpec {
  std::string name;
  std::vector<int> machine_ids;
  sim::HourIndex start_hour = 0;
  sim::HourIndex end_hour = 0;
  ConfigPatch patch;
};

using FlightId = int;

/// Deploys configuration changes to machine subsets as a pre-deployment
/// safety check, and restores the previous configuration when the flight
/// ends. The per-machine prior state is snapshotted at Begin() so overlapping
/// edits cannot corrupt the fleet configuration.
class FlightingService {
 public:
  /// Registers a flight. Returns InvalidArgument for an empty patch, empty
  /// machine list, or a non-positive window; FailedPrecondition when any
  /// target machine already belongs to a registered flight whose window
  /// overlaps this one — a machine is never in two arms at once.
  StatusOr<FlightId> CreateFlight(FlightSpec spec);

  /// Applies the flight's patch to the cluster, snapshotting prior values.
  /// FailedPrecondition if already active; OutOfRange on bad machine ids.
  Status Begin(FlightId id, sim::Cluster* cluster);

  /// Reverts the patch using the snapshot. FailedPrecondition if not active.
  Status End(FlightId id, sim::Cluster* cluster);

  /// True while Begin() has been called without a matching End().
  StatusOr<bool> IsActive(FlightId id) const;

  const std::vector<FlightSpec>& flights() const { return specs_; }

 private:
  struct Snapshot {
    std::vector<sim::Machine> machines;  ///< Prior state of target machines.
    bool active = false;
  };

  std::vector<FlightSpec> specs_;
  std::map<FlightId, Snapshot> snapshots_;
};

/// Applies a patch to a machine set directly (shared by flighting and the
/// deployment module).
Status ApplyPatch(const ConfigPatch& patch, const std::vector<int>& machine_ids,
                  sim::Cluster* cluster);

}  // namespace kea::core

#endif  // KEA_CORE_FLIGHTING_H_
