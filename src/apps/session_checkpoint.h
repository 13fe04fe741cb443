#ifndef KEA_APPS_SESSION_CHECKPOINT_H_
#define KEA_APPS_SESSION_CHECKPOINT_H_

#include <cstdint>

#include "apps/yarn_tuner.h"
#include "core/guardrailed_rollout.h"
#include "sim/types.h"

namespace kea::apps {

// ---- The session's own ledger payloads (wire layouts, see
// common/snapshot.h). The checkpoint's sections are laid out in
// session_checkpoint.cc.

/// ROUND_STARTED: the fit window and the full plan, journaled before any
/// machine is touched. On resume the journaled plan is the authority — the
/// clock has advanced into the rollout, so a refit would see a different
/// window.
struct RoundStart {
  sim::HourIndex start_hour = 0;
  sim::HourIndex fit_begin = 0;
  sim::HourIndex fit_end = 0;
  YarnConfigTuner::Plan plan;
};
template <class Io>
void Transfer(Io& io, RoundStart& r) {
  io(r.start_hour, r.fit_begin, r.fit_end, r.plan);
}

/// ROUND_FINISHED: the rollout's outcome.
struct RoundFinished {
  core::GuardrailedRollout::Outcome outcome =
      core::GuardrailedRollout::Outcome::kNoChange;
  int tripped_wave = -1;
  uint64_t machines_restored = 0;
};
template <class Io>
void Transfer(Io& io, RoundFinished& r) {
  io(r.outcome, r.tripped_wave, r.machines_restored);
}

/// FABRIC_STARTED: the start hour and the queue size.
struct FabricStarted {
  sim::HourIndex start_hour = 0;
  uint64_t requests = 0;
};
template <class Io>
void Transfer(Io& io, FabricStarted& f) {
  io(f.start_hour, f.requests);
}

/// FABRIC_FINISHED: the run's report totals.
struct FabricFinished {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t trips = 0;
  uint64_t max_concurrent = 0;
  uint64_t peak_flighted_machines = 0;
  sim::HourIndex end_hour = 0;
};
template <class Io>
void Transfer(Io& io, FabricFinished& f) {
  io(f.admitted, f.rejected, f.trips, f.max_concurrent,
     f.peak_flighted_machines, f.end_hour);
}

}  // namespace kea::apps

#endif  // KEA_APPS_SESSION_CHECKPOINT_H_
