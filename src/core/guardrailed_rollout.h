#ifndef KEA_CORE_GUARDRAILED_ROLLOUT_H_
#define KEA_CORE_GUARDRAILED_ROLLOUT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/deployment.h"
#include "core/journaled_step.h"
#include "sim/cluster.h"
#include "telemetry/store.h"

namespace kea::core {

/// Regression limits evaluated between rollout waves. Each observed guardrail
/// metric is compared against the same machines' pre-rollout baseline; any
/// violation trips the rollout and triggers automatic rollback of every
/// applied wave.
struct GuardrailThresholds {
  /// Observed / baseline cluster-average task latency (Eq. 9's W-bar) must
  /// stay at or below this ratio.
  double max_latency_ratio = 1.05;
  /// Observed / baseline p99 queue latency must stay at or below this ratio.
  /// A baseline p99 of ~0 (empty queues) only trips when the observed p99
  /// exceeds queue_p99_floor_ms in absolute terms.
  double max_queue_p99_ratio = 1.5;
  double queue_p99_floor_ms = 10.0;
  /// Observed mean CPU utilization must stay at or below this cap (the
  /// "machines off the cliff" guard of Eq. 10).
  double max_utilization = 0.99;
  /// SLO guardrail, disabled by default (0.0). When set, each observed
  /// machine-hour whose mean task latency exceeds this target burns error
  /// budget; the wave trips when the burn rate — bad fraction divided by
  /// the budget (1 - slo_objective) — exceeds max_slo_burn. This is the
  /// same burn-rate semantic obs::SloTracker uses in kea::serve, applied
  /// to rollout observation windows.
  double slo_target_latency_s = 0.0;
  double slo_objective = 0.99;
  double max_slo_burn = 1.0;
};

/// One guardrail evaluation: the baseline vs observed metric values and the
/// per-metric verdicts.
struct GuardrailEvaluation {
  double baseline_latency_s = 0.0;
  double observed_latency_s = 0.0;
  double baseline_queue_p99_ms = 0.0;
  double observed_queue_p99_ms = 0.0;
  double baseline_utilization = 0.0;
  double observed_utilization = 0.0;

  bool latency_ok = false;
  bool queue_ok = false;
  bool utilization_ok = false;
  /// False when the wave window had no usable telemetry at all — treated as
  /// a trip (never conclude "healthy" from silence).
  bool measurable = false;
  /// SLO guardrail verdict. slo_checked records whether the guardrail was
  /// enabled for this evaluation; slo_ok defaults true so evaluations
  /// decoded from pre-SLO ledger blobs (and runs with the guardrail off)
  /// pass unchanged.
  bool slo_checked = false;
  double observed_slo_burn = 0.0;
  bool slo_ok = true;

  bool pass() const {
    return measurable && latency_ok && queue_ok && utilization_ok && slo_ok;
  }
  std::string Describe() const;
};

/// Guardrail verdict for `machine_ids`: the observed window [begin, end)
/// against the same machines' baseline window [baseline_begin, baseline_end).
/// A window with no usable telemetry on either side is unmeasurable and trips.
/// Rollout waves and fabric flights both judge with this one function, so
/// they trip on the same evidence.
GuardrailEvaluation EvaluateGuardrails(const telemetry::TelemetryStore& store,
                                       const GuardrailThresholds& thresholds,
                                       const std::vector<int>& machine_ids,
                                       sim::HourIndex baseline_begin,
                                       sim::HourIndex baseline_end,
                                       sim::HourIndex begin, sim::HourIndex end);

/// Staged deployment with guardrails and automatic rollback — the Section
/// 5.2.2 discipline ("modify the configuration by a small margin", flighting
/// before fleet) composed into a state machine:
///
///   Canary wave (a few sub-clusters) -> observe -> guardrails
///     -> widening waves -> observe -> guardrails -> ... -> converged
///   any guardrail trip -> roll back every applied wave, newest first,
///                         restoring the exact pre-rollout per-machine config
///
/// Waves are whole sub-clusters (pilot flightings target sub-clusters in the
/// paper), selected deterministically. Per-group targets are clamped to
/// +-deploy.max_step of the group's pre-rollout configuration, exactly like
/// DeploymentModule. The rollout never touches machines outside its waves,
/// and after a rollback the fleet configuration is bit-identical to the
/// snapshot taken on entry.
class GuardrailedRollout {
 public:
  struct Options {
    /// Cumulative fraction of sub-clusters configured after each wave. Must
    /// be increasing and end at 1.0 for a full-fleet rollout.
    std::vector<double> wave_fractions = {0.05, 0.25, 1.0};
    /// Simulated/observed hours between a wave's apply and its guardrail
    /// evaluation.
    int observe_hours_per_wave = 24;
    /// Pre-rollout window used for baseline guardrail metrics.
    int baseline_hours = 24;
    GuardrailThresholds guardrails;
    DeploymentModule::Options deploy;
  };

  enum class Outcome {
    kConverged,   ///< Every wave passed; the new configuration is fleet-wide.
    kRolledBack,  ///< A guardrail tripped; pre-rollout config restored.
    kNoChange,    ///< Every recommendation clamped to a no-op; nothing applied.
  };

  struct WaveResult {
    int wave = 0;
    /// Sub-clusters configured in this wave.
    std::vector<int> sub_clusters;
    /// Machines whose max_containers actually changed.
    size_t machines_changed = 0;
    sim::HourIndex observe_begin = 0;
    sim::HourIndex observe_end = 0;
    GuardrailEvaluation eval;
    bool passed = false;
  };

  struct Report {
    Outcome outcome = Outcome::kNoChange;
    std::vector<WaveResult> waves;
    /// Index of the wave whose guardrails tripped; -1 when none did.
    int tripped_wave = -1;
    /// Machines restored during rollback (0 when no rollback happened).
    size_t machines_restored = 0;
  };

  /// Advances the world (simulate + ingest) by `hours`; the rollout calls it
  /// between apply and evaluate. Implementations must append the new
  /// telemetry to the store passed to Execute.
  using AdvanceFn = std::function<Status(int hours)>;

  explicit GuardrailedRollout(const Options& options);

  /// Runs the staged rollout. `store` is read for baseline and per-wave
  /// guardrail metrics; `start_hour` is the current simulation clock (the
  /// baseline window is [start_hour - baseline_hours, start_hour)).
  /// Guardrail trips are reported via Report::outcome, not a non-OK status;
  /// errors (bad options, failing advance) leave the cluster rolled back to
  /// its entry state before returning.
  ///
  /// Every wave transition (started / applied / observed / guardrail verdict
  /// / rollback) is a JournaledStep keyed idempotently as
  /// "r<round>/w<wave>/<step>". With a journal context each is recorded
  /// *before* its effect, so a crashed round resumed from its last checkpoint
  /// re-drives pending steps exactly once and finishes bit-identical to an
  /// uninterrupted run. An injected crash (kAborted) unwinds without touching
  /// anything further, mirroring process death.
  StatusOr<Report> Execute(const std::vector<GroupRecommendation>& recommendations,
                           sim::Cluster* cluster,
                           const telemetry::TelemetryStore* store,
                           sim::HourIndex start_hour, const AdvanceFn& advance,
                           JournalContext* ctx = nullptr);

  /// Bit-exact codec for GuardrailEvaluation (used in WAVE_VERDICT payloads).
  static std::string EncodeEvaluation(const GuardrailEvaluation& eval);
  static Status DecodeEvaluation(const std::string& blob, GuardrailEvaluation* eval);

 private:
  /// Snapshot entry: (machine id, pre-rollout max_containers).
  using MachineSnapshot = std::vector<std::pair<int, int>>;

  Status ValidateOptions() const;
  /// Restores all snapshots, newest wave first.
  void Restore(const std::vector<MachineSnapshot>& snapshots,
               sim::Cluster* cluster) const;

  /// Body of Execute; `snapshots` is owned by the caller so the
  /// error path can roll back whatever was applied before the failure.
  Status RunWaves(const std::vector<GroupRecommendation>& recommendations,
                  sim::Cluster* cluster, const telemetry::TelemetryStore* store,
                  sim::HourIndex start_hour, const AdvanceFn& advance,
                  const JournaledStep& step, Report* report,
                  std::vector<MachineSnapshot>* snapshots);

  Options options_;
};

}  // namespace kea::core

#endif  // KEA_CORE_GUARDRAILED_ROLLOUT_H_
