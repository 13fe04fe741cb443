#include "apps/session.h"

#include <cmath>
#include <utility>
#include <vector>

#include "apps/session_checkpoint.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "telemetry/perf_monitor.h"

namespace kea::apps {
namespace {

constexpr char kLedgerFile[] = "/ledger.kea";
constexpr char kCheckpointFile[] = "/checkpoint.kea";

// Deterministic session-level counters: logical calls and simulated hours, not
// wall clock.
obs::Counter* SimulateCallsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("session.simulate_calls");
  return c;
}
obs::Counter* SimulateHoursCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("session.simulate_hours");
  return c;
}
obs::Counter* RoundsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("session.rounds");
  return c;
}
// Self-healing durability plane. The mode gauge mirrors DurabilityMode
// (0=off, 1=durable, 2=degraded); kTiming keeps mode flips out of the
// deterministic export. The entry/restore counters are deterministic — they
// only move when storage actually fails (injected or real).
void PublishMode(KeaSession::DurabilityMode mode) {
  static obs::Gauge* g = obs::Registry::Get().GetGauge("durability.mode");
  g->Set(static_cast<double>(mode));
}
obs::Counter* DegradedEntriesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.degraded_entries");
  return c;
}
obs::Counter* DegradedRestoresCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.degraded_restores");
  return c;
}

std::string RoundKey(int64_t n) { return "round/" + std::to_string(n); }
std::string FabricKey(int64_t n) { return "fab/" + std::to_string(n); }

const Status& StatusOf(const Status& status) { return status; }
template <class T>
const Status& StatusOf(const StatusOr<T>& result) {
  return result.status();
}

/// The plan-sanity screen of guarded rounds: a corrupted model never reaches
/// the fleet.
Status CheckPlanSane(const YarnConfigTuner::Plan& plan) {
  bool sane = std::isfinite(plan.predicted_capacity_gain) &&
              std::isfinite(plan.predicted_latency_before_s) &&
              std::isfinite(plan.predicted_latency_after_s);
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    sane = sane && rec.recommended_max_containers >= 0;
  }
  for (const auto& [key, value] : plan.lp_solution) {
    sane = sane && std::isfinite(value);
  }
  if (!sane) {
    return Status::FailedPrecondition(
        "refusing to deploy: plan contains non-finite or negative values");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<KeaSession>> KeaSession::Create(const Config& config) {
  KEA_ASSIGN_OR_RETURN(sim::PerfModel perf_model,
                       sim::PerfModel::Create(sim::SkuCatalog::Default(),
                                              sim::DefaultSoftwareConfigs(),
                                              config.perf_params));
  KEA_ASSIGN_OR_RETURN(sim::WorkloadModel workload,
                       sim::WorkloadModel::Create(config.workload));

  // A unique_ptr keeps the engine's pointers into the session stable.
  std::unique_ptr<KeaSession> session(
      new KeaSession(std::move(perf_model), std::move(workload)));

  sim::ClusterSpec cluster_spec = config.cluster;
  if (cluster_spec.sku_fractions.empty()) {
    cluster_spec = sim::ClusterSpec::Default();
  }
  cluster_spec.total_machines = config.machines;
  KEA_ASSIGN_OR_RETURN(
      session->cluster_,
      sim::Cluster::Build(session->perf_model_.catalog(), cluster_spec));

  sim::FluidEngine::Options engine_options = config.engine;
  engine_options.seed = config.seed;
  session->engine_ = std::make_unique<sim::FluidEngine>(
      &session->perf_model_, &session->cluster_, &session->workload_,
      engine_options);
  session->setup_.config = config;
  return session;
}

Status KeaSession::Simulate(int hours) {
  KEA_TRACE_SPAN("session.simulate", {{"hours", std::to_string(hours)},
                                      {"start_hour", std::to_string(now_)}});
  SimulateCallsCounter()->Increment();
  if (hours > 0) SimulateHoursCounter()->Increment(static_cast<uint64_t>(hours));
  if (ingestion_ == nullptr) {
    KEA_RETURN_IF_ERROR(engine_->Run(now_, hours, &store_));
  } else {
    // Hardened path: engine -> (fault injector) -> ingestion pipeline -> store.
    telemetry::TelemetryStore scratch;
    KEA_RETURN_IF_ERROR(engine_->Run(now_, hours, &scratch));
    if (fault_injector_ != nullptr) {
      KEA_RETURN_IF_ERROR(
          ingestion_->Ingest(fault_injector_->Corrupt(scratch.records())));
    } else {
      KEA_RETURN_IF_ERROR(ingestion_->Ingest(scratch.records()));
    }
  }
  now_ += hours;
  // Drift monitoring: fold the new telemetry into the detector's streams and
  // route any alarms into the ModelHealth breaker. Read-only on the store —
  // a clean stream leaves the session's behavior untouched.
  if (drift_ != nullptr) {
    const bool was_safe =
        model_health_ != nullptr && model_health_->in_safe_mode();
    std::vector<telemetry::DriftDetector::Alarm> alarms = drift_->CatchUp(store_);
    std::vector<telemetry::DriftDetector::Alarm> stale =
        drift_->CheckStaleness(now_);
    alarms.insert(alarms.end(), stale.begin(), stale.end());
    if (model_health_ != nullptr) {
      for (const telemetry::DriftDetector::Alarm& alarm : alarms) {
        model_health_->Trip("drift:" + alarm.metric, now_);
      }
      // A freshly opened breaker means the fitted models are no longer
      // trusted; anything cached against the current model_epoch is stale.
      if (!was_safe && model_health_->in_safe_mode()) ++model_epoch_;
    }
  }
  // Durable sessions checkpoint after every simulate so a crash between
  // control-plane actions loses no telemetry. Inside a journaled run the
  // per-step checkpoints own this.
  if (durability_mode() == DurabilityMode::kDegraded) {
    // Auto-probe: a healed disk re-checkpoints here (covering this call's
    // telemetry); a still-broken one keeps the session degraded. Either way
    // the simulation itself succeeded.
    (void)TryRestoreDurability();
    return Status::OK();
  }
  return Persist();
}

Status KeaSession::EnableIngestionPipeline(const IngestionConfig& config) {
  telemetry::IngestionPipeline::Options pipeline_options = config.pipeline;
  pipeline_options.retry.seed = MixSeed(config.seed, 0x1e7e57);
  ingestion_ =
      std::make_unique<telemetry::IngestionPipeline>(&store_, pipeline_options);
  fault_injector_.reset();
  if (!config.faults.empty()) {
    fault_injector_ =
        std::make_unique<sim::TelemetryFaultInjector>(config.faults, config.seed);
    ingestion_->set_write_hook(fault_injector_->MakeWriteHook());
  }
  setup_.ingestion = config;
  setup_.ingestion_enabled = true;
  return Status::OK();
}

Status KeaSession::EnableFleetChaos(const FleetChaosConfig& config) {
  fleet_faults_ = std::make_unique<sim::FleetFaultInjector>(
      &cluster_, config.profile, config.seed);
  engine_->AttachFleetFaults(fleet_faults_.get());
  setup_.chaos = config;
  setup_.chaos_enabled = true;
  return Status::OK();
}

Status KeaSession::EnableSelfHealing(const SelfHealingConfig& config) {
  drift_ = std::make_unique<telemetry::DriftDetector>(config.drift);
  model_health_ = std::make_unique<core::ModelHealth>(config.health);
  setup_.healing = config;
  setup_.healing_enabled = true;
  return Status::OK();
}

size_t KeaSession::TotalDriftAlarms() const {
  if (drift_ == nullptr) return 0;
  size_t total = drift_->staleness_alarms();
  for (size_t count : drift_->alarm_counts()) total += count;
  return total;
}

Status KeaSession::EnableDurability(const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  return EnableDurability(options);
}

Status KeaSession::EnableDurability(const DurabilityOptions& options) {
  if (ledger_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  KEA_ASSIGN_OR_RETURN(
      ledger_, core::DeploymentLedger::Open(options.dir + kLedgerFile));
  durability_dir_ = options.dir;
  keep_generations_ = options.keep_generations;
  deployment_.AttachLedger(ledger_.get());
  // The initial checkpoint covers whatever the (possibly pre-existing) ledger
  // holds, so Resume() of a never-crashed directory is a clean no-op restore.
  durable_seq_ = ledger_->next_seq();
  Status written = WriteCheckpoint();
  if (!written.ok()) {
    deployment_.AttachLedger(nullptr);
    ledger_.reset();
    durability_dir_.clear();
    return written;
  }
  PublishMode(durability_mode());
  return Status::OK();
}

Status KeaSession::Checkpoint() {
  if (ledger_ == nullptr) {
    return Status::FailedPrecondition(
        "EnableDurability must be called before Checkpoint");
  }
  // A checkpoint changes no machine: it passes the gate as the driver of
  // any interrupted run, so only degraded mode refuses it.
  return Gated(InterruptedRun(), [&] { return WriteCheckpoint(); });
}

void KeaSession::EnterDegradedMode(const Status& reason) {
  if (!degraded_reason_.ok()) return;
  degraded_reason_ = reason;
  DegradedEntriesCounter()->Increment();
  PublishMode(durability_mode());
}

Status KeaSession::TryRestoreDurability() {
  if (durability_mode() != DurabilityMode::kDegraded) {
    return Status::FailedPrecondition(
        "session is not in degraded-durability mode");
  }
  // In-memory progress is the authority: every event this session
  // acknowledged reached the in-memory ledger, so the rebuilt plane must
  // hold at least that much — a disk that lost acknowledged events is
  // refused rather than silently rewound (never fabricate state).
  const uint64_t acknowledged = ledger_->next_seq();
  StatusOr<std::unique_ptr<core::DeploymentLedger>> reopened =
      core::DeploymentLedger::Open(durability_dir_ + kLedgerFile);
  if (!reopened.ok()) return reopened.status();
  if (reopened.value()->next_seq() < acknowledged) {
    return Status::Internal(
        "ledger on disk holds " +
        std::to_string(reopened.value()->next_seq()) +
        " events but the session acknowledged " +
        std::to_string(acknowledged) +
        " — refusing to restore a plane that lost acknowledged events");
  }
  // Orphan disk events (appends that persisted but were reported failed)
  // lie at or above durable_seq_, so the checkpoint below leaves them in the
  // re-drive region: the next round replays their recorded payloads with
  // the idempotency keys guaranteeing exactly-once effects.
  ledger_ = std::move(reopened).value();
  deployment_.AttachLedger(ledger_.get());
  Status written = WriteCheckpoint();
  if (!written.ok()) {
    if (IsStorageFailure(written)) degraded_reason_ = written;
    return written;
  }
  degraded_reason_ = Status::OK();
  DegradedRestoresCounter()->Increment();
  PublishMode(durability_mode());
  return Status::OK();
}

Status KeaSession::WriteCheckpoint() {
  return SnapshotGenerations::Write(
      BuildCheckpoint(), durability_dir_ + kCheckpointFile, keep_generations_);
}

Status KeaSession::Persist() {
  if (durability_mode() != DurabilityMode::kDurable || in_journaled_round_) {
    return Status::OK();
  }
  Status written = WriteCheckpoint();
  // The mutation already holds in memory, so the call succeeds. Nothing
  // re-drives a module APPLY or MODULE_ROLLBACK on resume: until a later
  // checkpoint lands, a crash loses the effect its ledger event records.
  if (IsStorageFailure(written)) {
    EnterDegradedMode(written);
    return Status::OK();
  }
  return written;
}

std::string KeaSession::InterruptedRun() const {
  if (ledger_ == nullptr) return "";
  for (const std::string& run :
       {RoundKey(round_count_), FabricKey(fabric_count_)}) {
    if (ledger_->Has(run + "/started")) return run;
  }
  return "";
}

template <class Call>
auto KeaSession::Gated(const std::string& run, const Call& call)
    -> decltype(call()) {
  if (!degraded_reason_.ok()) {
    return Status::FailedPrecondition(
        "degraded durability: fleet changes and checkpoints refused until the "
        "storage plane heals (" + degraded_reason_.message() +
        "); call TryRestoreDurability");
  }
  // Any other fleet change would run on a world the interrupted run has
  // half-changed, and its checkpoints would then persist that world.
  const std::string interrupted = InterruptedRun();
  if (!interrupted.empty() && interrupted != run) {
    return Status::FailedPrecondition(
        "interrupted run " + interrupted +
        " is in flight: only its own driver may change the fleet until it "
        "finishes");
  }
  auto result = call();
  // Steps that already ran are journaled (or re-drivable); a storage
  // failure degrades the session so nothing further reaches the fleet.
  if (IsStorageFailure(StatusOf(result))) EnterDegradedMode(StatusOf(result));
  return result;
}

StatusOr<sim::HourIndex> KeaSession::LookbackBegin(int lookback_hours) const {
  if (lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before fitting");
  }
  return std::max(0, now_ - lookback_hours);
}

StatusOr<core::WhatIfEngine> KeaSession::FitOn(
    sim::HourIndex begin, sim::HourIndex end,
    const core::WhatIfEngine::Options& options) const {
  return core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, end),
                                 options);
}

void KeaSession::RecordFit(sim::HourIndex begin, sim::HourIndex end,
                           const core::WhatIfEngine::Options& options,
                           std::optional<sim::HourIndex> deploy_hour) {
  last_fit_begin_ = begin;
  last_fit_end_ = end;
  last_whatif_options_ = options;
  if (deploy_hour.has_value()) {
    has_round_ = true;
    last_deploy_hour_ = *deploy_hour;
  }
}

void KeaSession::AdoptEngine(core::WhatIfEngine engine) {
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  ++model_epoch_;
}

StatusOr<std::unique_ptr<KeaSession>> KeaSession::Resume(const std::string& dir) {
  KEA_TRACE_SPAN("session.journal_replay");
  // The ledger first: its durable progress bounds which checkpoints are
  // admissible. A checkpoint claiming coverage beyond the ledger's tail
  // (a rotted or rewound ledger) would fabricate effects on replay, so the
  // validator rejects it and the restore falls back a generation.
  std::unique_ptr<core::DeploymentLedger> ledger;
  KEA_ASSIGN_OR_RETURN(ledger, core::DeploymentLedger::Open(dir + kLedgerFile));
  const uint64_t ledger_next = ledger->next_seq();
  SnapshotGenerations::Validator admissible =
      [ledger_next](const SnapshotReader& candidate) -> Status {
    KEA_ASSIGN_OR_RETURN(uint64_t covered, CheckpointCoverage(candidate));
    if (covered > ledger_next) {
      return Status::FailedPrecondition(
          "checkpoint covers " + std::to_string(covered) +
          " ledger events but the ledger holds " +
          std::to_string(ledger_next) + " — refusing to fabricate state");
    }
    return Status::OK();
  };
  KEA_ASSIGN_OR_RETURN(SnapshotGenerations::Restored restored,
                       SnapshotGenerations::RestoreLatestValid(
                           dir + kCheckpointFile, admissible));
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<KeaSession> session,
                       FromCheckpoint(restored.reader));

  session->durability_dir_ = dir;
  session->ledger_ = std::move(ledger);
  session->deployment_.AttachLedger(session->ledger_.get());
  session->resume_generations_discarded_ = restored.discarded;
  PublishMode(session->durability_mode());

  // Rebuild the validation engine for a completed round: the fit window and
  // options are checkpointed, the fit itself is deterministic, so the refit
  // matches the engine the crashed process held.
  if (session->has_round_ &&
      session->last_fit_end_ > session->last_fit_begin_) {
    KEA_ASSIGN_OR_RETURN(core::WhatIfEngine engine,
                         session->FitOn(session->last_fit_begin_,
                                        session->last_fit_end_,
                                        session->last_whatif_options_));
    session->last_engine_ =
        std::make_unique<core::WhatIfEngine>(std::move(engine));
  }
  return session;
}

Status KeaSession::FitWhatIfEngine(const core::WhatIfEngine::Options& options,
                                   int lookback_hours) {
  KEA_ASSIGN_OR_RETURN(sim::HourIndex begin, LookbackBegin(lookback_hours));
  KEA_TRACE_SPAN("session.fit_whatif",
                 {{"lookback_hours", std::to_string(lookback_hours)}});
  KEA_ASSIGN_OR_RETURN(core::WhatIfEngine engine, FitOn(begin, now_, options));
  RecordFit(begin, now_, options);
  AdoptEngine(std::move(engine));
  // Fitting is a model operation, not a deployment: in degraded mode it
  // still runs, it just cannot persist.
  return Persist();
}

StatusOr<KeaSession::TuningRound> KeaSession::RunYarnTuningRound(
    const YarnConfigTuner::Options& options, int lookback_hours,
    int deploy_max_step) {
  return Gated("", [&]() -> StatusOr<TuningRound> {
    KEA_ASSIGN_OR_RETURN(sim::HourIndex begin, LookbackBegin(lookback_hours));
    if (model_health_ != nullptr && model_health_->in_safe_mode()) {
      return Status::FailedPrecondition(
          "model-health breaker is open; deployments refused "
          "(use RunGuardedTuningRound to drive the refit cycle)");
    }
    KEA_TRACE_SPAN("session.round", {{"kind", "yarn"},
                                     {"lookback_hours",
                                      std::to_string(lookback_hours)}});
    RoundsCounter()->Increment();
    KEA_ASSIGN_OR_RETURN(core::WhatIfEngine engine,
                         FitOn(begin, now_, options.whatif));
    YarnConfigTuner tuner(options);
    TuningRound round;
    KEA_ASSIGN_OR_RETURN(round.plan, tuner.ProposeFromEngine(engine, cluster_));
    round.fit_begin = begin;
    round.fit_end = now_;

    deployment_.set_options({.max_step = deploy_max_step});
    // Write-ahead discipline: a failed journal append touched no machine.
    KEA_ASSIGN_OR_RETURN(round.applied,
                         deployment_.ApplyConservatively(
                             round.plan.recommendations, &cluster_));
    // The batch is the ledger's newest event: the gate admits no module
    // call while a run is in flight.
    if (ledger_ != nullptr) durable_seq_ = ledger_->next_seq();

    RecordFit(begin, now_, options.whatif, now_);
    AdoptEngine(std::move(engine));
    if (!round.applied.empty()) ++deploy_epoch_;
    KEA_RETURN_IF_ERROR(Persist());
    return round;
  });
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunGuardedTuningRound(
    const GuardedRoundOptions& options) {
  // The durability gate outranks everything: a degraded storage plane
  // refuses any round (even safe-mode rounds persist breaker state). While
  // the model-health breaker is open the session holds the last known-good
  // config and only drives the refit cycle.
  return Gated(RoundKey(round_count_), [&] {
    return model_health_ != nullptr && model_health_->in_safe_mode()
               ? RunSafeModeRound(options)
               : RunRolloutRound(options);
  });
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunSafeModeRound(
    const GuardedRoundOptions& options) {
  KEA_TRACE_SPAN("session.round", {{"kind", "safe_mode"}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  GuardedRound round;
  round.safe_mode = true;
  round.rollout.outcome = core::GuardrailedRollout::Outcome::kNoChange;
  round.fit_begin = last_fit_begin_;
  round.fit_end = last_fit_end_;
  if (model_health_->RefitDue(now_)) {
    round.refit_attempted = true;
    model_health_->BeginRefit();
    bool passed = AttemptRefit(options);
    model_health_->CompleteRefit(passed, now_);
    round.refit_passed = passed;
    if (passed && drift_ != nullptr) {
      // The post-drift regime is the new normal for every metric stream.
      drift_->Rearm();
    }
  }
  model_health_->NoteRound();
  round.health_state = core::ModelHealth::StateName(model_health_->state());
  round.drift_alarms = TotalDriftAlarms() - alarms_before;
  // Safe-mode rounds deploy nothing, but a passed refit moved the fit window
  // and breaker state — persist them.
  KEA_RETURN_IF_ERROR(Persist());
  return round;
}

bool KeaSession::AttemptRefit(const GuardedRoundOptions& options) {
  const core::ModelHealth::Options& health = model_health_->options();
  // Fit strictly post-drift telemetry: [max(trip, now - lookback), holdout),
  // with the stream's newest tail held out as the validation gate.
  sim::HourIndex holdout_begin = now_ - health.holdout_hours;
  sim::HourIndex fit_begin = std::max(0, now_ - health.refit_lookback_hours);
  if (model_health_->tripped_at() > fit_begin) {
    fit_begin = model_health_->tripped_at();
  }
  if (holdout_begin <= fit_begin) return false;  // Not enough post-drift data.

  StatusOr<core::WhatIfEngine> fitted =
      FitOn(fit_begin, holdout_begin, options.tuner.whatif);
  if (!fitted.ok()) return false;

  core::ModelValidator::Options validator_options;
  validator_options.tolerance = health.validation_tolerance;
  core::ModelValidator validator(validator_options);
  StatusOr<core::ValidationReport> report =
      validator.Validate(fitted.value(), store_,
                         telemetry::HourRangeFilter(holdout_begin, now_));
  if (!report.ok()) return false;
  if (!report.value().models_valid || !report.value().unmodeled_groups.empty()) {
    return false;
  }

  // Gate passed: the refit becomes the session's validation engine and the
  // new known-good fit window.
  RecordFit(fit_begin, holdout_begin, options.tuner.whatif, holdout_begin);
  AdoptEngine(std::move(fitted).value());
  return true;
}

void KeaSession::FinishRoundHealth(size_t alarms_before, GuardedRound* round) {
  if (model_health_ == nullptr) return;
  // Residual tracking: replay the round's models against the telemetry that
  // accrued after its deployment. Residual inflation trips the breaker just
  // like a drift alarm.
  if (last_engine_ != nullptr && now_ > last_deploy_hour_) {
    core::ModelValidator validator{core::ModelValidator::Options{}};
    StatusOr<core::ValidationReport> report = validator.Validate(
        *last_engine_, store_,
        telemetry::HourRangeFilter(last_deploy_hour_, now_));
    if (report.ok()) {
      model_health_->ObserveValidation(report.value(), now_);
    }
  }
  model_health_->NoteRound();
  round->health_state = core::ModelHealth::StateName(model_health_->state());
  round->drift_alarms = TotalDriftAlarms() - alarms_before;
}

core::JournalContext KeaSession::JournalFor(int64_t run) {
  core::JournalContext context;
  context.ledger = ledger_.get();
  context.durable_seq = durable_seq_;
  context.round = static_cast<int>(run);
  context.checkpoint = [this](uint64_t covered_seq) {
    // The step's effect is in memory now.
    durable_seq_ = covered_seq;
    return WriteCheckpoint();
  };
  return context;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunRolloutRound(
    const GuardedRoundOptions& options) {
  const int64_t round_number = round_count_;
  const std::string round_key = RoundKey(round_number);
  core::JournalContext context = JournalFor(round_number);
  core::JournalContext* journal = ledger_ != nullptr ? &context : nullptr;
  KEA_ASSIGN_OR_RETURN(core::JournaledStep step,
                       core::JournaledStep::Bind(journal));
  KEA_TRACE_SPAN("session.round",
                 {{"kind", step.journaled() ? "durable" : "guarded"},
                  {"round", std::to_string(round_number)}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  GuardedRound round;
  std::optional<core::WhatIfEngine> fresh_engine;

  // --- ROUND_STARTED: journal the fit window and the full plan before any
  // machine is touched. On resume the journaled plan is the authority — the
  // clock has advanced into the rollout, so a refit would see a different
  // window and could propose a different plan.
  auto plan_round = [&]() -> StatusOr<RoundStart> {
    KEA_ASSIGN_OR_RETURN(sim::HourIndex begin,
                         LookbackBegin(options.lookback_hours));
    KEA_ASSIGN_OR_RETURN(core::WhatIfEngine engine,
                         FitOn(begin, now_, options.tuner.whatif));
    YarnConfigTuner tuner(options.tuner);
    KEA_ASSIGN_OR_RETURN(YarnConfigTuner::Plan plan,
                         tuner.ProposeFromEngine(engine, cluster_));
    // A corrupted model never reaches the fleet: any non-finite prediction or
    // recommendation aborts before the first canary machine is touched.
    KEA_RETURN_IF_ERROR(CheckPlanSane(plan));
    fresh_engine = std::move(engine);
    return RoundStart{now_, begin, now_, std::move(plan)};
  };
  KEA_ASSIGN_OR_RETURN(
      RoundStart started,
      step.RunTyped<RoundStart>(core::DeploymentLedger::EventType::kRoundStarted,
                                round_key + "/started", "session.round_started",
                                plan_round));
  const sim::HourIndex start_hour = started.start_hour;
  round.fit_begin = started.fit_begin;
  round.fit_end = started.fit_end;
  round.plan = std::move(started.plan);

  // --- Waves: the rollout drives itself through the same journal,
  // checkpointing after every journaled step. Simulate() must not checkpoint
  // concurrently — a mid-observation checkpoint would claim coverage of a
  // step whose verdict is not yet journaled. During probation (RE-ARMED) the
  // guardrails are tightened; EffectiveGuardrails is the identity while
  // HEALTHY.
  core::GuardrailedRollout::Options rollout_options = options.rollout;
  if (model_health_ != nullptr) {
    rollout_options.guardrails =
        model_health_->EffectiveGuardrails(rollout_options.guardrails);
  }
  core::GuardrailedRollout rollout(rollout_options);
  in_journaled_round_ = true;
  StatusOr<core::GuardrailedRollout::Report> executed = rollout.Execute(
      round.plan.recommendations, &cluster_, &store_, start_hour,
      [this](int hours) { return Simulate(hours); }, journal);
  in_journaled_round_ = false;
  if (!executed.ok()) return executed.status();
  round.rollout = std::move(executed).value();

  // --- ROUND_FINISHED: seal the outcome so the next round gets a new key.
  // The bookkeeping is the step's effect, so the checkpoint covering the
  // step holds the round's completion. It is idempotent and also runs after
  // a replayed step, which has no effect.
  auto finish = [&] {
    round_count_ = round_number + 1;
    RecordFit(round.fit_begin, round.fit_end, options.tuner.whatif,
              start_hour);
    return Status::OK();
  };
  KEA_RETURN_IF_ERROR(
      step.RunTyped<RoundFinished>(
              core::DeploymentLedger::EventType::kRoundFinished,
              round_key + "/finished", "session.round_finished",
              [&] {
                return RoundFinished{round.rollout.outcome,
                                     round.rollout.tripped_wave,
                                     round.rollout.machines_restored};
              },
              [&](const RoundFinished&) { return finish(); })
          .status());
  KEA_RETURN_IF_ERROR(finish());

  if (!fresh_engine.has_value()) {
    // Resumed round: refit over the journaled window. The filter pins the
    // window, so the post-deploy telemetry that has accrued since does not
    // perturb the fit — the engine matches the uninterrupted run's.
    KEA_ASSIGN_OR_RETURN(
        fresh_engine, FitOn(round.fit_begin, round.fit_end,
                            options.tuner.whatif));
  }
  AdoptEngine(std::move(*fresh_engine));
  // kNoChange rollouts never touch a machine; anything else changed the
  // fleet's applied configuration at least transiently.
  if (round.rollout.outcome != core::GuardrailedRollout::Outcome::kNoChange) {
    ++deploy_epoch_;
  }
  FinishRoundHealth(alarms_before, &round);
  // Persist the post-round breaker/residual state; without this a crash
  // here would resume with a pre-round ModelHealth.
  if (setup_.healing_enabled) KEA_RETURN_IF_ERROR(Persist());
  return round;
}

namespace {

obs::Counter* FabricRunsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("session.fabric_runs");
  return c;
}

/// Wires the session's fleet-fault injector into the fabric's per-arm
/// down-hours attribution unless the caller supplied an accessor.
void WireDownHours(const sim::FleetFaultInjector* faults,
                   core::ExperimentFabric::Options* options) {
  if (options->down_hours || faults == nullptr) return;
  options->down_hours = [faults](const std::vector<int>& machine_ids) {
    return faults->DownHours(machine_ids);
  };
}

}  // namespace

StatusOr<core::ExperimentFabric::Report> KeaSession::RunExperimentFabric(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before flighting");
  }
  return Gated(FabricKey(fabric_count_),
               [&] { return RunFabric(requests, options); });
}

StatusOr<core::ExperimentFabric::Report> KeaSession::RunFabric(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  const int64_t fabric_number = fabric_count_;
  const std::string fabric_key = FabricKey(fabric_number);
  core::JournalContext context = JournalFor(fabric_number);
  core::JournalContext* journal = ledger_ != nullptr ? &context : nullptr;
  KEA_ASSIGN_OR_RETURN(core::JournaledStep step,
                       core::JournaledStep::Bind(journal));
  KEA_TRACE_SPAN("session.fabric",
                 {{"kind", step.journaled() ? "durable" : "plain"},
                  {"fabric", std::to_string(fabric_number)},
                  {"requests", std::to_string(requests.size())}});
  FabricRunsCounter()->Increment();

  // --- FABRIC_STARTED: seal the start hour and queue size before any flight
  // is touched. On resume the journaled start hour is the authority — the
  // clock has advanced into the run.
  KEA_ASSIGN_OR_RETURN(
      FabricStarted started,
      step.RunTyped<FabricStarted>(
          core::DeploymentLedger::EventType::kFabricStarted,
          fabric_key + "/started", "session.fabric_started", [&] {
            return FabricStarted{now_, requests.size()};
          }));
  if (started.requests != requests.size()) {
    return Status::FailedPrecondition(
        "resumed fabric run " + std::to_string(fabric_number) + " had " +
        std::to_string(started.requests) + " requests, got " +
        std::to_string(requests.size()) + " — resume must pass the same queue");
  }

  // --- Flights: the fabric drives itself through the same journal under
  // "fab<n>/..." keys, checkpointing after every journaled step. Simulate()
  // must not checkpoint concurrently (same contract as guarded rounds).
  core::ExperimentFabric::Options fabric_options = options.fabric;
  WireDownHours(fleet_faults_.get(), &fabric_options);
  core::ExperimentFabric fabric(fabric_options);
  in_journaled_round_ = true;
  StatusOr<core::ExperimentFabric::Report> executed = fabric.Run(
      requests, &cluster_, &store_, started.start_hour,
      [this](int hours) { return Simulate(hours); }, journal);
  in_journaled_round_ = false;
  if (!executed.ok()) return executed.status();
  core::ExperimentFabric::Report report = std::move(executed).value();

  // --- FABRIC_FINISHED: seal the outcome so the next run gets new keys. As
  // with ROUND_FINISHED, the idempotent bookkeeping is the step's effect and
  // also runs after a replayed step.
  auto finish = [&] {
    fabric_count_ = fabric_number + 1;
    return Status::OK();
  };
  KEA_RETURN_IF_ERROR(
      step.RunTyped<FabricFinished>(
              core::DeploymentLedger::EventType::kFabricFinished,
              fabric_key + "/finished", "session.fabric_finished",
              [&] {
                return FabricFinished{report.admitted,
                                      report.rejected,
                                      report.trips,
                                      report.max_concurrent,
                                      report.peak_flighted_machines,
                                      report.end_hour};
              },
              [&](const FabricFinished&) { return finish(); })
          .status());
  KEA_RETURN_IF_ERROR(finish());
  // Flights patched and restored machine config; anything cached against the
  // previous deploy epoch saw a fleet that no longer exists.
  if (report.admitted > 0) ++deploy_epoch_;
  return report;
}

StatusOr<core::ValidationReport> KeaSession::ValidateModels(
    const core::ModelValidator::Options& options) const {
  if (!has_round_) {
    return Status::FailedPrecondition("no tuning round to validate");
  }
  if (now_ <= last_deploy_hour_) {
    return Status::FailedPrecondition(
        "simulate post-deployment telemetry before validating");
  }
  core::ModelValidator validator(options);
  return validator.Validate(*last_engine_, store_,
                            telemetry::HourRangeFilter(last_deploy_hour_, now_));
}

Status KeaSession::RollbackLastDeployment() {
  return Gated("", [&]() -> Status {
    KEA_RETURN_IF_ERROR(deployment_.RollbackLast(&cluster_));
    // As with an apply, the rollback is the ledger's newest event.
    if (ledger_ != nullptr) durable_seq_ = ledger_->next_seq();
    ++deploy_epoch_;
    return Persist();
  });
}

StatusOr<CapacityConverter::Report> KeaSession::EstimateCapacityValue(
    const CapacityConverter::Options& options) const {
  if (!has_round_) {
    return Status::FailedPrecondition("no tuning round to value");
  }
  if (now_ <= last_deploy_hour_) {
    return Status::FailedPrecondition(
        "simulate post-deployment telemetry before valuation");
  }
  CapacityConverter converter(options);
  return converter.FromWindows(
      store_, telemetry::HourRangeFilter(last_fit_begin_, last_deploy_hour_),
      telemetry::HourRangeFilter(last_deploy_hour_, now_));
}

}  // namespace kea::apps
