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
obs::Gauge* DurabilityModeGauge() {
  static obs::Gauge* g = obs::Registry::Get().GetGauge("durability.mode");
  return g;
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

Status DegradedRefusal(const Status& reason) {
  return Status::FailedPrecondition(
      "degraded durability: deployments refused until the storage plane "
      "heals (" + reason.message() + "); call TryRestoreDurability");
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
    now_ += hours;
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
    now_ += hours;
  }
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
  // control-plane actions loses no telemetry. Inside a journaled round the
  // per-step checkpoints (which also cover the step's ledger event) own this.
  if (ledger_ != nullptr && !in_journaled_round_) {
    if (durability_mode_ == DurabilityMode::kDegraded) {
      // Auto-probe: a healed disk re-checkpoints here (covering this call's
      // telemetry); a still-broken one keeps the session degraded. Either
      // way the simulation itself succeeded.
      (void)TryRestoreDurability();
    } else {
      Status written = WriteCheckpoint(ledger_->next_seq());
      if (!written.ok()) {
        // Injected crashes (kAborted) and logic errors propagate; a storage
        // plane failure degrades the session instead of losing the tick.
        if (!IsStorageFailure(written)) return written;
        EnterDegradedMode(written);
      }
    }
  }
  return Status::OK();
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
  Status written = WriteCheckpoint(ledger_->next_seq());
  if (!written.ok()) {
    deployment_.AttachLedger(nullptr);
    ledger_.reset();
    durability_dir_.clear();
    return written;
  }
  durability_mode_ = DurabilityMode::kDurable;
  DurabilityModeGauge()->Set(1);
  return Status::OK();
}

Status KeaSession::Checkpoint() {
  if (ledger_ == nullptr) {
    return Status::FailedPrecondition(
        "EnableDurability must be called before Checkpoint");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return Status::FailedPrecondition(
        "degraded durability (" + degraded_reason_.message() +
        "); call TryRestoreDurability before checkpointing");
  }
  return WriteCheckpoint(ledger_->next_seq());
}

void KeaSession::EnterDegradedMode(const Status& reason) {
  if (durability_mode_ == DurabilityMode::kDegraded) return;
  durability_mode_ = DurabilityMode::kDegraded;
  degraded_reason_ = reason;
  DegradedEntriesCounter()->Increment();
  DurabilityModeGauge()->Set(2);
}

Status KeaSession::TryRestoreDurability() {
  if (durability_mode_ != DurabilityMode::kDegraded) {
    return Status::FailedPrecondition(
        "session is not in degraded-durability mode");
  }
  // In-memory progress is the authority: every event this session
  // acknowledged reached the in-memory ledger, so the rebuilt plane must
  // cover at least that much — a disk that lost acknowledged events is
  // refused rather than silently rewound (never fabricate state).
  const uint64_t covered = ledger_->next_seq();
  StatusOr<std::unique_ptr<core::DeploymentLedger>> reopened =
      core::DeploymentLedger::Open(durability_dir_ + kLedgerFile);
  if (!reopened.ok()) return reopened.status();
  if (reopened.value()->next_seq() < covered) {
    return Status::Internal(
        "ledger on disk holds " +
        std::to_string(reopened.value()->next_seq()) +
        " events but the session acknowledged " + std::to_string(covered) +
        " — refusing to restore a plane that lost acknowledged events");
  }
  // Orphan disk events (appends that persisted but were reported failed)
  // have seq >= covered, so the checkpoint below leaves them in the
  // re-drive region: the next round replays their recorded payloads with
  // the idempotency keys guaranteeing exactly-once effects.
  ledger_ = std::move(reopened).value();
  deployment_.AttachLedger(ledger_.get());
  Status written = WriteCheckpoint(covered);
  if (!written.ok()) {
    if (IsStorageFailure(written)) degraded_reason_ = written;
    return written;
  }
  durability_mode_ = DurabilityMode::kDurable;
  degraded_reason_ = Status::OK();
  DegradedRestoresCounter()->Increment();
  DurabilityModeGauge()->Set(1);
  return Status::OK();
}

Status KeaSession::WriteCheckpoint(uint64_t covered_seq) {
  KEA_RETURN_IF_ERROR(SnapshotGenerations::Write(
      BuildCheckpoint(covered_seq), durability_dir_ + kCheckpointFile,
      keep_generations_));
  if (covered_seq > durable_seq_) durable_seq_ = covered_seq;
  return Status::OK();
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
  session->durability_mode_ = DurabilityMode::kDurable;
  session->resume_generations_discarded_ = restored.discarded;
  DurabilityModeGauge()->Set(1);

  // Rebuild the validation engine for a completed round: the fit window and
  // options are checkpointed, the fit itself is deterministic, so the refit
  // matches the engine the crashed process held.
  if (session->has_round_ &&
      session->last_fit_end_ > session->last_fit_begin_) {
    KEA_ASSIGN_OR_RETURN(
        core::WhatIfEngine engine,
        core::WhatIfEngine::Fit(session->store_,
                                telemetry::HourRangeFilter(
                                    session->last_fit_begin_,
                                    session->last_fit_end_),
                                session->last_whatif_options_));
    session->last_engine_ =
        std::make_unique<core::WhatIfEngine>(std::move(engine));
  }
  return session;
}

Status KeaSession::FitWhatIfEngine(const core::WhatIfEngine::Options& options,
                                   int lookback_hours) {
  if (lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before fitting");
  }
  KEA_TRACE_SPAN("session.fit_whatif",
                 {{"lookback_hours", std::to_string(lookback_hours)}});
  sim::HourIndex begin = std::max(0, now_ - lookback_hours);
  KEA_ASSIGN_OR_RETURN(
      core::WhatIfEngine engine,
      core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                              options));
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  last_fit_begin_ = begin;
  last_fit_end_ = now_;
  last_whatif_options_ = options;
  ++model_epoch_;
  // Fitting is a model operation, not a deployment: in degraded mode it
  // still runs, it just cannot persist.
  if (ledger_ != nullptr && !in_journaled_round_ &&
      durability_mode_ != DurabilityMode::kDegraded) {
    Status written = WriteCheckpoint(ledger_->next_seq());
    if (!written.ok()) {
      if (!IsStorageFailure(written)) return written;
      EnterDegradedMode(written);
    }
  }
  return Status::OK();
}

StatusOr<KeaSession::TuningRound> KeaSession::RunYarnTuningRound(
    const YarnConfigTuner::Options& options, int lookback_hours,
    int deploy_max_step) {
  if (lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before tuning");
  }
  if (model_health_ != nullptr && model_health_->in_safe_mode()) {
    return Status::FailedPrecondition(
        "model-health breaker is open; deployments refused "
        "(use RunGuardedTuningRound to drive the refit cycle)");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  KEA_TRACE_SPAN("session.round", {{"kind", "yarn"},
                                   {"lookback_hours",
                                    std::to_string(lookback_hours)}});
  RoundsCounter()->Increment();
  sim::HourIndex begin = std::max(0, now_ - lookback_hours);

  KEA_ASSIGN_OR_RETURN(
      core::WhatIfEngine engine,
      core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                              options.whatif));
  YarnConfigTuner tuner(options);
  TuningRound round;
  KEA_ASSIGN_OR_RETURN(round.plan, tuner.ProposeFromEngine(engine, cluster_));
  round.fit_begin = begin;
  round.fit_end = now_;

  core::DeploymentModule::Options deploy_options;
  deploy_options.max_step = deploy_max_step;
  // Replacing the module must not reset its history or its ledger-key
  // counters — a restarted counter would reuse idempotency keys and make a
  // genuinely new apply look like a replayed one.
  std::string module_state = deployment_.SerializeState();
  deployment_ = core::DeploymentModule(deploy_options);
  KEA_RETURN_IF_ERROR(deployment_.RestoreState(module_state));
  if (ledger_ != nullptr) deployment_.AttachLedger(ledger_.get());
  StatusOr<std::vector<core::AppliedChange>> applied =
      deployment_.ApplyConservatively(round.plan.recommendations, &cluster_);
  if (!applied.ok()) {
    // Write-ahead discipline: a failed journal append touched no machine.
    // Storage failures flip the session to degraded so later rounds are
    // refused instead of repeatedly hammering a dead disk.
    if (IsStorageFailure(applied.status())) EnterDegradedMode(applied.status());
    return applied.status();
  }
  round.applied = std::move(applied).value();

  has_round_ = true;
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  last_fit_begin_ = begin;
  last_fit_end_ = now_;
  last_deploy_hour_ = now_;
  last_whatif_options_ = options.whatif;
  ++model_epoch_;
  if (!round.applied.empty()) ++deploy_epoch_;
  if (ledger_ != nullptr) {
    Status written = WriteCheckpoint(ledger_->next_seq());
    if (!written.ok()) {
      // The applies are already journaled; only their checkpoint is missing,
      // which resume's re-drive repairs. Degrade rather than fail the round.
      if (!IsStorageFailure(written)) return written;
      EnterDegradedMode(written);
    }
  }
  return round;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunGuardedTuningRound(
    const GuardedRoundOptions& options) {
  // The durability breaker outranks everything: a degraded storage plane
  // refuses any round (even safe-mode rounds persist breaker state).
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  // While the breaker is open the session holds the last known-good config
  // and only drives the refit cycle.
  StatusOr<GuardedRound> round =
      model_health_ != nullptr && model_health_->in_safe_mode()
          ? RunSafeModeRound(options)
          : RunRolloutRound(options);
  if (!round.ok() && IsStorageFailure(round.status())) {
    // Journaled steps that already ran are on disk (or re-drivable); degrade
    // so nothing further reaches the fleet until the plane heals.
    EnterDegradedMode(round.status());
  }
  return round;
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
  if (ledger_ != nullptr) {
    // Safe-mode rounds deploy nothing, but a passed refit moved the fit
    // window and breaker state — persist them.
    KEA_RETURN_IF_ERROR(WriteCheckpoint(ledger_->next_seq()));
  }
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

  StatusOr<core::WhatIfEngine> fitted = core::WhatIfEngine::Fit(
      store_, telemetry::HourRangeFilter(fit_begin, holdout_begin),
      options.tuner.whatif);
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
  last_engine_ =
      std::make_unique<core::WhatIfEngine>(std::move(fitted).value());
  has_round_ = true;
  last_fit_begin_ = fit_begin;
  last_fit_end_ = holdout_begin;
  last_deploy_hour_ = holdout_begin;
  last_whatif_options_ = options.tuner.whatif;
  ++model_epoch_;
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
    return WriteCheckpoint(covered_seq);
  };
  return context;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunRolloutRound(
    const GuardedRoundOptions& options) {
  const int64_t round_number = round_count_;
  const std::string round_key = "round/" + std::to_string(round_number);
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
  std::unique_ptr<core::WhatIfEngine> fresh_engine;

  // --- ROUND_STARTED: journal the fit window and the full plan before any
  // machine is touched. On resume the journaled plan is the authority — the
  // clock has advanced into the rollout, so a refit would see a different
  // window and could propose a different plan.
  auto plan_round = [&]() -> StatusOr<RoundStart> {
    if (options.lookback_hours <= 0) {
      return Status::InvalidArgument("lookback_hours must be positive");
    }
    if (now_ == 0) {
      return Status::FailedPrecondition("simulate telemetry before tuning");
    }
    sim::HourIndex begin = std::max(0, now_ - options.lookback_hours);
    KEA_ASSIGN_OR_RETURN(
        core::WhatIfEngine engine,
        core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                                options.tuner.whatif));
    YarnConfigTuner tuner(options.tuner);
    KEA_ASSIGN_OR_RETURN(YarnConfigTuner::Plan plan,
                         tuner.ProposeFromEngine(engine, cluster_));
    // A corrupted model never reaches the fleet: any non-finite prediction or
    // recommendation aborts before the first canary machine is touched.
    KEA_RETURN_IF_ERROR(CheckPlanSane(plan));
    fresh_engine = std::make_unique<core::WhatIfEngine>(std::move(engine));
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
    has_round_ = true;
    last_fit_begin_ = round.fit_begin;
    last_fit_end_ = round.fit_end;
    last_deploy_hour_ = start_hour;
    last_whatif_options_ = options.tuner.whatif;
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

  ++model_epoch_;
  // kNoChange rollouts never touch a machine; anything else changed the
  // fleet's applied configuration at least transiently.
  if (round.rollout.outcome != core::GuardrailedRollout::Outcome::kNoChange) {
    ++deploy_epoch_;
  }
  if (fresh_engine != nullptr) {
    last_engine_ = std::move(fresh_engine);
  } else {
    // Resumed round: refit over the journaled window. The filter pins the
    // window, so the post-deploy telemetry that has accrued since does not
    // perturb the fit — the engine matches the uninterrupted run's.
    KEA_ASSIGN_OR_RETURN(
        core::WhatIfEngine engine,
        core::WhatIfEngine::Fit(
            store_,
            telemetry::HourRangeFilter(round.fit_begin, round.fit_end),
            options.tuner.whatif));
    last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  }
  FinishRoundHealth(alarms_before, &round);
  if (step.journaled() && setup_.healing_enabled) {
    // Persist the post-round breaker/residual state; without this a crash
    // here would resume with a pre-round ModelHealth.
    KEA_RETURN_IF_ERROR(WriteCheckpoint(ledger_->next_seq()));
  }
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
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  StatusOr<core::ExperimentFabric::Report> report = RunFabric(requests, options);
  if (!report.ok() && IsStorageFailure(report.status())) {
    EnterDegradedMode(report.status());
  }
  return report;
}

StatusOr<core::ExperimentFabric::Report> KeaSession::RunFabric(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  const int64_t fabric_number = fabric_count_;
  const std::string fabric_key = "fab/" + std::to_string(fabric_number);
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
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  KEA_RETURN_IF_ERROR(deployment_.RollbackLast(&cluster_));
  ++deploy_epoch_;
  if (ledger_ != nullptr && !in_journaled_round_) {
    Status written = WriteCheckpoint(ledger_->next_seq());
    if (!written.ok()) {
      if (!IsStorageFailure(written)) return written;
      // The rollback is journaled; only its checkpoint is missing.
      EnterDegradedMode(written);
    }
  }
  return Status::OK();
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
