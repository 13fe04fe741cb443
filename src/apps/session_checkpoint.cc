// The session checkpoint: one wire layout per section (see
// common/snapshot.h) and the table of component sections. session.cc holds
// the drivers that decide when a checkpoint is written or resumed.

#include "apps/session_checkpoint.h"

#include <functional>
#include <map>
#include <utility>

#include "apps/session.h"
#include "common/snapshot.h"

namespace kea {

template <class Io>
void Transfer(Io& io, RetryPolicy::Options& o) {
  io(o.max_attempts, o.initial_backoff_ms, o.backoff_multiplier,
     o.max_backoff_ms, o.jitter, o.seed);
}

}  // namespace kea

namespace kea::sim {

template <class Io>
void Transfer(Io& io, PerfModel::Params& p) {
  io(p.cores_per_container, p.task_cpu_work, p.task_input_mb, p.task_temp_mb,
     p.interference, p.feature_speed_boost, p.feature_power_discount,
     p.power_elasticity, p.power_util_exponent, p.ssd_base_gb,
     p.ssd_gb_per_core_mean, p.ssd_gb_per_core_stddev, p.ram_base_gb,
     p.ram_gb_per_core_mean, p.ram_gb_per_core_stddev, p.nic_base_mbps,
     p.nic_mbps_per_core_mean, p.nic_mbps_per_core_stddev);
}

template <class Io>
void Transfer(Io& io, TaskType& t) {
  io(t.name, t.cpu_work_multiplier, t.input_mb_multiplier,
     t.temp_mb_multiplier, t.weight);
}

template <class Io>
void Transfer(Io& io, WorkloadSpec& w) {
  io(w.base_demand_fraction, w.diurnal_amplitude, w.peak_hour,
     w.weekend_factor, w.demand_noise_sigma, w.weekly_growth, w.task_types);
}

template <class Io>
void Transfer(Io& io, ClusterSpec& c) {
  io(c.total_machines, c.machines_per_rack, c.sku_fractions,
     c.baseline_max_containers, c.baseline_max_queued, c.sc2_fraction,
     c.racks_per_subcluster);
}

template <class Io>
void Transfer(Io& io, FluidEngine::Options& o) {
  io(o.seed, o.placement_noise_sigma, o.utilization_noise,
     o.latency_noise_sigma, o.data_noise_sigma, o.redistribution_rounds,
     o.failure_rate_per_hour, o.mean_repair_hours);
}

template <class Io>
void Transfer(Io& io, FaultProfile& f) {
  io(f.drop_rate, f.duplicate_rate, f.non_finite_rate, f.out_of_range_rate,
     f.outlier_rate, f.outlier_scale, f.stuck_machine_fraction, f.late_rate,
     f.max_late_hours, f.transient_error_rate);
}

template <class Io>
void Transfer(Io& io, FleetFaultProfile& f) {
  io(f.crash_rate_per_hour, f.mean_repair_hours, f.rack_outage_rate_per_hour,
     f.mean_rack_outage_hours, f.degrade_rate_per_hour, f.degrade_severity,
     f.recovery_per_hour, f.permanent_loss_rate_per_hour);
}

/// A machine's applied configuration: the "cluster" section element. Its
/// identity (id, rack, SKU) is rebuilt from the cluster spec, not stored, so
/// a machine decodes over the rebuilt one.
template <class Io>
void Transfer(Io& io, Machine& m) {
  io(m.sc, m.max_containers, m.max_queued_containers, m.power_cap_fraction,
     m.feature_enabled);
}

}  // namespace kea::sim

namespace kea::telemetry {

template <class Io>
void Transfer(Io& io, IngestionPipeline::Options& o) {
  io(o.validate, o.deduplicate, o.max_lateness_hours, o.stuck_run_threshold,
     o.retry);
}

}  // namespace kea::telemetry

namespace kea::ml {

template <class Io>
void Transfer(Io& io, PageHinkleyDetector::Options& o) {
  io(o.delta, o.lambda, o.warmup, o.min_stddev, o.max_z);
}

}  // namespace kea::ml

namespace kea::core {

template <class Io>
void Transfer(Io& io, ModelHealth::Options& o) {
  io(o.residual_tolerance, o.residual_inflation, o.min_baseline_error,
     o.refit_delay_hours, o.refit_lookback_hours, o.holdout_hours,
     o.validation_tolerance, o.probation_rounds, o.probation_margin_scale);
}

}  // namespace kea::core

namespace kea::apps {

template <class Io>
void Transfer(Io& io, KeaSession::Config& c) {
  io(c.machines, c.seed, c.perf_params, c.workload, c.cluster, c.engine);
}

template <class Io>
void Transfer(Io& io, KeaSession::IngestionConfig& c) {
  io(c.faults, c.pipeline, c.seed);
}

template <class Io>
void Transfer(Io& io, KeaSession::FleetChaosConfig& c) {
  io(c.profile, c.seed);
}

/// Only the drift detector's Page-Hinkley knobs and staleness horizon are
/// configurable through a session; its seasonal period is fixed.
template <class Io>
void Transfer(Io& io, KeaSession::SelfHealingConfig& c) {
  io(c.drift.page_hinkley, c.drift.staleness_hours, c.health);
}

template <class Io>
void Transfer(Io& io, KeaSession::Setup& s) {
  io(s.config, s.ingestion_enabled, s.ingestion, s.chaos_enabled, s.chaos,
     s.healing_enabled, s.healing);
}

template <class Io>
void KeaSession::TransferMeta(Io& io) {
  io(durable_seq_, now_, has_round_, last_fit_begin_, last_fit_end_,
     last_deploy_hour_, round_count_, last_whatif_options_.regressor,
     last_whatif_options_.min_observations, last_whatif_options_.num_threads,
     model_epoch_, deploy_epoch_, fabric_count_, keep_generations_);
}

struct KeaSession::CheckpointSection {
  const char* name;
  /// What creates the component, for errors; null when it always exists.
  const char* config;
  std::function<bool(KeaSession&)> present;
  std::function<std::string(KeaSession&)> serialize;
  std::function<Status(KeaSession&, const std::string&)> restore;
};

const std::vector<KeaSession::CheckpointSection>&
KeaSession::CheckpointSections() {
  // `component` maps a session to the component, or null while its config is
  // not enabled.
  auto section = [](const char* name, const char* config, auto component) {
    return CheckpointSection{
        name, config,
        [component](KeaSession& s) { return component(s) != nullptr; },
        [component](KeaSession& s) { return component(s)->SerializeState(); },
        [component](KeaSession& s, const std::string& blob) {
          return component(s)->RestoreState(blob);
        }};
  };
  static const std::vector<CheckpointSection> sections = {
      section("engine", nullptr, [](KeaSession& s) { return s.engine_.get(); }),
      section("deployment", nullptr,
              [](KeaSession& s) { return &s.deployment_; }),
      section("ingestion", "ingestion",
              [](KeaSession& s) { return s.ingestion_.get(); }),
      section("fault_injector", "fault profile",
              [](KeaSession& s) { return s.fault_injector_.get(); }),
      section("fleet_faults", "fleet-chaos",
              [](KeaSession& s) { return s.fleet_faults_.get(); }),
      section("drift", "self-healing",
              [](KeaSession& s) { return s.drift_.get(); }),
      section("model_health", "self-healing",
              [](KeaSession& s) { return s.model_health_.get(); }),
  };
  return sections;
}

SnapshotWriter KeaSession::BuildCheckpoint() {
  SnapshotWriter snapshot;
  StateWriter meta;
  TransferMeta(meta);
  snapshot.AddSection("meta", meta.Release());
  snapshot.AddSection("config", EncodeState(setup_));
  // Telemetry is append-only, so each checkpoint encodes only the rows
  // appended since the previous one; the bytes equal store_.ToCsv().
  snapshot.AddSection("telemetry", store_.EncodedCsv());
  snapshot.AddSection("cluster", EncodeState(cluster_.machines()));
  for (const CheckpointSection& section : CheckpointSections()) {
    if (section.present(*this)) {
      snapshot.AddSection(section.name, section.serialize(*this));
    }
  }
  return snapshot;
}

StatusOr<uint64_t> KeaSession::CheckpointCoverage(
    const SnapshotReader& snapshot) {
  KEA_ASSIGN_OR_RETURN(std::string blob, snapshot.Section("meta"));
  // durable_seq_ leads the meta layout (TransferMeta).
  uint64_t covered = 0;
  StateReader meta(blob);
  meta(covered);
  KEA_RETURN_IF_ERROR(meta.status());
  return covered;
}

StatusOr<std::unique_ptr<KeaSession>> KeaSession::FromCheckpoint(
    const SnapshotReader& snapshot) {
  KEA_ASSIGN_OR_RETURN(std::string blob, snapshot.Section("config"));
  Setup setup;
  KEA_RETURN_IF_ERROR(DecodeState(blob, &setup));
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<KeaSession> session,
                       Create(setup.config));
  if (setup.ingestion_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableIngestionPipeline(setup.ingestion));
  }
  if (setup.chaos_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableFleetChaos(setup.chaos));
  }
  if (setup.healing_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableSelfHealing(setup.healing));
  }

  // The session under construction is the temporary: any error below
  // discards it whole.
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("meta"));
  StateReader meta(blob);
  session->TransferMeta(meta);
  KEA_RETURN_IF_ERROR(meta.Finish());

  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("telemetry"));
  KEA_ASSIGN_OR_RETURN(session->store_,
                       telemetry::TelemetryStore::FromCsv(blob));

  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("cluster"));
  std::vector<sim::Machine>& live = session->cluster_.mutable_machines();
  std::vector<sim::Machine> machines = live;
  KEA_RETURN_IF_ERROR(DecodeState(blob, &machines));
  if (machines.size() != live.size()) {
    return Status::InvalidArgument(
        "checkpoint cluster size does not match the rebuilt fleet");
  }
  // SetSoftwareConfig rebuilds the group index; only drifted machines need it.
  std::map<int, std::vector<int>> ids_by_sc;
  for (size_t i = 0; i < live.size(); ++i) {
    if (machines[i].sc != live[i].sc) {
      ids_by_sc[machines[i].sc].push_back(live[i].id);
      machines[i].sc = live[i].sc;
    }
    live[i] = machines[i];
  }
  for (const auto& [sc, ids] : ids_by_sc) {
    KEA_RETURN_IF_ERROR(session->cluster_.SetSoftwareConfig(ids, sc));
  }

  for (const CheckpointSection& section : CheckpointSections()) {
    const bool present = section.present(*session);
    if (!snapshot.Has(section.name)) {
      if (!present) continue;
      return Status::InvalidArgument(std::string("checkpoint lacks the ") +
                                     section.name + " section");
    }
    if (!present) {
      return Status::InvalidArgument(std::string("checkpoint has ") +
                                     section.name + " state but no " +
                                     section.config + " config");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section(section.name));
    KEA_RETURN_IF_ERROR(section.restore(*session, blob));
  }
  return session;
}

}  // namespace kea::apps
