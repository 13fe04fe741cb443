#include "core/guardrailed_rollout.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common/crash_point.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {
namespace {

// Deterministic rollout counters: wave/trip/rollback totals are logical
// events (the rollout loop is single-threaded).
obs::Counter* WavesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("rollout.waves");
  return c;
}
obs::Counter* TripsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("rollout.guardrail_trips");
  return c;
}
obs::Counter* RollbacksCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("rollout.rollbacks");
  return c;
}
obs::Counter* MachinesRestoredCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("rollout.machines_restored");
  return c;
}
/// Guardrail metrics of one telemetry window restricted to a machine set.
struct WindowMetrics {
  size_t records = 0;
  double tasks = 0.0;
  double latency_s = 0.0;      ///< Task-weighted mean latency (W-bar).
  double queue_p99_ms = 0.0;
  double utilization = 0.0;    ///< Mean CPU utilization.
  /// Records whose mean task latency exceeded the SLO target (0 when the
  /// SLO guardrail is disabled).
  size_t slo_bad = 0;
};

WindowMetrics Measure(const telemetry::TelemetryStore& store,
                      const std::unordered_set<int>& machine_ids,
                      sim::HourIndex begin, sim::HourIndex end,
                      double slo_target_latency_s = 0.0) {
  WindowMetrics m;
  double weighted_latency = 0.0, util_sum = 0.0;
  std::vector<double> queue_latencies;
  for (const auto& r : store.records()) {
    if (r.hour < begin || r.hour >= end) continue;
    if (!machine_ids.empty() && machine_ids.count(r.machine_id) == 0) continue;
    if (!std::isfinite(r.cpu_utilization) || !std::isfinite(r.avg_task_latency_s) ||
        !std::isfinite(r.tasks_finished) || !std::isfinite(r.queue_latency_ms)) {
      continue;
    }
    ++m.records;
    if (slo_target_latency_s > 0.0 &&
        r.avg_task_latency_s > slo_target_latency_s) {
      ++m.slo_bad;
    }
    m.tasks += r.tasks_finished;
    weighted_latency += r.avg_task_latency_s * r.tasks_finished;
    util_sum += r.cpu_utilization;
    queue_latencies.push_back(r.queue_latency_ms);
  }
  if (m.records == 0) return m;
  m.latency_s = m.tasks > 0.0 ? weighted_latency / m.tasks : 0.0;
  m.utilization = util_sum / static_cast<double>(m.records);
  std::sort(queue_latencies.begin(), queue_latencies.end());
  size_t p99 = static_cast<size_t>(0.99 * static_cast<double>(queue_latencies.size()));
  m.queue_p99_ms = queue_latencies[std::min(p99, queue_latencies.size() - 1)];
  return m;
}

/// Per-group targets through DeploymentModule's own clamp. No-ops are
/// omitted.
std::map<sim::MachineGroupKey, int> ClampTargets(
    const std::vector<GroupRecommendation>& recommendations,
    const DeploymentModule::Options& deploy) {
  std::map<sim::MachineGroupKey, int> targets;
  for (const GroupRecommendation& rec : recommendations) {
    int target = DeploymentModule::ConservativeTarget(rec, deploy);
    if (target != rec.current_max_containers) targets[rec.group] = target;
  }
  return targets;
}

}  // namespace

std::string GuardrailEvaluation::Describe() const {
  if (!measurable) return "guardrails unmeasurable (no usable telemetry)";
  std::string out;
  auto add = [&out](const char* name, bool ok, double base, double observed) {
    out += name;
    out += ok ? " ok (" : " TRIPPED (";
    out += std::to_string(base) + " -> " + std::to_string(observed) + ") ";
  };
  add("latency", latency_ok, baseline_latency_s, observed_latency_s);
  add("queue_p99", queue_ok, baseline_queue_p99_ms, observed_queue_p99_ms);
  add("utilization", utilization_ok, baseline_utilization, observed_utilization);
  if (slo_checked) {
    out += "slo_burn";
    out += slo_ok ? " ok (" : " TRIPPED (";
    out += std::to_string(observed_slo_burn) + ") ";
  }
  return out;
}

GuardrailedRollout::GuardrailedRollout(const Options& options) : options_(options) {}

Status GuardrailedRollout::ValidateOptions() const {
  if (options_.wave_fractions.empty()) {
    return Status::InvalidArgument("rollout needs at least one wave");
  }
  double prev = 0.0;
  for (double f : options_.wave_fractions) {
    if (f <= prev || f > 1.0) {
      return Status::InvalidArgument(
          "wave_fractions must be strictly increasing within (0, 1]");
    }
    prev = f;
  }
  if (options_.observe_hours_per_wave <= 0) {
    return Status::InvalidArgument("observe_hours_per_wave must be positive");
  }
  if (options_.baseline_hours <= 0) {
    return Status::InvalidArgument("baseline_hours must be positive");
  }
  return Status::OK();
}

GuardrailEvaluation EvaluateGuardrails(const telemetry::TelemetryStore& store,
                                       const GuardrailThresholds& t,
                                       const std::vector<int>& machine_ids,
                                       sim::HourIndex baseline_begin,
                                       sim::HourIndex baseline_end,
                                       sim::HourIndex begin, sim::HourIndex end) {
  std::unordered_set<int> ids(machine_ids.begin(), machine_ids.end());
  WindowMetrics baseline = Measure(store, ids, baseline_begin, baseline_end);
  WindowMetrics observed =
      Measure(store, ids, begin, end, t.slo_target_latency_s);

  GuardrailEvaluation eval;
  eval.baseline_latency_s = baseline.latency_s;
  eval.observed_latency_s = observed.latency_s;
  eval.baseline_queue_p99_ms = baseline.queue_p99_ms;
  eval.observed_queue_p99_ms = observed.queue_p99_ms;
  eval.baseline_utilization = baseline.utilization;
  eval.observed_utilization = observed.utilization;

  // Silence is not health: an empty window (all telemetry for the treated
  // machines dropped or quarantined) must trip, never pass.
  eval.measurable = baseline.records > 0 && observed.records > 0;
  if (!eval.measurable) return eval;

  eval.latency_ok =
      baseline.latency_s > 0.0
          ? observed.latency_s <= baseline.latency_s * t.max_latency_ratio
          : true;
  eval.queue_ok = observed.queue_p99_ms <=
                  std::max(baseline.queue_p99_ms * t.max_queue_p99_ratio,
                           t.queue_p99_floor_ms);
  eval.utilization_ok = observed.utilization <= t.max_utilization;
  if (t.slo_target_latency_s > 0.0) {
    // Same burn-rate semantic as obs::SloTracker: fraction of bad
    // observations over the window, divided by the error budget.
    eval.slo_checked = true;
    const double bad_fraction = static_cast<double>(observed.slo_bad) /
                                static_cast<double>(observed.records);
    const double budget = 1.0 - t.slo_objective;
    eval.observed_slo_burn =
        budget > 0.0 ? bad_fraction / budget : (bad_fraction > 0.0 ? 1e9 : 0.0);
    eval.slo_ok = eval.observed_slo_burn <= t.max_slo_burn;
  }
  return eval;
}

void GuardrailedRollout::Restore(const std::vector<MachineSnapshot>& snapshots,
                                 sim::Cluster* cluster) const {
  auto& machines = cluster->mutable_machines();
  for (auto wave = snapshots.rbegin(); wave != snapshots.rend(); ++wave) {
    for (auto entry = wave->rbegin(); entry != wave->rend(); ++entry) {
      machines[static_cast<size_t>(entry->first)].max_containers = entry->second;
    }
  }
}

StatusOr<GuardrailedRollout::Report> GuardrailedRollout::Execute(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx) {
  KEA_ASSIGN_OR_RETURN(JournaledStep step, JournaledStep::Bind(ctx));
  Report report;
  std::vector<MachineSnapshot> snapshots;
  Status run = RunWaves(recommendations, cluster, store, start_hour, advance,
                        step, &report, &snapshots);
  if (!run.ok()) {
    // An injected crash models abrupt process death: leave the world exactly
    // as the dying process would — resume will pick it up from the journal.
    // Real errors restore the in-memory cluster to its entry state.
    if (!CrashPoints::IsCrash(run) && cluster != nullptr) {
      Restore(snapshots, cluster);
    }
    return run;
  }
  return report;
}

Status GuardrailedRollout::RunWaves(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, const JournaledStep& step, Report* report,
    std::vector<MachineSnapshot>* snapshots) {
  KEA_RETURN_IF_ERROR(ValidateOptions());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to roll out");
  }

  std::map<sim::MachineGroupKey, int> targets =
      ClampTargets(recommendations, options_.deploy);
  if (targets.empty()) {
    report->outcome = Outcome::kNoChange;
    return Status::OK();
  }

  int num_sc = cluster->num_subclusters();
  if (num_sc <= 0) return Status::FailedPrecondition("cluster has no sub-clusters");

  std::string rkey = "r";
  rkey += std::to_string(step.round());
  std::vector<int> treated;
  sim::HourIndex now = start_hour;
  sim::HourIndex baseline_begin = std::max(0, start_hour - options_.baseline_hours);

  int next_sc = 0;
  bool tripped = false;
  for (size_t w = 0; w < options_.wave_fractions.size() && !tripped; ++w) {
    const std::string wkey = rkey + "/w" + std::to_string(w);
    KEA_TRACE_SPAN("rollout.wave",
                   {{"wave", std::to_string(w)},
                    {"key", wkey},
                    {"journaled", step.journaled() ? "1" : "0"}});
    WavesCounter()->Increment();
    WaveResult wave;
    wave.wave = static_cast<int>(w);

    // -- WAVE_STARTED: which sub-clusters this wave covers.
    KEA_ASSIGN_OR_RETURN(
        WaveStarted started,
        step.RunTyped<WaveStarted>(
            DeploymentLedger::EventType::kWaveStarted, wkey + "/started",
            "rollout.wave_started", [&] {
              int end_sc = static_cast<int>(std::ceil(
                  options_.wave_fractions[w] * static_cast<double>(num_sc)));
              end_sc = std::clamp(end_sc, next_sc, num_sc);
              if (w + 1 == options_.wave_fractions.size() &&
                  options_.wave_fractions[w] >= 1.0) {
                end_sc = num_sc;
              }
              if (end_sc == next_sc && next_sc < num_sc) end_sc = next_sc + 1;
              WaveStarted fresh;
              fresh.end_sc = end_sc;
              for (int sc = next_sc; sc < end_sc; ++sc) {
                fresh.sub_clusters.push_back(sc);
              }
              return fresh;
            }));
    wave.sub_clusters = std::move(started.sub_clusters);
    next_sc = started.end_sc;
    std::vector<int> wave_machines;
    for (int sc : wave.sub_clusters) {
      std::vector<int> ids = cluster->SubClusterMachines(sc);
      wave_machines.insert(wave_machines.end(), ids.begin(), ids.end());
    }

    // -- WAVE_APPLIED: per-machine (id, old, new) deltas, journaled before
    // the cluster is touched.
    KEA_ASSIGN_OR_RETURN(
        std::vector<WaveDelta> deltas,
        step.RunTyped<std::vector<WaveDelta>>(
            DeploymentLedger::EventType::kWaveApplied, wkey + "/applied",
            "rollout.wave_applied",
            [&] {
              std::vector<WaveDelta> fresh;
              const auto& machines = cluster->machines();
              for (int id : wave_machines) {
                if (id < 0 || static_cast<size_t>(id) >= machines.size()) continue;
                const sim::Machine& m = machines[static_cast<size_t>(id)];
                auto it = targets.find(m.group());
                if (it == targets.end() || m.max_containers == it->second) continue;
                fresh.push_back({id, m.max_containers, it->second});
              }
              return fresh;
            },
            [&](const std::vector<WaveDelta>& applied) -> Status {
              auto& machines = cluster->mutable_machines();
              for (const WaveDelta& d : applied) {
                if (d.machine < 0 ||
                    static_cast<size_t>(d.machine) >= machines.size()) {
                  return Status::OutOfRange("machine id " +
                                            std::to_string(d.machine));
                }
                machines[static_cast<size_t>(d.machine)].max_containers =
                    d.new_max;
              }
              return Status::OK();
            }));
    MachineSnapshot snapshot;
    for (const WaveDelta& d : deltas) snapshot.emplace_back(d.machine, d.old_max);
    wave.machines_changed = snapshot.size();
    if (wave.machines_changed == 0) {
      // No targeted machine in this wave: nothing to observe, trivially safe.
      wave.passed = true;
      report->waves.push_back(std::move(wave));
      continue;
    }
    snapshots->push_back(std::move(snapshot));
    for (const auto& entry : snapshots->back()) treated.push_back(entry.first);

    // -- WAVE_OBSERVED: advance the world through the observation window.
    KEA_ASSIGN_OR_RETURN(
        HourSpan observed,
        step.RunTyped<HourSpan>(
            DeploymentLedger::EventType::kWaveObserved, wkey + "/observed",
            "rollout.wave_observed",
            [&] { return HourSpan{now, now + options_.observe_hours_per_wave}; },
            [&](const HourSpan&) {
              return advance(options_.observe_hours_per_wave);
            }));
    wave.observe_begin = observed.begin;
    wave.observe_end = observed.end;
    now = wave.observe_end;

    // -- WAVE_VERDICT: the guardrail decision, recorded before it is acted
    // on. A resumed round reuses the recorded verdict rather than judging
    // twice (the deterministic re-evaluation would match, but the record is
    // the authority).
    KEA_ASSIGN_OR_RETURN(
        wave.eval,
        step.RunTyped<GuardrailEvaluation>(
            DeploymentLedger::EventType::kWaveVerdict, wkey + "/verdict",
            "rollout.wave_verdict", [&] {
              return EvaluateGuardrails(*store, options_.guardrails, treated,
                                        baseline_begin, start_hour,
                                        wave.observe_begin, wave.observe_end);
            }));
    wave.passed = wave.eval.pass();
    tripped = !wave.passed;
    report->waves.push_back(std::move(wave));

    if (tripped) {
      TripsCounter()->Increment();
      report->tripped_wave = static_cast<int>(w);
      // -- ROLLBACK: restore every applied wave, newest first. The payload is
      // the number of machines restored.
      KEA_ASSIGN_OR_RETURN(
          uint64_t restored,
          step.RunTyped<uint64_t>(
              DeploymentLedger::EventType::kRollback, rkey + "/rollback",
              "rollout.rollback",
              [&] {
                uint64_t total = 0;
                for (const MachineSnapshot& s : *snapshots) total += s.size();
                return total;
              },
              [&](const uint64_t&) {
                Restore(*snapshots, cluster);
                return Status::OK();
              }));
      report->machines_restored = restored;
      RollbacksCounter()->Increment();
      MachinesRestoredCounter()->Increment(restored);
      // The world is back to its entry state; don't restore again on return.
      snapshots->clear();
      report->outcome = Outcome::kRolledBack;
      return Status::OK();
    }
  }

  report->outcome = Outcome::kConverged;
  return Status::OK();
}

}  // namespace kea::core
