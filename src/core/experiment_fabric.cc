#include "core/experiment_fabric.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "common/snapshot.h"
#include "common/thread_pool.h"
#include "core/deployment_ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {
namespace {

obs::Counter* AdmittedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_admitted");
  return c;
}
obs::Counter* RejectedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_rejected");
  return c;
}
obs::Counter* DeferralsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("fabric.deferrals");
  return c;
}
obs::Counter* TripsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.guardrail_trips");
  return c;
}
obs::Counter* RollbacksCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("fabric.rollbacks");
  return c;
}
obs::Counter* ConcludedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("fabric.flights_concluded");
  return c;
}
/// Pre-flight value of every config field a patch can touch, per machine.
/// Journaled in FLIGHT_STARTED so rollback restores bit-exact state from the
/// record even across a crash.
struct Prior {
  int id = 0;
  int old_max = 0;
  int new_max = 0;  ///< Post-patch value (for the applied-changes audit CSV).
  double power = 1.0;
  bool feature = false;
  int sc = 0;
};

/// A flight's rack/machine reservation. Held until the *planned* horizon ends
/// even after a trip — post-rollback carryover on those machines must not
/// contaminate a newly admitted experiment.
struct Reservation {
  std::set<int> racks;
  std::unordered_set<int> machines;
  sim::HourIndex planned_end = 0;
  bool running = false;  ///< Patch applied and not yet concluded/rolled back.
  size_t flighted = 0;   ///< Both arms' machine count (blast-radius units).
};

struct FlightState {
  size_t index = 0;
  const FlightRequest* req = nullptr;
  ExperimentFabric::FlightConclusion conclusion;
  std::vector<Prior> priors;
  uint64_t start_treatment_down = 0;
  uint64_t start_control_down = 0;
  sim::HourIndex planned_end = 0;
  int windows_done = 0;
  bool running = false;
  bool finished = false;
};

/// Candidate partition for one request, or the typed reason it is blocked.
struct Assignment {
  std::vector<int> racks;
  std::vector<int> treatment;
  std::vector<int> control;
  InterferenceReason blocked = InterferenceReason::kNone;
};

/// Splits `pool` (machines of one rack, in id order) across the arms by
/// interleaving — "every other machine in the same rack" (Section 7.1) — so
/// rack-local workload and rack outages land on both arms symmetrically.
void InterleaveRack(const std::vector<const sim::Machine*>& pool,
                    Assignment* a) {
  for (size_t i = 0; i < pool.size(); ++i) {
    ((i % 2 == 0) ? a->control : a->treatment).push_back(pool[i]->id);
  }
}

/// Trims both arms to exactly `per_arm` and the rack list to racks actually
/// used by a surviving machine.
void TrimAssignment(const sim::Cluster& cluster, int per_arm, Assignment* a) {
  a->control.resize(static_cast<size_t>(per_arm));
  a->treatment.resize(static_cast<size_t>(per_arm));
  std::set<int> used;
  const auto& machines = cluster.machines();
  for (int id : a->control) used.insert(machines[static_cast<size_t>(id)].rack);
  for (int id : a->treatment)
    used.insert(machines[static_cast<size_t>(id)].rack);
  a->racks.assign(used.begin(), used.end());
}

/// Builds a partition from free whole racks of the request's SKU (racks are
/// SKU-homogeneous by construction). With `ignore_reserved` the partition is
/// attempted as if the fabric were idle — used to tell a temporary conflict
/// (defer) from a fleet that can never field the experiment (reject).
Assignment AssignFromRacks(const sim::Cluster& cluster,
                           const FlightRequest& req,
                           const std::set<int>& reserved_racks,
                           bool ignore_reserved) {
  Assignment a;
  std::map<int, std::vector<const sim::Machine*>> by_rack;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku == req.sku) by_rack[m.rack].push_back(&m);
  }
  for (const auto& [rack, pool] : by_rack) {
    if (!ignore_reserved && reserved_racks.count(rack) > 0) continue;
    a.racks.push_back(rack);
    InterleaveRack(pool, &a);
    if (static_cast<int>(a.control.size()) >= req.machines_per_arm &&
        static_cast<int>(a.treatment.size()) >= req.machines_per_arm) {
      break;
    }
  }
  if (static_cast<int>(a.control.size()) < req.machines_per_arm ||
      static_cast<int>(a.treatment.size()) < req.machines_per_arm) {
    a.blocked = InterferenceReason::kInsufficientMachines;
    return a;
  }
  TrimAssignment(cluster, req.machines_per_arm, &a);
  return a;
}

/// Builds a partition from an explicitly pinned machine pool, checking it
/// against the active reservations (shared machines beat shared racks as the
/// reported reason — they are the more direct interference).
Assignment AssignPinned(const sim::Cluster& cluster, const FlightRequest& req,
                        const std::set<int>& reserved_racks,
                        const std::unordered_set<int>& reserved_machines,
                        bool ignore_reserved) {
  Assignment a;
  const auto& machines = cluster.machines();
  if (!ignore_reserved) {
    for (int id : req.pinned_machines) {
      if (reserved_machines.count(id) > 0) {
        a.blocked = InterferenceReason::kSharedMachines;
        return a;
      }
    }
    for (int id : req.pinned_machines) {
      if (reserved_racks.count(machines[static_cast<size_t>(id)].rack) > 0) {
        a.blocked = InterferenceReason::kSharedRack;
        return a;
      }
    }
  }
  std::map<int, std::vector<const sim::Machine*>> by_rack;
  for (int id : req.pinned_machines) {
    const sim::Machine& m = machines[static_cast<size_t>(id)];
    by_rack[m.rack].push_back(&m);
  }
  for (auto& [rack, pool] : by_rack) {
    std::sort(pool.begin(), pool.end(),
              [](const sim::Machine* x, const sim::Machine* y) {
                return x->id < y->id;
              });
    a.racks.push_back(rack);
    InterleaveRack(pool, &a);
  }
  if (static_cast<int>(a.control.size()) < req.machines_per_arm ||
      static_cast<int>(a.treatment.size()) < req.machines_per_arm) {
    a.blocked = InterferenceReason::kInsufficientMachines;
    return a;
  }
  TrimAssignment(cluster, req.machines_per_arm, &a);
  return a;
}

Status RestorePriors(const std::vector<Prior>& priors, sim::Cluster* cluster) {
  auto& machines = cluster->mutable_machines();
  for (const Prior& p : priors) {
    if (p.id < 0 || static_cast<size_t>(p.id) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(p.id));
    }
    sim::Machine& m = machines[static_cast<size_t>(p.id)];
    m.max_containers = p.old_max;
    m.power_cap_fraction = p.power;
    m.feature_enabled = p.feature;
    if (m.sc != p.sc) {
      KEA_RETURN_IF_ERROR(cluster->SetSoftwareConfig({p.id}, p.sc));
    }
  }
  return Status::OK();
}

void PutIntVec(StateWriter* w, const std::vector<int>& v) {
  w->PutU64(v.size());
  for (int x : v) w->PutInt(x);
}

Status GetIntVec(StateReader* r, std::vector<int>* v) {
  uint64_t n = 0;
  KEA_RETURN_IF_ERROR(r->GetU64(&n));
  v->assign(n, 0);
  for (uint64_t i = 0; i < n; ++i) KEA_RETURN_IF_ERROR(r->GetInt(&(*v)[i]));
  return Status::OK();
}

void PutEffect(StateWriter* w, const TreatmentEffect& e) {
  w->PutString(e.metric);
  w->PutDouble(e.control_mean);
  w->PutDouble(e.treatment_mean);
  w->PutDouble(e.percent_change);
  w->PutDouble(e.t_value);
  w->PutDouble(e.p_value);
  w->PutBool(e.significant);
}

Status GetEffect(StateReader* r, TreatmentEffect* e) {
  KEA_RETURN_IF_ERROR(r->GetString(&e->metric));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->control_mean));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->treatment_mean));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->percent_change));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->t_value));
  KEA_RETURN_IF_ERROR(r->GetDouble(&e->p_value));
  KEA_RETURN_IF_ERROR(r->GetBool(&e->significant));
  return Status::OK();
}

/// Fills the effect estimates of a conclusion whose window and arms are set:
/// per machine-hour data read and task latency over [start, end), task-bearing
/// finite records only (machine-hours silenced by chaos simply drop out).
void EstimateEffects(const telemetry::TelemetryStore& store,
                     ExperimentFabric::FlightConclusion* c) {
  std::unordered_set<int> treat(c->treatment_machines.begin(),
                                c->treatment_machines.end());
  std::unordered_set<int> ctrl(c->control_machines.begin(),
                               c->control_machines.end());
  std::vector<double> t_data, c_data, t_lat, c_lat;
  for (const auto& r : store.records()) {
    if (r.hour < c->start_hour || r.hour >= c->end_hour) continue;
    if (!std::isfinite(r.data_read_mb) || !std::isfinite(r.avg_task_latency_s) ||
        !std::isfinite(r.tasks_finished) || r.tasks_finished <= 0.0) {
      continue;
    }
    if (treat.count(r.machine_id) > 0) {
      t_data.push_back(r.data_read_mb);
      t_lat.push_back(r.avg_task_latency_s);
    } else if (ctrl.count(r.machine_id) > 0) {
      c_data.push_back(r.data_read_mb);
      c_lat.push_back(r.avg_task_latency_s);
    }
  }
  StatusOr<TreatmentEffect> data =
      EstimateTreatmentEffect("data_read_mb", c_data, t_data);
  StatusOr<TreatmentEffect> latency =
      EstimateTreatmentEffect("avg_task_latency_s", c_lat, t_lat);
  c->effect_ok = data.ok() && latency.ok();
  if (data.ok()) {
    c->data_read = std::move(data).value();
    // 95% CI of the percent change, from the t statistic (se = diff / t).
    double half = std::abs(c->data_read.t_value) > 1e-12
                      ? 1.96 * std::abs(c->data_read.percent_change /
                                        c->data_read.t_value)
                      : 1.0;
    c->data_read_ci_low = c->data_read.percent_change - half;
    c->data_read_ci_high = c->data_read.percent_change + half;
  }
  if (latency.ok()) c->task_latency = std::move(latency).value();
}

}  // namespace

const char* InterferenceReasonToString(InterferenceReason reason) {
  switch (reason) {
    case InterferenceReason::kNone:
      return "NONE";
    case InterferenceReason::kSharedMachines:
      return "SHARED_MACHINES";
    case InterferenceReason::kSharedRack:
      return "SHARED_RACK";
    case InterferenceReason::kKnobInteraction:
      return "KNOB_INTERACTION";
    case InterferenceReason::kBlastRadiusBudget:
      return "BLAST_RADIUS_BUDGET";
    case InterferenceReason::kInsufficientMachines:
      return "INSUFFICIENT_MACHINES";
  }
  return "UNKNOWN";
}

ExperimentFabric::ExperimentFabric(const Options& options)
    : options_(options) {}

std::string ExperimentFabric::EncodeConclusion(const FlightConclusion& c) {
  StateWriter w;
  w.PutInt(c.flight);
  w.PutString(c.name);
  w.PutBool(c.admitted);
  w.PutInt(static_cast<int>(c.rejected));
  w.PutU64(c.deferrals);
  w.PutI64(c.start_hour);
  w.PutI64(c.end_hour);
  PutIntVec(&w, c.racks);
  PutIntVec(&w, c.treatment_machines);
  PutIntVec(&w, c.control_machines);
  w.PutBool(c.tripped);
  w.PutInt(c.tripped_window);
  w.PutString(GuardrailedRollout::EncodeEvaluation(c.trip_eval));
  w.PutBool(c.effect_ok);
  PutEffect(&w, c.data_read);
  PutEffect(&w, c.task_latency);
  w.PutDouble(c.data_read_ci_low);
  w.PutDouble(c.data_read_ci_high);
  w.PutU64(c.treatment_down_hours);
  w.PutU64(c.control_down_hours);
  w.PutU64(c.machines_restored);
  return w.Release();
}

Status ExperimentFabric::DecodeConclusion(const std::string& blob,
                                          FlightConclusion* c) {
  StateReader r(blob);
  int rejected = 0;
  int64_t start = 0, end = 0;
  uint64_t restored = 0;
  std::string eval_blob;
  KEA_RETURN_IF_ERROR(r.GetInt(&c->flight));
  KEA_RETURN_IF_ERROR(r.GetString(&c->name));
  KEA_RETURN_IF_ERROR(r.GetBool(&c->admitted));
  KEA_RETURN_IF_ERROR(r.GetInt(&rejected));
  KEA_RETURN_IF_ERROR(r.GetU64(&c->deferrals));
  KEA_RETURN_IF_ERROR(r.GetI64(&start));
  KEA_RETURN_IF_ERROR(r.GetI64(&end));
  KEA_RETURN_IF_ERROR(GetIntVec(&r, &c->racks));
  KEA_RETURN_IF_ERROR(GetIntVec(&r, &c->treatment_machines));
  KEA_RETURN_IF_ERROR(GetIntVec(&r, &c->control_machines));
  KEA_RETURN_IF_ERROR(r.GetBool(&c->tripped));
  KEA_RETURN_IF_ERROR(r.GetInt(&c->tripped_window));
  KEA_RETURN_IF_ERROR(r.GetString(&eval_blob));
  KEA_RETURN_IF_ERROR(
      GuardrailedRollout::DecodeEvaluation(eval_blob, &c->trip_eval));
  KEA_RETURN_IF_ERROR(r.GetBool(&c->effect_ok));
  KEA_RETURN_IF_ERROR(GetEffect(&r, &c->data_read));
  KEA_RETURN_IF_ERROR(GetEffect(&r, &c->task_latency));
  KEA_RETURN_IF_ERROR(r.GetDouble(&c->data_read_ci_low));
  KEA_RETURN_IF_ERROR(r.GetDouble(&c->data_read_ci_high));
  KEA_RETURN_IF_ERROR(r.GetU64(&c->treatment_down_hours));
  KEA_RETURN_IF_ERROR(r.GetU64(&c->control_down_hours));
  KEA_RETURN_IF_ERROR(r.GetU64(&restored));
  c->rejected = static_cast<InterferenceReason>(rejected);
  c->start_hour = static_cast<sim::HourIndex>(start);
  c->end_hour = static_cast<sim::HourIndex>(end);
  c->machines_restored = static_cast<size_t>(restored);
  return Status::OK();
}

StatusOr<ExperimentFabric::Report> ExperimentFabric::Run(
    const std::vector<FlightRequest>& requests, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  if (requests.empty()) {
    return Status::InvalidArgument("no flight requests");
  }
  if (options_.max_flighted_fraction <= 0.0 ||
      options_.max_flighted_fraction > 1.0) {
    return Status::InvalidArgument(
        "max_flighted_fraction must be in (0, 1]");
  }
  if (options_.baseline_hours <= 0) {
    return Status::InvalidArgument("baseline_hours must be positive");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  KEA_ASSIGN_OR_RETURN(JournaledStep step, JournaledStep::Bind(ctx));
  const size_t fleet = cluster->machines().size();
  for (const FlightRequest& req : requests) {
    if (req.machines_per_arm <= 0) {
      return Status::InvalidArgument("machines_per_arm must be positive");
    }
    if (req.window_hours <= 0) {
      return Status::InvalidArgument("window_hours must be positive");
    }
    if (req.num_windows <= 0) {
      return Status::InvalidArgument("num_windows must be positive");
    }
    if (req.treatment.empty()) {
      return Status::InvalidArgument("flight '" + req.name +
                                     "' has an empty treatment patch");
    }
    for (int id : req.pinned_machines) {
      if (id < 0 || static_cast<size_t>(id) >= fleet) {
        return Status::OutOfRange("pinned machine id " + std::to_string(id));
      }
    }
  }

  const size_t budget = static_cast<size_t>(
      options_.max_flighted_fraction * static_cast<double>(fleet));
  const std::string prefix = "fab" + std::to_string(step.round());
  KEA_TRACE_SPAN("fabric.run",
                 {{"requests", std::to_string(requests.size())},
                  {"budget_machines", std::to_string(budget)},
                  {"journaled", step.journaled() ? "1" : "0"}});

  std::vector<FlightState> states(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    states[i].index = i;
    states[i].req = &requests[i];
    states[i].conclusion.flight = static_cast<int>(i);
    states[i].conclusion.name = requests[i].name;
  }

  Report report;
  report.flights.resize(requests.size());
  std::map<size_t, Reservation> reservations;  ///< By flight index.
  // Shadow flighting registry: every admitted partition is registered as a
  // flight over its planned window, so the FlightingService overlap check
  // independently proves no machine is ever in two arms at once.
  FlightingService shadow;
  sim::HourIndex now = start_hour;
  int adv_count = 0;

  auto reserved_racks_at = [&](sim::HourIndex hour) {
    std::set<int> racks;
    for (const auto& [idx, res] : reservations) {
      if (res.planned_end > hour) racks.insert(res.racks.begin(), res.racks.end());
    }
    return racks;
  };
  auto reserved_machines_at = [&](sim::HourIndex hour) {
    std::unordered_set<int> ids;
    for (const auto& [idx, res] : reservations) {
      if (res.planned_end > hour) {
        ids.insert(res.machines.begin(), res.machines.end());
      }
    }
    return ids;
  };
  auto flighted_now = [&] {
    size_t total = 0;
    for (const auto& [idx, res] : reservations) {
      if (res.running) total += res.flighted;
    }
    return total;
  };
  auto running_count = [&] {
    size_t total = 0;
    for (const auto& [idx, res] : reservations) {
      if (res.running) ++total;
    }
    return total;
  };

  // Starts one admitted flight: journals the admission + the patch with its
  // per-machine priors, applies the patch, books the reservation.
  auto start_flight = [&](FlightState& st, const Assignment* fresh_assignment)
      -> Status {
    const std::string fkey = prefix + "/f" + std::to_string(st.index);
    std::string payload;
    KEA_ASSIGN_OR_RETURN(payload, step.Run(
        DeploymentLedger::EventType::kFlightAdmitted, fkey + "/admitted",
        "fabric.admitted",
        [&] {
          StateWriter w;
          w.PutI64(now);
          w.PutI64(now + st.req->window_hours * st.req->num_windows);
          w.PutU64(st.conclusion.deferrals);
          PutIntVec(&w, fresh_assignment->racks);
          PutIntVec(&w, fresh_assignment->treatment);
          PutIntVec(&w, fresh_assignment->control);
          return w.Release();
        },
        nullptr));
    {
      StateReader r(payload);
      int64_t start = 0, end = 0;
      KEA_RETURN_IF_ERROR(r.GetI64(&start));
      KEA_RETURN_IF_ERROR(r.GetI64(&end));
      KEA_RETURN_IF_ERROR(r.GetU64(&st.conclusion.deferrals));
      KEA_RETURN_IF_ERROR(GetIntVec(&r, &st.conclusion.racks));
      KEA_RETURN_IF_ERROR(GetIntVec(&r, &st.conclusion.treatment_machines));
      KEA_RETURN_IF_ERROR(GetIntVec(&r, &st.conclusion.control_machines));
      st.conclusion.start_hour = static_cast<sim::HourIndex>(start);
      st.planned_end = static_cast<sim::HourIndex>(end);
      st.conclusion.admitted = true;
    }

    KEA_ASSIGN_OR_RETURN(payload, step.Run(
        DeploymentLedger::EventType::kFlightStarted, fkey + "/started",
        "fabric.started",
        [&] {
          StateWriter w;
          w.PutString(EncodeConfigPatch(st.req->treatment));
          const auto& machines = cluster->machines();
          w.PutU64(st.conclusion.treatment_machines.size());
          for (int id : st.conclusion.treatment_machines) {
            const sim::Machine& m = machines[static_cast<size_t>(id)];
            w.PutInt(id);
            w.PutInt(m.max_containers);
            w.PutInt(st.req->treatment.max_containers
                         ? *st.req->treatment.max_containers
                         : m.max_containers);
            w.PutDouble(m.power_cap_fraction);
            w.PutBool(m.feature_enabled);
            w.PutInt(m.sc);
          }
          w.PutU64(options_.down_hours
                       ? options_.down_hours(st.conclusion.treatment_machines)
                       : 0);
          w.PutU64(options_.down_hours
                       ? options_.down_hours(st.conclusion.control_machines)
                       : 0);
          return w.Release();
        },
        [&](const std::string& p) -> Status {
          StateReader r(p);
          std::string patch_blob;
          KEA_RETURN_IF_ERROR(r.GetString(&patch_blob));
          ConfigPatch patch;
          KEA_RETURN_IF_ERROR(DecodeConfigPatch(patch_blob, &patch));
          uint64_t count = 0;
          KEA_RETURN_IF_ERROR(r.GetU64(&count));
          std::vector<int> ids;
          ids.reserve(count);
          for (uint64_t i = 0; i < count; ++i) {
            Prior prior;
            KEA_RETURN_IF_ERROR(r.GetInt(&prior.id));
            KEA_RETURN_IF_ERROR(r.GetInt(&prior.old_max));
            KEA_RETURN_IF_ERROR(r.GetInt(&prior.new_max));
            KEA_RETURN_IF_ERROR(r.GetDouble(&prior.power));
            KEA_RETURN_IF_ERROR(r.GetBool(&prior.feature));
            KEA_RETURN_IF_ERROR(r.GetInt(&prior.sc));
            ids.push_back(prior.id);
          }
          return ApplyPatch(patch, ids, cluster);
        }));
    {
      // The recorded priors are the rollback authority.
      StateReader r(payload);
      std::string patch_blob;
      KEA_RETURN_IF_ERROR(r.GetString(&patch_blob));
      uint64_t count = 0;
      KEA_RETURN_IF_ERROR(r.GetU64(&count));
      st.priors.assign(count, Prior{});
      for (uint64_t i = 0; i < count; ++i) {
        Prior& prior = st.priors[i];
        KEA_RETURN_IF_ERROR(r.GetInt(&prior.id));
        KEA_RETURN_IF_ERROR(r.GetInt(&prior.old_max));
        KEA_RETURN_IF_ERROR(r.GetInt(&prior.new_max));
        KEA_RETURN_IF_ERROR(r.GetDouble(&prior.power));
        KEA_RETURN_IF_ERROR(r.GetBool(&prior.feature));
        KEA_RETURN_IF_ERROR(r.GetInt(&prior.sc));
      }
      KEA_RETURN_IF_ERROR(r.GetU64(&st.start_treatment_down));
      KEA_RETURN_IF_ERROR(r.GetU64(&st.start_control_down));
    }

    // Register the partition in the shadow FlightingService: its overlap
    // rejection independently enforces "no machine in two arms at once".
    FlightSpec spec;
    spec.name = st.req->name.empty() ? ("flight" + std::to_string(st.index))
                                     : st.req->name;
    spec.machine_ids = st.conclusion.treatment_machines;
    spec.machine_ids.insert(spec.machine_ids.end(),
                            st.conclusion.control_machines.begin(),
                            st.conclusion.control_machines.end());
    spec.start_hour = st.conclusion.start_hour;
    spec.end_hour = st.planned_end;
    spec.patch = st.req->treatment;
    StatusOr<FlightId> registered = shadow.CreateFlight(std::move(spec));
    if (!registered.ok()) {
      return Status::Internal("fabric admitted interfering flights: " +
                              registered.status().message());
    }

    Reservation res;
    res.racks.insert(st.conclusion.racks.begin(), st.conclusion.racks.end());
    res.machines.insert(st.conclusion.treatment_machines.begin(),
                        st.conclusion.treatment_machines.end());
    res.machines.insert(st.conclusion.control_machines.begin(),
                        st.conclusion.control_machines.end());
    res.planned_end = st.planned_end;
    res.running = true;
    res.flighted = st.conclusion.treatment_machines.size() +
                   st.conclusion.control_machines.size();
    reservations[st.index] = std::move(res);
    st.running = true;
    AdmittedCounter()->Increment();
    ++report.admitted;
    return Status::OK();
  };

  // Concludes one flight: journals the (tripped or estimated) conclusion and
  // restores the pre-flight configuration. Restoration is idempotent, so a
  // re-driven conclude after a trip's rollback is harmless.
  auto conclude_flight = [&](FlightState& st) -> Status {
    const std::string fkey = prefix + "/f" + std::to_string(st.index);
    st.conclusion.machines_restored = st.priors.size();
    std::string payload;
    KEA_ASSIGN_OR_RETURN(payload, step.Run(
        DeploymentLedger::EventType::kFlightConcluded, fkey + "/concluded",
        "fabric.concluded",
        [&] {
          if (options_.down_hours) {
            st.conclusion.treatment_down_hours =
                options_.down_hours(st.conclusion.treatment_machines) -
                st.start_treatment_down;
            st.conclusion.control_down_hours =
                options_.down_hours(st.conclusion.control_machines) -
                st.start_control_down;
          }
          return EncodeConclusion(st.conclusion);
        },
        [&](const std::string&) { return RestorePriors(st.priors, cluster); }));
    KEA_RETURN_IF_ERROR(DecodeConclusion(payload, &st.conclusion));
    st.running = false;
    st.finished = true;
    reservations[st.index].running = false;
    ConcludedCounter()->Increment();
    return Status::OK();
  };

  // The deterministic scheduling loop: admission pass (request order), then
  // advance to the next slice boundary, then guardrail verdicts for every
  // flight whose boundary this is.
  while (true) {
    // --- Admission pass.
    for (FlightState& st : states) {
      if (st.finished || st.running || st.conclusion.admitted) continue;
      const std::string admit_key =
          prefix + "/f" + std::to_string(st.index) + "/admitted";
      const DeploymentLedger::Event* admitted_ev = step.Recorded(admit_key);
      if (admitted_ev != nullptr) {
        // Journaled admission: the record is the authority. It may belong to
        // a later boundary of the re-driven schedule — only replay it when
        // the clock matches its recorded start.
        StateReader r(admitted_ev->payload);
        int64_t recorded_start = 0;
        KEA_RETURN_IF_ERROR(r.GetI64(&recorded_start));
        if (recorded_start != static_cast<int64_t>(now)) continue;
        KEA_RETURN_IF_ERROR(start_flight(st, nullptr));
        continue;
      }

      const FlightRequest& req = *st.req;
      std::set<int> busy_racks = reserved_racks_at(now);
      std::unordered_set<int> busy_machines = reserved_machines_at(now);
      Assignment assign =
          req.pinned_machines.empty()
              ? AssignFromRacks(*cluster, req, busy_racks, false)
              : AssignPinned(*cluster, req, busy_racks, busy_machines, false);
      InterferenceReason blocked = assign.blocked;
      bool permanent = false;
      if (blocked != InterferenceReason::kNone) {
        // Temporarily blocked, or impossible even on an idle fabric?
        Assignment idle =
            req.pinned_machines.empty()
                ? AssignFromRacks(*cluster, req, {}, true)
                : AssignPinned(*cluster, req, {}, {}, true);
        if (idle.blocked != InterferenceReason::kNone) {
          blocked = idle.blocked;
          permanent = true;
        } else if (blocked == InterferenceReason::kInsufficientMachines) {
          // Enough machines exist, they are just reserved right now.
          blocked = InterferenceReason::kSharedRack;
        }
      } else {
        // Capacity knobs couple through the work-conserving scheduler: two
        // concurrent flights moving max_containers would confound each other
        // (and the blast-radius accounting), so they serialize.
        if (req.treatment.max_containers) {
          for (const FlightState& other : states) {
            if (other.running && other.req->treatment.max_containers) {
              blocked = InterferenceReason::kKnobInteraction;
              break;
            }
          }
        }
        if (blocked == InterferenceReason::kNone) {
          size_t cand = assign.treatment.size() + assign.control.size();
          if (cand > budget) {
            blocked = InterferenceReason::kBlastRadiusBudget;
            permanent = true;
          } else if (flighted_now() + cand > budget) {
            blocked = InterferenceReason::kBlastRadiusBudget;
          }
        }
      }

      if (blocked == InterferenceReason::kNone) {
        KEA_RETURN_IF_ERROR(start_flight(st, &assign));
      } else if (permanent) {
        st.conclusion.rejected = blocked;
        st.finished = true;
        RejectedCounter()->Increment();
        ++report.rejected;
      } else {
        ++st.conclusion.deferrals;
        DeferralsCounter()->Increment();
      }
    }
    report.max_concurrent = std::max(report.max_concurrent, running_count());
    report.peak_flighted_machines =
        std::max(report.peak_flighted_machines, flighted_now());

    // --- Done?
    bool any_pending = false, any_running = false;
    for (const FlightState& st : states) {
      if (st.running) any_running = true;
      if (!st.finished && !st.running) any_pending = true;
    }
    if (!any_pending && !any_running) break;

    // --- Advance to the next slice boundary: the earliest upcoming window
    // boundary of a running flight, or — when only deferred requests remain —
    // the earliest reservation expiry that frees capacity.
    sim::HourIndex next = -1;
    for (const FlightState& st : states) {
      if (!st.running) continue;
      sim::HourIndex boundary = st.conclusion.start_hour +
                                (st.windows_done + 1) * st.req->window_hours;
      if (next < 0 || boundary < next) next = boundary;
    }
    if (next < 0 && any_pending) {
      for (const auto& [idx, res] : reservations) {
        if (res.planned_end > now && (next < 0 || res.planned_end < next)) {
          next = res.planned_end;
        }
      }
    }
    if (next <= now) {
      return Status::Internal("experiment fabric made no progress at hour " +
                              std::to_string(now));
    }
    std::string payload;
    KEA_ASSIGN_OR_RETURN(payload, step.Run(
        DeploymentLedger::EventType::kFabricAdvanced,
        prefix + "/adv" + std::to_string(adv_count), "fabric.advanced",
        [&] {
          StateWriter w;
          w.PutI64(now);
          w.PutI64(next);
          return w.Release();
        },
        [&](const std::string& p) -> Status {
          StateReader r(p);
          int64_t from = 0, to = 0;
          KEA_RETURN_IF_ERROR(r.GetI64(&from));
          KEA_RETURN_IF_ERROR(r.GetI64(&to));
          return advance(static_cast<int>(to - from));
        }));
    ++adv_count;
    {
      StateReader r(payload);
      int64_t from = 0, to = 0;
      KEA_RETURN_IF_ERROR(r.GetI64(&from));
      KEA_RETURN_IF_ERROR(r.GetI64(&to));
      now = static_cast<sim::HourIndex>(to);
    }

    // --- Guardrail verdicts for every flight whose boundary this is. The
    // window evaluations (and completion-time effect estimates) are computed
    // in parallel — pure functions of (store, arms, windows), so the result
    // is bit-identical at any thread count — then journaled serially in
    // flight order.
    std::vector<size_t> due;
    for (FlightState& st : states) {
      if (!st.running) continue;
      sim::HourIndex boundary = st.conclusion.start_hour +
                                (st.windows_done + 1) * st.req->window_hours;
      if (boundary == now) due.push_back(st.index);
    }
    KEA_TRACE_SPAN("fabric.window", {{"hour", std::to_string(now)},
                                     {"flights", std::to_string(due.size())}});
    std::vector<GuardrailEvaluation> evals(due.size());
    std::vector<FlightConclusion> estimates(due.size());
    common::ThreadPool::Run(
        options_.num_threads, due.size(), [&](size_t i) {
          FlightState& st = states[due[i]];
          sim::HourIndex baseline_begin = std::max(
              0, st.conclusion.start_hour - options_.baseline_hours);
          evals[i] = EvaluateGuardrails(
              *store, st.req->guardrails, st.conclusion.treatment_machines,
              baseline_begin, st.conclusion.start_hour,
              now - st.req->window_hours, now);
          if (st.windows_done + 1 == st.req->num_windows) {
            estimates[i] = st.conclusion;
            estimates[i].end_hour = now;
            EstimateEffects(*store, &estimates[i]);
          }
        });

    for (size_t i = 0; i < due.size(); ++i) {
      FlightState& st = states[due[i]];
      const std::string fkey = prefix + "/f" + std::to_string(st.index);
      const int window = st.windows_done;
      KEA_ASSIGN_OR_RETURN(payload, step.Run(
          DeploymentLedger::EventType::kFlightVerdict,
          fkey + "/win" + std::to_string(window), "fabric.verdict",
          [&] { return GuardrailedRollout::EncodeEvaluation(evals[i]); },
          nullptr));
      GuardrailEvaluation eval;
      KEA_RETURN_IF_ERROR(
          GuardrailedRollout::DecodeEvaluation(payload, &eval));
      ++st.windows_done;

      if (!eval.pass()) {
        // Trip: roll back exactly this flight, conclude it tripped. Its
        // reservation stays until the planned horizon ends.
        TripsCounter()->Increment();
        ++report.trips;
        st.conclusion.tripped = true;
        st.conclusion.tripped_window = window;
        st.conclusion.trip_eval = eval;
        st.conclusion.end_hour = now;
        KEA_ASSIGN_OR_RETURN(payload, step.Run(
            DeploymentLedger::EventType::kFlightRollback, fkey + "/rollback",
            "fabric.rollback",
            [&] {
              StateWriter w;
              w.PutU64(st.priors.size());
              return w.Release();
            },
            [&](const std::string&) {
              return RestorePriors(st.priors, cluster);
            }));
        RollbacksCounter()->Increment();
        KEA_RETURN_IF_ERROR(conclude_flight(st));
      } else if (st.windows_done == st.req->num_windows) {
        st.conclusion = estimates[i];
        KEA_RETURN_IF_ERROR(conclude_flight(st));
      }
    }
  }

  for (FlightState& st : states) {
    report.flights[st.index] = st.conclusion;
  }
  report.end_hour = now;
  return report;
}

}  // namespace kea::core
