// Workload driver of the end-to-end benchmark (see README.md). One process
// runs one workload and prints one JSON object of raw samples on its last
// stdout line; run.py turns the samples into the reported metrics.
//
//   kea_perfbench --workload tuning_loop|durable_loop|serve_mix --seed N
//                 --seconds S --trace 0|1 --state-dir DIR
//
// --trace 0 times the public session/service calls with tracing off.
// --trace 1 runs the same schedule, alternating episodes with obs tracing
// off and on (for the tracing overhead), and replays every session call on an
// identically seeded twin through the layers' public entry points, recording
// one obs::Tracer span per step. The spans are opened here, never in src/.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <variant>
#include <optional>
#include <mutex>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "apps/yarn_tuner.h"
#include "common/snapshot.h"
#include "core/deployment_ledger.h"
#include "core/experiment_fabric.h"
#include "core/guardrailed_rollout.h"
#include "core/whatif.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "telemetry/ingestion.h"
#include "telemetry/perf_monitor.h"
#include "telemetry/store.h"

namespace {

using Clock = std::chrono::steady_clock;
using kea::Status;
using kea::StatusOr;
using kea::apps::KeaSession;

// ---------------------------------------------------------------------------
// Small utilities.

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "kea_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Take(StatusOr<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// FNV-1a over the bytes fed to it.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Add(&v, sizeof(v));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Minimal JSON emitter for the driver's one result object.
class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ += "\"" + k + "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ += "\"" + v + "\"";
    return *this;
  }
  Json& Nums(const std::vector<double>& vs) {
    Begin('[');
    for (double v : vs) Num(v);
    return End(']');
  }
  Json& Begin(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& End(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

using Samples = std::map<std::string, std::vector<double>>;

/// Per-call obs counter readings of the durable plane (snapshot = checkpoint
/// writes, journal = ledger appends, io retries).
struct DurableCounters {
  double snapshot_writes = 0, snapshot_bytes = 0, snapshot_us = 0;
  double journal_appends = 0, journal_us = 0, io_retries = 0;

  static DurableCounters Read() {
    auto& reg = kea::obs::Registry::Get();
    DurableCounters c;
    c.snapshot_writes = static_cast<double>(reg.CounterValue("snapshot.writes"));
    c.snapshot_bytes = static_cast<double>(reg.CounterValue("snapshot.bytes"));
    c.snapshot_us = reg.GetHistogram("snapshot.write_us", "",
                                     kea::obs::LatencyBucketsUs(),
                                     kea::obs::Kind::kTiming)
                        ->sum();
    c.journal_appends = static_cast<double>(reg.CounterValue("journal.appends"));
    c.journal_us = reg.GetHistogram("journal.append_us", "",
                                    kea::obs::LatencyBucketsUs(),
                                    kea::obs::Kind::kTiming)
                       ->sum();
    c.io_retries = static_cast<double>(reg.CounterValue("durability.retries"));
    return c;
  }
  DurableCounters operator-(const DurableCounters& o) const {
    return {snapshot_writes - o.snapshot_writes, snapshot_bytes - o.snapshot_bytes,
            snapshot_us - o.snapshot_us,         journal_appends - o.journal_appends,
            journal_us - o.journal_us,           io_retries - o.io_retries};
  }
  DurableCounters& operator+=(const DurableCounters& o) {
    snapshot_writes += o.snapshot_writes;
    snapshot_bytes += o.snapshot_bytes;
    snapshot_us += o.snapshot_us;
    journal_appends += o.journal_appends;
    journal_us += o.journal_us;
    io_retries += o.io_retries;
    return *this;
  }
  /// Wall time the durable plane spent inside one call, in ms.
  double ms() const { return (snapshot_us + journal_us) / 1000.0; }
};

// ---------------------------------------------------------------------------
// Spans. A twin step runs with obs tracing on; the benchmark opens its own
// spans around each layer call and the existing spans inside src/ (for
// example whatif.fit) nest under them. The step's events are folded into
// per-name totals and the tracer is cleared.

class Span {
 public:
  explicit Span(const char* name)
      : name_(name), id_(kea::obs::Tracer::Get().BeginSpan(name)) {}
  ~Span() { kea::obs::Tracer::Get().EndSpan(id_, name_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_;
};

/// Inclusive time and count per span name.
struct SpanTotals {
  std::map<std::string, std::pair<double, double>> by_name;  // (ms, count)

  double Total(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.first;
  }
  double Count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.second;
  }
};

/// Folds the recorded spans into per-name totals and clears the tracer.
SpanTotals Harvest() {
  auto& tracer = kea::obs::Tracer::Get();
  SpanTotals totals;
  for (const kea::obs::SelfTimeRow& row :
       kea::obs::ComputeSelfTimes(tracer.Events())) {
    auto& [ms, count] = totals.by_name[row.name];
    ms += row.total_us / 1000.0;
    count += static_cast<double>(row.count);
  }
  tracer.Clear();
  return totals;
}

SpanTotals Traced(const std::function<void()>& step) {
  kea::obs::Tracer::Get().Clear();
  kea::obs::EnableTracing();
  step();
  kea::obs::DisableTracing();
  return Harvest();
}

/// Times one live call, with obs tracing on or off.
double TimeLive(bool traced, const std::function<void()>& call) {
  auto& tracer = kea::obs::Tracer::Get();
  if (traced) {
    tracer.Clear();
    kea::obs::EnableTracing();
  }
  auto start = Clock::now();
  call();
  double ms = MsSince(start);
  if (traced) {
    kea::obs::DisableTracing();
    tracer.Clear();
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Run context shared by every workload.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_state";
};

struct Run {
  Args args;
  Clock::time_point start = Clock::now();
  std::vector<double> setup_s;
  Samples timings;           // Untraced live calls.
  Samples traced_timings;    // Live calls with obs tracing on (--trace 1).
  std::map<std::string, double> coverage_total;  // Live ms per timing.
  std::map<std::string, double> coverage_spans;  // Span-attributed ms.
  std::map<std::string, double> layers;          // Per-layer metrics.
  std::map<std::string, bool> checks;
  std::vector<std::string> digests;
  std::vector<double> disk_mb;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int episodes = 0;
  // Loop throughput: machine-hours simulated over the episodes' wall time.
  double work_machine_hours = 0;
  double work_seconds = 0;
  std::string extra;  // Pre-rendered workload-specific JSON members.

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  void CheckThat(const std::string& name, bool ok) {
    auto it = checks.find(name);
    checks[name] = (it == checks.end() ? true : it->second) && ok;
    if (!ok) std::fprintf(stderr, "check failed: %s\n", name.c_str());
  }
  /// Records a live timing in the traced or untraced set.
  void Record(bool traced, const std::string& name, double ms) {
    (traced ? traced_timings : timings)[name].push_back(ms);
  }
  /// Coverage bookkeeping for one live call and its twin replay.
  void Cover(const std::string& name, double live_ms, double span_ms) {
    coverage_total[name] += live_ms;
    coverage_spans[name] += span_ms;
  }
};

/// Episodes repeat until the time budget would be exceeded by another one;
/// at least `min_episodes` run so set-up has several samples.
bool AnotherEpisode(const Run& run, double episode_s, int min_episodes) {
  if (run.episodes < min_episodes) return true;
  return run.Elapsed() + episode_s <= run.args.seconds;
}

std::string PlanDigest(const kea::apps::YarnConfigTuner::Plan& plan,
                       const kea::core::GuardrailedRollout::Report* rollout) {
  Digest d;
  for (const auto& rec : plan.recommendations) {
    d.Add(rec.group.sc);
    d.Add(rec.group.sku);
    d.Add(rec.current_max_containers);
    d.Add(rec.recommended_max_containers);
  }
  d.Add(plan.predicted_capacity_gain);
  d.Add(plan.predicted_latency_before_s);
  d.Add(plan.predicted_latency_after_s);
  for (const auto& [key, value] : plan.lp_solution) {
    d.Add(key.sc);
    d.Add(key.sku);
    d.Add(value);
  }
  if (rollout != nullptr) {
    d.Add(static_cast<int>(rollout->outcome));
    d.Add(rollout->tripped_wave);
    d.Add(rollout->machines_restored);
    for (const auto& wave : rollout->waves) {
      d.Add(wave.wave);
      d.Add(wave.machines_changed);
      d.Add(wave.passed);
    }
  }
  return d.Hex();
}

bool PlanFinite(const kea::apps::YarnConfigTuner::Plan& plan) {
  bool ok = std::isfinite(plan.predicted_capacity_gain) &&
            std::isfinite(plan.predicted_latency_before_s) &&
            std::isfinite(plan.predicted_latency_after_s);
  for (const auto& [key, value] : plan.lp_solution) ok = ok && std::isfinite(value);
  return ok;
}

// ---------------------------------------------------------------------------
// Twin: an identically seeded session used only as a bag of layer objects
// (engine, cluster, store). Every live session call is replayed on it
// through the layers' public entry points, one span per step.

class Twin {
 public:
  Twin(const KeaSession::Config& config, bool ingestion)
      : session_(Take(KeaSession::Create(config), "create twin")) {
    if (ingestion) {
      pipeline_ = std::make_unique<kea::telemetry::IngestionPipeline>(
          session_->mutable_store(), kea::telemetry::IngestionPipeline::Options());
    }
  }

  /// One Simulate(hours): FluidEngine::Run, then ingestion (or a direct
  /// append when the live session has no pipeline).
  Status Advance(int hours) {
    kea::telemetry::TelemetryStore scratch;
    kea::telemetry::TelemetryStore* sink =
        pipeline_ != nullptr ? &scratch : session_->mutable_store();
    {
      Span span("sim.engine");
      KEA_RETURN_IF_ERROR(session_->engine()->Run(now_, hours, sink));
    }
    if (pipeline_ != nullptr) {
      Span span("telemetry.ingest");
      KEA_RETURN_IF_ERROR(pipeline_->Ingest(scratch.records()));
    }
    now_ += hours;
    simulated_hours_ += hours;
    return Status::OK();
  }

  struct Round {
    kea::apps::YarnConfigTuner::Plan plan;
    kea::core::GuardrailedRollout::Report rollout;
    double fit_points = 0;
    /// Digest of the plan a 1-thread fit of the same window proposes; empty
    /// unless requested.
    std::string serial_plan_digest;
  };

  /// One guarded round: GroupByKey -> WhatIfEngine::Fit ->
  /// YarnConfigTuner::ProposeFromEngine -> GuardrailedRollout::Execute.
  /// With `serial_check`, also proposes from a 1-thread fit, untraced.
  StatusOr<Round> GuardedRound(const KeaSession::GuardedRoundOptions& options,
                               bool serial_check = false) {
    Round round;
    const kea::sim::HourIndex begin = std::max(0, now_ - options.lookback_hours);
    const auto filter = kea::telemetry::HourRangeFilter(begin, now_);
    {
      Span span("telemetry.groupby");
      auto grouped = session_->store().GroupByKey(filter);
      for (const auto& [key, records] : grouped) {
        round.fit_points += static_cast<double>(records.size());
      }
    }
    std::unique_ptr<kea::core::WhatIfEngine> engine;
    {
      Span span("core.fit_call");
      KEA_ASSIGN_OR_RETURN(
          kea::core::WhatIfEngine fitted,
          kea::core::WhatIfEngine::Fit(session_->store(), filter,
                                       options.tuner.whatif));
      engine = std::make_unique<kea::core::WhatIfEngine>(std::move(fitted));
    }
    kea::apps::YarnConfigTuner tuner(options.tuner);
    {
      Span span("opt.plan");
      KEA_ASSIGN_OR_RETURN(round.plan,
                           tuner.ProposeFromEngine(*engine, session_->cluster()));
    }
    if (serial_check) {
      kea::obs::DisableTracing();
      auto serial = options.tuner;
      serial.whatif.num_threads = 1;
      KEA_ASSIGN_OR_RETURN(
          kea::core::WhatIfEngine serial_engine,
          kea::core::WhatIfEngine::Fit(session_->store(), filter, serial.whatif));
      KEA_ASSIGN_OR_RETURN(
          auto serial_plan,
          kea::apps::YarnConfigTuner(serial).ProposeFromEngine(
              serial_engine, session_->cluster()));
      round.serial_plan_digest = PlanDigest(serial_plan, nullptr);
      kea::obs::EnableTracing();
    }
    {
      Span span("core.rollout");
      kea::core::GuardrailedRollout rollout(options.rollout);
      KEA_ASSIGN_OR_RETURN(
          round.rollout,
          rollout.Execute(round.plan.recommendations, session_->mutable_cluster(),
                          &session_->store(), now_,
                          [this](int hours) { return Advance(hours); }));
    }
    last_engine_ = std::move(engine);
    return round;
  }

  StatusOr<kea::core::ExperimentFabric::Report> Fabric(
      const std::vector<kea::core::FlightRequest>& requests,
      const kea::core::ExperimentFabric::Options& options) {
    Span span("core.fabric");
    kea::core::ExperimentFabric fabric(options);
    KEA_ASSIGN_OR_RETURN(
        kea::core::ExperimentFabric::Report report,
        fabric.Run(requests, session_->mutable_cluster(), &session_->store(),
                   now_, [this](int hours) { return Advance(hours); }, nullptr));
    now_ = report.end_hour > now_ ? report.end_hour : now_;
    return report;
  }

  /// The dominant part of a session checkpoint: the full-session snapshot
  /// (telemetry encoded as text, engine and deployment state) written with
  /// generation rotation.
  Status Checkpoint(const std::string& path) {
    Span span("apps.checkpoint");
    kea::SnapshotWriter snapshot;
    snapshot.AddSection("telemetry", session_->store().ToCsv());
    snapshot.AddSection("engine", session_->engine()->SerializeState());
    snapshot.AddSection("deployment", session_->deployment().SerializeState());
    return kea::SnapshotGenerations::Write(snapshot, path, 3);
  }

  KeaSession& session() { return *session_; }
  const kea::core::WhatIfEngine* engine() const { return last_engine_.get(); }
  kea::sim::HourIndex now() const { return now_; }
  double simulated_hours() const { return simulated_hours_; }

 private:
  std::unique_ptr<KeaSession> session_;
  std::unique_ptr<kea::telemetry::IngestionPipeline> pipeline_;
  std::unique_ptr<kea::core::WhatIfEngine> last_engine_;
  kea::sim::HourIndex now_ = 0;
  double simulated_hours_ = 0;
};

/// Span-attributed time of one guarded round replay. The fit call's own
/// grouping repeats the explicit GroupByKey step, so only its whatif.fit
/// span (the part after grouping) counts.
double RoundSpanMs(const SpanTotals& t) {
  return t.Total("telemetry.groupby") + t.Total("whatif.fit") +
         t.Total("opt.plan") + t.Total("core.rollout");
}

/// Folds one round replay's spans into the per-layer accumulators.
struct RoundLayers {
  std::vector<double> groupby_ms, fit_ms, plan_ms, rollout_self_ms;
  double fit_points = 0, fit_ms_total = 0, waves = 0, rollbacks = 0,
         rounds = 0, groups_fitted = 0;

  void Add(const SpanTotals& t, const Twin::Round& round, double groups) {
    groupby_ms.push_back(t.Total("telemetry.groupby"));
    fit_ms.push_back(t.Total("whatif.fit"));
    plan_ms.push_back(t.Total("opt.plan"));
    rollout_self_ms.push_back(t.Total("core.rollout") - t.Total("sim.engine") -
                              t.Total("telemetry.ingest"));
    fit_points += round.fit_points;
    fit_ms_total += t.Total("whatif.fit");
    waves += static_cast<double>(round.rollout.waves.size());
    if (round.rollout.outcome ==
        kea::core::GuardrailedRollout::Outcome::kRolledBack) {
      rollbacks += 1;
    }
    groups_fitted += groups;
    rounds += 1;
  }
};

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void EmitRoundLayers(const RoundLayers& r, Run* run) {
  run->layers["telemetry.groupby_ms"] = Median(r.groupby_ms);
  run->layers["core.whatif_fit_ms"] = Median(r.fit_ms);
  run->layers["ml.fit_points_per_s"] =
      r.fit_ms_total > 0 ? r.fit_points / (r.fit_ms_total / 1000.0) : 0.0;
  run->layers["core.groups_fitted"] = r.rounds > 0 ? r.groups_fitted / r.rounds : 0;
  run->layers["opt.plan_ms"] = Median(r.plan_ms);
  run->layers["core.rollout_self_ms"] = Median(r.rollout_self_ms);
  run->layers["core.rollout_waves"] = r.rounds > 0 ? r.waves / r.rounds : 0;
  run->layers["core.rollbacks"] = r.rollbacks;
}

double GroupsFittedCounter() {
  return static_cast<double>(
      kea::obs::Registry::Get().CounterValue("whatif.groups_fitted"));
}

// ---------------------------------------------------------------------------
// tuning_loop: plain session, 1000 machines, 168 h lookback, ingestion on,
// no durability, no self-healing. Each cycle is Simulate(24) followed by a
// 3-wave guarded round.

constexpr int kTuningMachines = 1000;
constexpr int kTuningLookback = 168;
constexpr int kTuningCycles = 3;
constexpr int kFitThreads = 4;

KeaSession::GuardedRoundOptions TuningRoundOptions(int lookback) {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = lookback;
  options.tuner.whatif.num_threads = kFitThreads;
  return options;  // Default rollout: 3 waves, 24 h observation each.
}

void RunTuningLoop(Run* run) {
  KeaSession::Config config;
  config.machines = kTuningMachines;
  config.seed = run->args.seed;
  const auto options = TuningRoundOptions(kTuningLookback);
  KeaSession::IngestionConfig ingestion;  // Empty fault profile.
  ingestion.seed = run->args.seed;

  RoundLayers round_layers;
  double engine_ms = 0, ingest_ms = 0, engine_hours = 0, accepted = 0, seen = 0;
  double episode_s = 0;

  while (AnotherEpisode(*run, episode_s, 3)) {
    auto episode_start = Clock::now();
    const bool traced = run->args.trace && run->episodes % 2 == 1;

    auto setup_start = Clock::now();
    auto session = Take(KeaSession::Create(config), "create");
    Check(session->EnableIngestionPipeline(ingestion), "enable ingestion");
    Check(session->Simulate(kTuningLookback), "prelude");
    run->setup_s.push_back(MsSince(setup_start) / 1000.0);

    std::unique_ptr<Twin> twin;
    if (run->args.trace) {
      twin = std::make_unique<Twin>(config, /*ingestion=*/true);
      Traced([&] { Check(twin->Advance(kTuningLookback), "twin prelude"); });
    }

    for (int cycle = 0; cycle < kTuningCycles; ++cycle) {
      run->attempted += 2;
      Status day;
      double day_ms = TimeLive(traced, [&] { day = session->Simulate(24); });
      if (!day.ok()) {
        ++run->failed;
        std::fprintf(stderr, "Simulate: %s\n", day.ToString().c_str());
        break;
      }
      run->Record(traced, "day_ms", day_ms);

      StatusOr<KeaSession::GuardedRound> round = Status::OK();
      double round_ms = TimeLive(
          traced, [&] { round = session->RunGuardedTuningRound(options); });
      if (!round.ok()) {
        ++run->failed;
        std::fprintf(stderr, "round: %s\n", round.status().ToString().c_str());
        break;
      }
      run->Record(traced, "round_ms", round_ms);
      run->CheckThat("plans_finite", PlanFinite(round->plan));
      run->CheckThat("rounds_not_safe_mode", !round->safe_mode);
      const std::string digest = PlanDigest(round->plan, &round->rollout);
      if (run->episodes == 0) {
        run->digests.push_back(digest);
      } else {
        run->CheckThat("digest_repeats_across_episodes",
                       run->digests.size() > static_cast<size_t>(cycle) &&
                           run->digests[cycle] == digest);
      }

      if (twin == nullptr) continue;
      SpanTotals day_spans = Traced([&] { Check(twin->Advance(24), "twin day"); });
      run->Cover("day_ms", day_ms, day_spans.Total("sim.engine") +
                                       day_spans.Total("telemetry.ingest"));
      const double groups_before = GroupsFittedCounter();
      StatusOr<Twin::Round> replay = Status::OK();
      SpanTotals round_spans =
          Traced([&] { replay = twin->GuardedRound(options, cycle == 0); });
      const double groups = GroupsFittedCounter() - groups_before;
      if (!replay.ok()) Die("twin round: " + replay.status().ToString());
      run->Cover("round_ms", round_ms, RoundSpanMs(round_spans));
      round_layers.Add(round_spans, *replay, groups);
      run->CheckThat("twin_replay_matches_session",
                     PlanDigest(replay->plan, &replay->rollout) == digest);
      for (const SpanTotals* t : {&day_spans, &round_spans}) {
        engine_ms += t->Total("sim.engine");
        ingest_ms += t->Total("telemetry.ingest");
      }
      engine_hours += 24 + replay->rollout.waves.size() *
                               options.rollout.observe_hours_per_wave;
      if (cycle == 0) {
        run->CheckThat("serial_fit_same_plan",
                       replay->serial_plan_digest == PlanDigest(replay->plan, nullptr));
      }
    }
    if (session->ingestion() != nullptr) {
      accepted += static_cast<double>(session->ingestion()->counters().accepted);
      seen += static_cast<double>(session->ingestion()->counters().seen);
    }
    ++run->episodes;
    episode_s = std::chrono::duration<double>(Clock::now() - episode_start).count();
    if (!twin) {
      run->work_machine_hours += static_cast<double>(kTuningMachines) * session->now();
      run->work_seconds += episode_s;
    }
  }
  if (run->args.trace) {
    const double days = engine_hours / 24.0;
    run->layers["sim.engine_ms_per_day"] = days > 0 ? engine_ms / days : 0;
    run->layers["sim.machine_hours_per_s"] =
        engine_ms > 0 ? kTuningMachines * engine_hours / (engine_ms / 1000.0) : 0;
    run->layers["telemetry.ingest_ms_per_day"] = days > 0 ? ingest_ms / days : 0;
    run->layers["telemetry.ingest_accept_ratio"] = seen > 0 ? accepted / seen : 0;
    EmitRoundLayers(round_layers, run);
  }
}

// ---------------------------------------------------------------------------
// durable_loop: 160 machines in racks of 10, 48 h lookback, durability with
// 3 generations. One cycle, one 4-flight fabric, then Resume.

constexpr int kDurableMachines = 160;
constexpr int kDurableLookback = 48;
constexpr int kDurableSetups = 3;

std::vector<kea::core::FlightRequest> FabricQueue() {
  std::vector<kea::core::FlightRequest> requests;
  for (int sku = 2; sku <= 5; ++sku) {
    kea::core::FlightRequest req;
    req.name = "flight-sku" + std::to_string(sku);
    req.sku = sku;
    req.treatment.feature_enabled = true;
    req.machines_per_arm = 5;
    req.window_hours = 6;
    req.num_windows = 2;
    // Guardrails wide open: the workload times the fabric, not its verdicts.
    req.guardrails.max_latency_ratio = 100.0;
    req.guardrails.max_queue_p99_ratio = 100.0;
    req.guardrails.queue_p99_floor_ms = 1e12;
    req.guardrails.max_utilization = 1.0;
    requests.push_back(req);
  }
  return requests;
}

double DirMb(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes / (1024.0 * 1024.0);
}

bool SameCluster(const kea::sim::Cluster& a, const kea::sim::Cluster& b) {
  if (a.machines().size() != b.machines().size()) return false;
  for (size_t i = 0; i < a.machines().size(); ++i) {
    const auto& x = a.machines()[i];
    const auto& y = b.machines()[i];
    if (x.sc != y.sc || x.max_containers != y.max_containers ||
        x.max_queued_containers != y.max_queued_containers ||
        x.power_cap_fraction != y.power_cap_fraction ||
        x.feature_enabled != y.feature_enabled) {
      return false;
    }
  }
  return true;
}

void RunDurableLoop(Run* run) {
  KeaSession::Config config;
  config.machines = kDurableMachines;
  config.seed = run->args.seed;
  config.cluster = kea::sim::ClusterSpec::Default();
  config.cluster.machines_per_rack = 10;
  auto options = TuningRoundOptions(kDurableLookback);
  KeaSession::FabricRoundOptions fabric_options;
  fabric_options.fabric.max_flighted_fraction = 0.5;
  fabric_options.fabric.num_threads = 1;
  const auto requests = FabricQueue();

  RoundLayers round_layers;
  std::vector<double> fabric_self_ms, replay_ms, restore_ms;
  DurableCounters plane;  // Accumulated over day, round and fabric calls.
  double plane_calls_rounds = 0, round_checkpoints = 0;
  double checkpoint_ms_total = 0, checkpoint_count = 0;
  double engine_total = 0, engine_hours = 0;
  double episode_s = 0;
  std::error_code ec;

  while (AnotherEpisode(*run, episode_s, 2)) {
    auto episode_start = Clock::now();
    const bool traced = run->args.trace && run->episodes % 2 == 1;
    const std::string dir =
        run->args.state_dir + "/durable-e" + std::to_string(run->episodes);

    // Set-up is cheap next to the episode: repeat it for more samples and
    // keep the last session.
    std::unique_ptr<KeaSession> session;
    for (int i = 0; i < kDurableSetups; ++i) {
      session.reset();
      std::filesystem::remove_all(dir, ec);
      std::filesystem::create_directories(dir);
      auto setup_start = Clock::now();
      session = Take(KeaSession::Create(config), "create");
      KeaSession::DurabilityOptions durability;
      durability.dir = dir;
      durability.keep_generations = 3;
      Check(session->EnableDurability(durability), "enable durability");
      Check(session->Simulate(kDurableLookback), "prelude");
      run->setup_s.push_back(MsSince(setup_start) / 1000.0);
    }

    std::unique_ptr<Twin> twin;
    if (run->args.trace) {
      twin = std::make_unique<Twin>(config, /*ingestion=*/false);
      Traced([&] { Check(twin->Advance(kDurableLookback), "twin prelude"); });
    }

    bool episode_ok = true;
    auto live = [&](const char* name, const std::function<Status()>& call,
                    DurableCounters* delta) -> double {
      ++run->attempted;
      Status status;
      DurableCounters before = DurableCounters::Read();
      double ms = TimeLive(traced, [&] { status = call(); });
      *delta = DurableCounters::Read() - before;
      if (!status.ok()) {
        ++run->failed;
        episode_ok = false;
        std::fprintf(stderr, "%s: %s\n", name, status.ToString().c_str());
        return ms;
      }
      run->Record(traced, name, ms);
      return ms;
    };

    DurableCounters day_delta, round_delta, fabric_delta;
    double day_ms = live("day_ms", [&] { return session->Simulate(24); }, &day_delta);
    StatusOr<KeaSession::GuardedRound> round = Status::OK();
    double round_ms = 0;
    if (episode_ok) {
      round_ms = live("round_ms", [&] {
        round = session->RunGuardedTuningRound(options);
        return round.status();
      }, &round_delta);
    }
    StatusOr<kea::core::ExperimentFabric::Report> fabric = Status::OK();
    double fabric_ms = 0;
    if (episode_ok) {
      fabric_ms = live("fabric_ms", [&] {
        fabric = session->RunExperimentFabric(requests, fabric_options);
        return fabric.status();
      }, &fabric_delta);
    }
    if (episode_ok) {
      run->CheckThat("plans_finite", PlanFinite(round->plan));
      run->CheckThat("fabric_admitted_all", fabric->admitted == requests.size() &&
                                                fabric->rejected == 0);
      if (run->episodes == 0) {
        run->digests.push_back(PlanDigest(round->plan, &round->rollout));
      }
    }

    StatusOr<std::unique_ptr<KeaSession>> resumed = Status::OK();
    double resume_ms = 0;
    if (episode_ok) {
      ++run->attempted;
      resume_ms = TimeLive(traced, [&] { resumed = KeaSession::Resume(dir); });
      if (!resumed.ok()) {
        ++run->failed;
        episode_ok = false;
        std::fprintf(stderr, "Resume: %s\n", resumed.status().ToString().c_str());
      } else {
        run->Record(traced, "resume_ms", resume_ms);
        const KeaSession& resumed_session = **resumed;
        run->CheckThat("resume_now", resumed_session.now() == session->now());
        run->CheckThat("resume_cluster",
                       SameCluster(resumed_session.cluster(), session->cluster()));
        run->CheckThat("resume_telemetry",
                       resumed_session.store().size() == session->store().size() &&
                           resumed_session.store().ToCsv() == session->store().ToCsv());
        run->CheckThat("resume_deployment_history",
                       resumed_session.deployment().SerializeState() ==
                           session->deployment().SerializeState());
      }
    }
    if (episode_ok) run->disk_mb.push_back(DirMb(dir));

    if (twin != nullptr && episode_ok) {
      // The live call checkpointed `writes` times as its store grew; the
      // replay writes half of them before the step and half after it.
      const std::string twin_ckpt = dir + "-twin/checkpoint.kea";
      std::filesystem::create_directories(dir + "-twin");
      auto checkpoints = [&](double writes) {
        for (int i = 0; i < static_cast<int>(writes); ++i) {
          Check(twin->Checkpoint(twin_ckpt), "twin checkpoint");
        }
      };
      auto replay_call = [&](const DurableCounters& delta,
                             const std::function<void()>& step) {
        const double before = std::floor(delta.snapshot_writes / 2);
        return Traced([&] {
          checkpoints(before);
          step();
          checkpoints(delta.snapshot_writes - before);
        });
      };
      auto plane_ms = [](const SpanTotals& t, const DurableCounters& delta) {
        return t.Total("apps.checkpoint") + delta.journal_us / 1000.0;
      };

      SpanTotals day_spans = replay_call(day_delta, [&] {
        Check(twin->Advance(24), "twin day");
      });
      run->Cover("day_ms", day_ms,
                 day_spans.Total("sim.engine") + plane_ms(day_spans, day_delta));
      engine_total += day_spans.Total("sim.engine");

      const double groups_before = GroupsFittedCounter();
      StatusOr<Twin::Round> replay = Status::OK();
      SpanTotals round_spans = replay_call(round_delta, [&] {
        replay = twin->GuardedRound(options);
      });
      if (!replay.ok()) Die("twin round: " + replay.status().ToString());
      round_layers.Add(round_spans, *replay, GroupsFittedCounter() - groups_before);
      run->Cover("round_ms", round_ms,
                 RoundSpanMs(round_spans) + plane_ms(round_spans, round_delta));
      engine_total += round_spans.Total("sim.engine");
      run->CheckThat("twin_replay_matches_session",
                     PlanDigest(replay->plan, &replay->rollout) ==
                         PlanDigest(round->plan, &round->rollout));

      StatusOr<kea::core::ExperimentFabric::Report> fabric_replay = Status::OK();
      SpanTotals fabric_spans = replay_call(fabric_delta, [&] {
        fabric_replay = twin->Fabric(requests, fabric_options.fabric);
      });
      if (!fabric_replay.ok()) Die("twin fabric: " + fabric_replay.status().ToString());
      fabric_self_ms.push_back(fabric_spans.Total("core.fabric") -
                               fabric_spans.Total("sim.engine"));
      run->Cover("fabric_ms", fabric_ms,
                 fabric_spans.Total("core.fabric") + plane_ms(fabric_spans, fabric_delta));
      engine_total += fabric_spans.Total("sim.engine");
      run->CheckThat("twin_fabric_matches_session",
                     fabric_replay->end_hour == fabric->end_hour &&
                         fabric_replay->admitted == fabric->admitted &&
                         fabric_replay->trips == fabric->trips);
      engine_hours = twin->simulated_hours();
      for (const SpanTotals* t : {&day_spans, &round_spans, &fabric_spans}) {
        checkpoint_ms_total += t->Total("apps.checkpoint");
        checkpoint_count += t->Count("apps.checkpoint");
      }

      // Resume = journal replay (DeploymentLedger::Open) + checkpoint restore
      // (session rebuild, snapshot read, telemetry decode) + the refit of the
      // last round's engine.
      SpanTotals resume_spans = Traced([&] {
        {
          Span span("apps.resume_replay");
          Take(kea::core::DeploymentLedger::Open(dir + "/ledger.kea"), "ledger");
        }
        kea::telemetry::TelemetryStore restored;
        {
          Span span("apps.resume_restore");
          Take(KeaSession::Create(config), "create");
          auto snapshot = Take(kea::SnapshotGenerations::RestoreLatestValid(
                                   dir + "/checkpoint.kea"),
                               "snapshot");
          restored = Take(kea::telemetry::TelemetryStore::FromCsv(
                              Take(snapshot.reader.Section("telemetry"), "section")),
                          "decode");
        }
        auto [begin, end] = session->fit_window();
        Take(kea::core::WhatIfEngine::Fit(restored,
                                          kea::telemetry::HourRangeFilter(begin, end),
                                          options.tuner.whatif),
             "refit");
      });
      replay_ms.push_back(resume_spans.Total("apps.resume_replay"));
      restore_ms.push_back(resume_spans.Total("apps.resume_restore"));
      run->Cover("resume_ms", resume_ms,
                 resume_spans.Total("apps.resume_replay") +
                     resume_spans.Total("apps.resume_restore") +
                     resume_spans.Total("whatif.fit"));

      plane += day_delta;
      plane += round_delta;
      plane += fabric_delta;
      plane_calls_rounds += 1;
      round_checkpoints += round_delta.snapshot_writes;
    }
    const double machine_hours = static_cast<double>(kDurableMachines) * session->now();
    resumed = Status::OK();
    session.reset();
    std::filesystem::remove_all(dir, ec);
    std::filesystem::remove_all(dir + "-twin", ec);
    ++run->episodes;
    episode_s = std::chrono::duration<double>(Clock::now() - episode_start).count();
    if (!twin) {
      run->work_machine_hours += machine_hours;
      run->work_seconds += episode_s;
    }
    if (!episode_ok) break;
  }

  if (run->args.trace) {
    EmitRoundLayers(round_layers, run);
    run->layers["sim.engine_ms_per_day"] =
        engine_hours > 0 ? engine_total / (engine_hours / 24.0) : 0;
    run->layers["sim.machine_hours_per_s"] =
        engine_total > 0 ? kDurableMachines * engine_hours / (engine_total / 1000.0)
                         : 0;
    run->layers["core.fabric_self_ms"] = Median(fabric_self_ms);
    run->layers["apps.checkpoint_ms"] =
        checkpoint_count > 0 ? checkpoint_ms_total / checkpoint_count : 0;
    run->layers["common.snapshot_write_ms"] =
        plane.snapshot_writes > 0 ? plane.snapshot_us / 1000.0 / plane.snapshot_writes
                                  : 0;
    run->layers["apps.checkpoints_per_round"] =
        plane_calls_rounds > 0 ? round_checkpoints / plane_calls_rounds : 0;
    run->layers["common.checkpoint_bytes"] =
        plane.snapshot_writes > 0 ? plane.snapshot_bytes / plane.snapshot_writes : 0;
    run->layers["common.journal_appends"] =
        plane_calls_rounds > 0 ? plane.journal_appends / plane_calls_rounds : 0;
    run->layers["common.journal_append_us"] =
        plane.journal_appends > 0 ? plane.journal_us / plane.journal_appends : 0;
    run->layers["common.io_retries"] = plane.io_retries;
    run->layers["apps.resume_replay_ms"] = Median(replay_ms);
    run->layers["apps.resume_restore_ms"] = Median(restore_ms);
  }
}

// ---------------------------------------------------------------------------
// serve_mix: a TuningService with 2 workers and 4 tenants of 150 machines,
// each pre-fit on a week of telemetry. The main thread generates what-if
// queries (8-candidate grids) in an open loop on a fixed schedule, first at
// the base rate, then at the overload rate; one collector thread waits on the
// tickets. 90% of queries repeat one of the tenant's 30 grids and 10% are
// fresh. Every tenant refreshes periodically (SubmitSimulate(24), then
// SubmitFit), which invalidates its cache entries.

constexpr int kServeTenants = 4;
constexpr int kServeMachines = 150;
constexpr int kServeWorkers = 2;
constexpr int kServeGrids = 30;
constexpr int kServeCandidates = 8;
constexpr double kServeRepeatShare = 0.9;
constexpr double kServeBaseQps = 2000;
constexpr double kServeOverQps = 6000;
constexpr double kServeRefreshPeriodS = 2.0;
constexpr double kServeLimitMs = 50;
constexpr int kServeSetups = 5;
/// Shares of --seconds spent at the base and at the overload rate.
constexpr double kServeBaseShare = 0.55;
constexpr double kServeOverShare = 0.2;

using kea::serve::TuningService;
using kea::serve::WhatIfRequest;
using kea::serve::WhatIfResponse;
using kea::serve::WhatIfResponsePtr;

std::map<kea::sim::MachineGroupKey, double> BaseContainers(
    const kea::sim::Cluster& cluster) {
  std::map<kea::sim::MachineGroupKey, std::pair<double, int>> acc;
  for (const kea::sim::Machine& m : cluster.machines()) {
    auto& [sum, n] = acc[kea::sim::MachineGroupKey{m.sc, m.sku}];
    sum += static_cast<double>(m.max_containers);
    ++n;
  }
  std::map<kea::sim::MachineGroupKey, double> base;
  for (const auto& [key, sn] : acc) base[key] = sn.first / sn.second;
  return base;
}

/// An 8-candidate grid around `base`; distinct salts give distinct grids.
WhatIfRequest MakeGrid(const std::map<kea::sim::MachineGroupKey, double>& base,
                       uint64_t salt) {
  WhatIfRequest request;
  for (int c = 0; c < kServeCandidates; ++c) {
    std::map<kea::sim::MachineGroupKey, double> candidate;
    const double scale = 0.80 + 0.05 * c + 1e-6 * static_cast<double>(salt);
    for (const auto& [key, b] : base) candidate[key] = b * scale;
    request.candidates.push_back(std::move(candidate));
  }
  return request;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameResponse(const WhatIfResponse& a, const WhatIfResponse& b) {
  if (a.best_index != b.best_index || a.candidates.size() != b.candidates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& x = a.candidates[i];
    const auto& y = b.candidates[i];
    if (!SameBits(x.cluster_latency_s, y.cluster_latency_s) ||
        !SameBits(x.cluster_latency_stderr_s, y.cluster_latency_stderr_s) ||
        x.groups.size() != y.groups.size()) {
      return false;
    }
    for (auto xi = x.groups.begin(), yi = y.groups.begin(); xi != x.groups.end();
         ++xi, ++yi) {
      const auto& g = xi->second;
      const auto& h = yi->second;
      if (!(xi->first == yi->first) || !SameBits(g.containers, h.containers) ||
          !SameBits(g.utilization, h.utilization) ||
          !SameBits(g.tasks_per_hour, h.tasks_per_hour) ||
          !SameBits(g.latency_s, h.latency_s) ||
          !SameBits(g.latency_stderr_s, h.latency_stderr_s)) {
        return false;
      }
    }
  }
  return true;
}

struct ServeTenant {
  kea::serve::TenantId id = 0;
  kea::apps::KeaSession::Config config;
  std::map<kea::sim::MachineGroupKey, double> base;
};

kea::serve::FitRequest RefreshFit() {
  kea::serve::FitRequest fit;
  fit.whatif.num_threads = 1;  // Workers are the service's only threads.
  fit.lookback_hours = kea::sim::kHoursPerWeek;
  return fit;
}

/// Builds the service and pre-fits every tenant on a week of telemetry.
std::unique_ptr<TuningService> ProvisionService(uint64_t seed,
                                                std::vector<ServeTenant>* tenants) {
  TuningService::Options options;
  options.num_threads = kServeWorkers;
  // Admission never rejects: overload shows as latency, not as refusals.
  options.queue.capacity = 1 << 20;
  options.queue.per_tenant = 1 << 20;
  options.cache_capacity = 1024;
  auto service = std::make_unique<TuningService>(options);
  tenants->clear();
  std::vector<kea::serve::Ticket<uint64_t>> fits;
  for (int i = 0; i < kServeTenants; ++i) {
    ServeTenant t;
    t.config.machines = kServeMachines;
    t.config.seed = seed * 16 + static_cast<uint64_t>(i);
    t.id = Take(service->AddTenant("tenant" + std::to_string(i), t.config),
                "add tenant");
    Take(service->SubmitSimulate(t.id, kea::sim::kHoursPerWeek), "prelude");
    fits.push_back(Take(service->SubmitFit(t.id, RefreshFit()), "pre-fit"));
    tenants->push_back(t);
  }
  for (auto& fit : fits) Take(fit.Wait(), "pre-fit");
  for (auto& t : *tenants) {
    t.base = BaseContainers(Take(service->tenant_session(t.id), "session")->cluster());
  }
  return service;
}

enum class EventKind { kRepeat = 0, kFresh = 1, kSimulate = 2, kFit = 3 };

struct Event {
  double due_s = 0;
  int phase = 0;  // 0 = base rate, 1 = overload rate.
  int tenant = 0;
  EventKind kind = EventKind::kRepeat;
  uint64_t grid = 0;  // Repeat grid index, or the fresh grid's salt.
};

/// The fixed schedule: evenly spaced queries per phase (tenant, kind and
/// grid drawn from the seed) merged with staggered per-tenant refreshes.
std::vector<Event> MakeSchedule(uint64_t seed, double base_s, double over_s) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Event> events;
  uint64_t fresh_salt = 1000;
  const double phase_start[2] = {0.0, base_s};
  const double phase_len[2] = {base_s, over_s};
  const double rate[2] = {kServeBaseQps, kServeOverQps};
  for (int phase = 0; phase < 2; ++phase) {
    const int n = static_cast<int>(phase_len[phase] * rate[phase]);
    for (int i = 0; i < n; ++i) {
      Event e;
      e.due_s = phase_start[phase] + i / rate[phase];
      e.phase = phase;
      e.tenant = static_cast<int>(rng() % kServeTenants);
      if (unit(rng) < kServeRepeatShare) {
        e.kind = EventKind::kRepeat;
        e.grid = rng() % kServeGrids;
      } else {
        e.kind = EventKind::kFresh;
        e.grid = ++fresh_salt;
      }
      events.push_back(e);
    }
    for (int t = 0; t < kServeTenants; ++t) {
      for (double due = phase_start[phase] +
                        (t + 0.5) / kServeTenants * kServeRefreshPeriodS;
           due < phase_start[phase] + phase_len[phase];
           due += kServeRefreshPeriodS) {
        Event sim{due, phase, t, EventKind::kSimulate, 0};
        Event fit{due, phase, t, EventKind::kFit, 0};
        events.push_back(sim);
        events.push_back(fit);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due_s < b.due_s; });
  return events;
}

struct Outcome {
  double sent_s = 0;
  double done_s = 0;
  bool ok = false;
  bool hit = false;
  bool degraded = false;
  WhatIfResponsePtr response;
};

using AnyTicket = std::variant<kea::serve::Ticket<WhatIfResponsePtr>,
                               kea::serve::Ticket<kea::sim::HourIndex>,
                               kea::serve::Ticket<uint64_t>>;

struct Pending {
  size_t index = 0;
  AnyTicket ticket;
};

void RunServeMix(Run* run) {
  const double base_s = kServeBaseShare * run->args.seconds;
  const double over_s = kServeOverShare * run->args.seconds;
  std::vector<ServeTenant> tenants;
  std::unique_ptr<TuningService> service;
  for (int i = 0; i < kServeSetups; ++i) {
    service.reset();
    auto start = Clock::now();
    service = ProvisionService(run->args.seed, &tenants);
    run->setup_s.push_back(MsSince(start) / 1000.0);
  }
  run->episodes = 1;

  // Every repeat grid per tenant, built before the clock starts.
  std::vector<std::vector<WhatIfRequest>> grids(kServeTenants);
  for (int t = 0; t < kServeTenants; ++t) {
    for (int g = 0; g < kServeGrids; ++g) grids[t].push_back(MakeGrid(tenants[t].base, g));
  }
  const std::vector<Event> events = MakeSchedule(run->args.seed, base_s, over_s);
  auto request_of = [&](const Event& e) {
    return e.kind == EventKind::kRepeat ? grids[e.tenant][e.grid]
                                        : MakeGrid(tenants[e.tenant].base, e.grid);
  };
  std::vector<Outcome> outcomes(events.size());

  // Per-tenant FIFO of unresolved tickets: one tenant's requests resolve in
  // submission order, so the collector only polls each tenant's head.
  std::mutex pending_mu;
  std::vector<std::deque<Pending>> pending(kServeTenants);
  std::atomic<bool> generating{true};
  const auto epoch = Clock::now();  // Due times count from here.
  auto seconds_now = [&] {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  };

  std::thread collector([&] {
    std::unordered_set<const WhatIfResponse*> seen;
    std::vector<WhatIfResponsePtr> keep_alive;  // Keeps addresses unique.
    for (;;) {
      // Block briefly on the oldest unresolved ticket, then sweep every
      // tenant's head; a resolution is seen at most ~200 us late.
      std::optional<Pending> oldest;
      bool empty = true;
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        for (const auto& queue : pending) {
          if (queue.empty()) continue;
          empty = false;
          if (!oldest.has_value() || queue.front().index < oldest->index) {
            oldest = queue.front();
          }
        }
      }
      if (empty) {
        if (!generating.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      std::visit(
          [](const auto& ticket) {
            (void)ticket.WaitUntil(Clock::now() + std::chrono::microseconds(200));
          },
          oldest->ticket);
      for (int t = 0; t < kServeTenants; ++t) {
        for (;;) {
          Pending head;
          {
            std::lock_guard<std::mutex> lock(pending_mu);
            if (pending[t].empty()) break;
            head = pending[t].front();
          }
          const bool ready = std::visit(
              [](const auto& ticket) { return ticket.ready(); }, head.ticket);
          if (!ready) break;
          Outcome& out = outcomes[head.index];
          out.done_s = seconds_now();
          std::visit(
              [&](const auto& ticket) {
                auto result = ticket.Wait();
                out.ok = result.ok();
                if constexpr (std::is_same_v<std::decay_t<decltype(ticket)>,
                                             kea::serve::Ticket<WhatIfResponsePtr>>) {
                  if (result.ok()) {
                    const WhatIfResponsePtr& response = result.value();
                    out.hit = !seen.insert(response.get()).second;
                    if (!out.hit) keep_alive.push_back(response);
                    out.degraded = response->degraded;
                    out.response = response;
                  }
                }
              },
              head.ticket);
          std::lock_guard<std::mutex> lock(pending_mu);
          pending[t].pop_front();
        }
      }
    }
  });

  double backlog_max = 0;
  const double trace_from_s = base_s / 2;  // --trace 1: trace the second half.
  bool tracing = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (run->args.trace && !tracing && e.due_s >= trace_from_s) {
      kea::obs::EnableTracing();
      tracing = true;
    }
    std::this_thread::sleep_until(epoch + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(e.due_s)));
    Outcome& out = outcomes[i];
    out.sent_s = seconds_now();
    const kea::serve::TenantId id = tenants[e.tenant].id;
    std::optional<AnyTicket> ticket;
    Status refused;
    switch (e.kind) {
      case EventKind::kRepeat:
      case EventKind::kFresh: {
        auto submitted = service->SubmitWhatIf(id, request_of(e));
        if (submitted.ok()) ticket = std::move(submitted).value();
        else refused = submitted.status();
        break;
      }
      case EventKind::kSimulate: {
        auto submitted = service->SubmitSimulate(id, 24);
        if (submitted.ok()) ticket = std::move(submitted).value();
        else refused = submitted.status();
        break;
      }
      case EventKind::kFit: {
        auto submitted = service->SubmitFit(id, RefreshFit());
        if (submitted.ok()) ticket = std::move(submitted).value();
        else refused = submitted.status();
        break;
      }
    }
    if (!ticket.has_value()) {
      // A refused request fails at once; it counts as a miss of every limit.
      out.done_s = seconds_now();
      out.ok = false;
      std::fprintf(stderr, "refused: %s\n", refused.ToString().c_str());
    } else {
      std::lock_guard<std::mutex> lock(pending_mu);
      pending[e.tenant].push_back(Pending{i, std::move(*ticket)});
    }
    if (i % 16 == 0) {
      backlog_max = std::max(backlog_max, static_cast<double>(service->queue_depth()));
    }
  }
  generating.store(false);
  collector.join();
  service->WaitQuiescent();
  if (tracing) kea::obs::DisableTracing();
  const double load_end_s = seconds_now();

  // Correctness: responses answered at each tenant's final model epoch (the
  // queries submitted after its last fit) must be bit-identical to a solo
  // EvaluateWhatIfRequest on the final engine, and no response is degraded.
  std::vector<size_t> last_fit(kServeTenants, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kFit) last_fit[events[i].tenant] = i;
  }
  std::vector<int> compared(kServeTenants, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const Outcome& out = outcomes[i];
    ++run->attempted;
    if (!out.ok) ++run->failed;
    if (e.kind == EventKind::kSimulate || e.kind == EventKind::kFit) continue;
    run->CheckThat("no_degraded_responses", !out.ok || !out.degraded);
    if (!out.ok || i < last_fit[e.tenant] || compared[e.tenant] >= 16) continue;
    auto* session = Take(service->tenant_session(tenants[e.tenant].id), "session");
    auto solo = Take(kea::serve::EvaluateWhatIfRequest(*session->whatif_engine(),
                                                       request_of(e)),
                     "solo evaluation");
    run->CheckThat("responses_match_solo_evaluation", SameResponse(*out.response, solo));
    ++compared[e.tenant];
  }
  int total_compared = 0;
  for (int c : compared) total_compared += c;
  run->CheckThat("responses_compared", total_compared >= kServeTenants);

  // Raw per-request records; run.py derives latencies from the due times.
  Json j;
  j.Key("serve").Begin('{');
  j.Key("limit_ms").Num(kServeLimitMs);
  j.Key("base_qps").Num(kServeBaseQps);
  j.Key("over_qps").Num(kServeOverQps);
  j.Key("base_s").Num(base_s);
  j.Key("over_s").Num(over_s);
  j.Key("load_s").Num(load_end_s);
  j.Key("trace_from_s").Num(run->args.trace ? trace_from_s : -1.0);
  std::vector<double> due, sent, done, ok, kind, phase, hit, tenant;
  for (size_t i = 0; i < events.size(); ++i) {
    due.push_back(events[i].due_s);
    sent.push_back(outcomes[i].sent_s);
    done.push_back(outcomes[i].done_s);
    ok.push_back(outcomes[i].ok ? 1 : 0);
    kind.push_back(static_cast<int>(events[i].kind));
    phase.push_back(events[i].phase);
    hit.push_back(outcomes[i].hit ? 1 : 0);
    tenant.push_back(events[i].tenant);
  }
  j.Key("due").Nums(due).Key("sent").Nums(sent).Key("done").Nums(done);
  j.Key("ok").Nums(ok).Key("kind").Nums(kind).Key("phase").Nums(phase);
  j.Key("hit").Nums(hit).Key("tenant").Nums(tenant);
  j.End('}');

  if (run->args.trace) {
    auto& reg = kea::obs::Registry::Get();
    const auto stats = service->cache()->stats();
    const auto queue = service->queue_counters();
    const double batches = static_cast<double>(reg.CounterValue("serve.whatif_batches"));
    const double coalesced =
        static_cast<double>(reg.CounterValue("serve.whatif_coalesced"));
    run->layers["serve.cache_hit_ratio"] =
        stats.hits + stats.misses > 0
            ? static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses)
            : 0;
    run->layers["serve.coalesce_ratio"] =
        batches + coalesced > 0 ? coalesced / (batches + coalesced) : 0;
    run->layers["serve.backlog_max"] = backlog_max;
    run->layers["serve.cache_invalidated"] =
        static_cast<double>(reg.CounterValue("serve.cache_invalidated"));
    run->layers["serve.rejected_ratio"] =
        queue.submitted > 0
            ? static_cast<double>(queue.rejected) / static_cast<double>(queue.submitted)
            : 0;
    // Monte-Carlo grid spans recorded inside the service while traced.
    const SpanTotals load_spans = Harvest();
    const double grid_calls = load_spans.Count("mc.grid");
    run->layers["opt.mc_grid_ms"] =
        grid_calls > 0 ? load_spans.Total("mc.grid") / grid_calls : 0;

    // Solo replays on tenant 0's quiescent session: the cold what-if path
    // and one refresh (Simulate(24) on a twin + the refit).
    auto* session = Take(service->tenant_session(tenants[0].id), "session");
    std::vector<double> eval_ms;
    for (int i = 0; i < 20; ++i) {
      const WhatIfRequest request = MakeGrid(tenants[0].base, 900000 + i);
      SpanTotals t = Traced([&] {
        Span span("core.whatif_eval");
        Take(kea::serve::EvaluateWhatIfRequest(*session->whatif_engine(), request),
             "solo evaluation");
      });
      eval_ms.push_back(t.Total("core.whatif_eval"));
    }
    run->layers["core.whatif_eval_ms"] = Median(eval_ms);

    Twin twin(tenants[0].config, /*ingestion=*/false);
    Traced([&] { Check(twin.Advance(kea::sim::kHoursPerWeek), "twin prelude"); });
    std::vector<double> refresh_span_ms, fit_ms, engine_ms;
    double points = 0, groups = 0;
    for (int i = 0; i < 3; ++i) {
      const double groups_before = GroupsFittedCounter();
      SpanTotals t = Traced([&] {
        Check(twin.Advance(24), "twin refresh");
        Span span("core.fit_call");
        const auto filter = kea::telemetry::HourRangeFilter(
            twin.now() - kea::sim::kHoursPerWeek, twin.now());
        for (const auto& [key, records] : twin.session().store().GroupByKey(filter)) {
          points += static_cast<double>(records.size());
        }
        Take(kea::core::WhatIfEngine::Fit(twin.session().store(), filter,
                                          RefreshFit().whatif),
             "refit");
      });
      groups += GroupsFittedCounter() - groups_before;
      engine_ms.push_back(t.Total("sim.engine"));
      fit_ms.push_back(t.Total("whatif.fit"));
      refresh_span_ms.push_back(t.Total("sim.engine") + t.Total("whatif.fit"));
    }
    double fit_total = 0;
    for (double v : fit_ms) fit_total += v;
    run->layers["core.whatif_fit_ms"] = Median(fit_ms);
    run->layers["ml.fit_points_per_s"] = fit_total > 0 ? points / (fit_total / 1000.0) : 0;
    run->layers["core.groups_fitted"] = groups / 3;
    run->layers["sim.engine_ms_per_day"] = Median(engine_ms);
    run->layers["sim.machine_hours_per_s"] =
        Median(engine_ms) > 0 ? kServeMachines * 24 / (Median(engine_ms) / 1000.0) : 0;
    // Span-attributed service time per refresh and per cold query; run.py
    // sets them against the measured latencies.
    j.Key("refresh_span_ms").Num(Median(refresh_span_ms));
    j.Key("miss_span_ms").Num(Median(eval_ms));
  }
  run->extra = j.str();
  service.reset();
}

// ---------------------------------------------------------------------------


void Emit(const Run& run) {
  Json j;
  j.Begin('{');
  j.Key("workload").Str(run.args.workload);
  j.Key("trace").Bool(run.args.trace);
  j.Key("seed").Num(static_cast<double>(run.args.seed));
  j.Key("episodes").Num(run.episodes);
  j.Key("attempted").Num(static_cast<double>(run.attempted));
  j.Key("failed").Num(static_cast<double>(run.failed));
  j.Key("setup_s").Nums(run.setup_s);
  j.Key("peak_rss_mb").Num(PeakRssMb());
  j.Key("disk_mb").Nums(run.disk_mb);
  j.Key("work").Begin('{');
  j.Key("machine_hours").Num(run.work_machine_hours);
  j.Key("seconds").Num(run.work_seconds);
  j.End('}');
  auto samples = [&](const char* key, const Samples& s) {
    j.Key(key).Begin('{');
    for (const auto& [name, values] : s) j.Key(name).Nums(values);
    j.End('}');
  };
  samples("timings", run.timings);
  samples("traced_timings", run.traced_timings);
  auto numbers = [&](const char* key, const std::map<std::string, double>& m) {
    j.Key(key).Begin('{');
    for (const auto& [name, value] : m) j.Key(name).Num(value);
    j.End('}');
  };
  numbers("coverage_total_ms", run.coverage_total);
  numbers("coverage_span_ms", run.coverage_spans);
  numbers("layers", run.layers);
  j.Key("checks").Begin('{');
  for (const auto& [name, ok] : run.checks) j.Key(name).Bool(ok);
  j.End('}');
  j.Key("digests").Begin('[');
  for (const auto& d : run.digests) j.Str(d);
  j.End(']');
  std::string out = j.str();
  if (!run.extra.empty()) out += "," + run.extra;
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.args.workload = value;
    } else if (flag == "--seed") {
      run.args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      run.args.trace = value == "1";
    } else if (flag == "--state-dir") {
      run.args.state_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (run.args.seconds <= 0) Die("--seconds must be positive");
  kea::obs::DisableTracing();
  run.start = Clock::now();
  if (run.args.workload == "tuning_loop") {
    RunTuningLoop(&run);
  } else if (run.args.workload == "durable_loop") {
    RunDurableLoop(&run);
  } else if (run.args.workload == "serve_mix") {
    RunServeMix(&run);
  } else {
    Die("unknown workload '" + run.args.workload + "'");
  }
  Emit(run);
  return 0;
}
