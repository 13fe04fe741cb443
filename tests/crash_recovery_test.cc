#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"

namespace kea::apps {
namespace {

// The crash sweep runs one guarded round dozens of times, so the world is
// deliberately small: enough machines and telemetry for a meaningful fit and
// a two-wave rollout, nothing more.
constexpr int kMachines = 160;
constexpr int kPreludeHours = 48;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::remove((dir + "/ledger.kea").c_str());
  std::remove((dir + "/ledger.kea.tmp").c_str());
  std::remove((dir + "/checkpoint.kea").c_str());
  std::remove((dir + "/checkpoint.kea.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string Slug(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

KeaSession::GuardedRoundOptions RoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = kPreludeHours;
  options.rollout.wave_fractions = {0.5, 1.0};
  options.rollout.observe_hours_per_wave = 6;
  options.rollout.baseline_hours = 12;
  return options;
}

/// A session with a prelude of telemetry; durable in `dir` when it is set.
std::unique_ptr<KeaSession> MakeSession(const std::string& dir) {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = 7;
  auto session = std::move(KeaSession::Create(config)).value();
  if (!dir.empty()) {
    EXPECT_TRUE(session->EnableDurability(dir).ok());
  }
  EXPECT_TRUE(session->Simulate(kPreludeHours).ok());
  return session;
}

/// A durable session with a prelude of telemetry, deterministic in `dir` only.
std::unique_ptr<KeaSession> MakeDurableSession(const std::string& dir) {
  return MakeSession(dir);
}

/// An impossible guardrail — latency must halve — trips the canary wave.
KeaSession::GuardedRoundOptions RollbackRoundOptions() {
  KeaSession::GuardedRoundOptions options = RoundOptions();
  options.rollout.guardrails.max_latency_ratio = 0.5;
  return options;
}

std::string ClusterSignature(const KeaSession& session) {
  StateWriter w;
  for (const sim::Machine& m : session.cluster().machines()) {
    w.PutInt(m.id);
    w.PutInt(m.sc);
    w.PutInt(m.max_containers);
    w.PutInt(m.max_queued_containers);
    w.PutDouble(m.power_cap_fraction);
    w.PutBool(m.feature_enabled);
  }
  return w.Release();
}

std::string ReportSignature(const core::GuardrailedRollout::Report& report) {
  StateWriter w;
  w.PutInt(static_cast<int>(report.outcome));
  w.PutInt(report.tripped_wave);
  w.PutU64(report.machines_restored);
  w.PutU64(report.waves.size());
  for (const core::GuardrailedRollout::WaveResult& wave : report.waves) {
    w.PutInt(wave.wave);
    w.PutU64(wave.sub_clusters.size());
    for (int sc : wave.sub_clusters) w.PutInt(sc);
    w.PutU64(wave.machines_changed);
    w.PutI64(wave.observe_begin);
    w.PutI64(wave.observe_end);
    w.PutString(EncodeState(wave.eval));
    w.PutBool(wave.passed);
  }
  return w.Release();
}

/// Exactly-once at the patch level: across the whole ledger, no machine
/// appears twice under the same wave key — a re-driven wave records nothing
/// new, so a double-applied patch would show up here as a duplicate row.
void ExpectPatchesExactlyOnce(const core::DeploymentLedger& ledger) {
  auto table = ParseCsv(ledger.AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  int key_col = table->ColumnIndex("key");
  int kind_col = table->ColumnIndex("kind");
  int machine_col = table->ColumnIndex("machine_id");
  ASSERT_GE(key_col, 0);
  std::set<std::string> seen;
  for (const auto& row : table->rows) {
    if (row[static_cast<size_t>(kind_col)] != "wave_machine") continue;
    std::string patch = row[static_cast<size_t>(key_col)] + "#" +
                        row[static_cast<size_t>(machine_col)];
    EXPECT_TRUE(seen.insert(patch).second) << "machine patched twice: " << patch;
  }
}

struct Reference {
  std::string report_sig;
  std::string cluster_sig;
  std::string store_csv;
  std::string ledger_csv;
  sim::HourIndex now = 0;
  core::GuardrailedRollout::Outcome outcome =
      core::GuardrailedRollout::Outcome::kNoChange;
  std::vector<std::pair<std::string, int>> crash_points;
};

/// Runs the uninterrupted reference round with crash-point recording on, so
/// the sweep can enumerate every (point, occurrence) the round actually
/// reaches.
Reference RunReference(const std::string& dir,
                       const KeaSession::GuardedRoundOptions& options) {
  Reference ref;
  auto session = MakeDurableSession(dir);
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  auto round = session->RunGuardedTuningRound(options);
  ref.crash_points = CrashPoints::Reached();
  CrashPoints::Reset();
  EXPECT_TRUE(round.ok()) << round.status();
  if (!round.ok()) return ref;
  ref.report_sig = ReportSignature(round->rollout);
  ref.cluster_sig = ClusterSignature(*session);
  ref.store_csv = session->store().ToCsv();
  ref.ledger_csv = session->ledger()->AppliedChangesCsv();
  ref.now = session->now();
  ref.outcome = round->rollout.outcome;
  return ref;
}

/// The tentpole harness: for every crash point the reference round reached,
/// at every occurrence, kill the round there, resume from disk, and demand a
/// bit-identical final world.
void SweepCrashPoints(const Reference& ref,
                      const KeaSession::GuardedRoundOptions& options,
                      const std::string& tag) {
  ASSERT_FALSE(ref.crash_points.empty());
  int scenario = 0;
  for (const auto& [point, hits] : ref.crash_points) {
    for (int occurrence = 0; occurrence < hits; ++occurrence, ++scenario) {
      SCOPED_TRACE(point + " occurrence " + std::to_string(occurrence));
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(scenario) + "_" +
                   Slug(point));
      auto session = MakeDurableSession(dir);

      CrashPoints::Arm(point, occurrence);
      auto crashed = session->RunGuardedTuningRound(options);
      CrashPoints::Reset();
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(CrashPoints::IsCrash(crashed.status()))
          << crashed.status();
      session.reset();  // Process death: in-memory state is gone.

      auto resumed = KeaSession::Resume(dir);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      auto rerun = (*resumed)->RunGuardedTuningRound(options);
      ASSERT_TRUE(rerun.ok()) << rerun.status();

      // Bit-identical to the uninterrupted run: the rollout report, the final
      // per-machine configuration, the sim clock, and the full telemetry.
      EXPECT_EQ(ReportSignature(rerun->rollout), ref.report_sig);
      EXPECT_EQ(ClusterSignature(**resumed), ref.cluster_sig);
      EXPECT_EQ((*resumed)->now(), ref.now);
      EXPECT_EQ((*resumed)->store().ToCsv(), ref.store_csv);
      // Exactly-once: the resumed ledger matches the single-run ledger — no
      // wave recorded twice, none lost — and no machine is patched twice.
      EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ref.ledger_csv);
      ExpectPatchesExactlyOnce(*(*resumed)->ledger());
    }
  }
}

TEST(CrashRecoveryTest, SweepEveryCrashPointInConvergingRound) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("crash_ref_converge"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  // The matrix must include both halves of every journaled session step —
  // died-before-journaling and journaled-but-not-durable — plus the torn
  // ledger append and the checkpoint rename.
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  for (const char* expected :
       {"session.round_started.pre", "session.round_started.post_record",
        "rollout.wave_started.pre", "rollout.wave_applied.post_record",
        "rollout.wave_observed.pre", "rollout.wave_verdict.post_record",
        "session.round_finished.pre", "session.round_finished.post_record",
        "journal.append.torn", "atomic_write.before_rename"}) {
    EXPECT_TRUE(names.count(expected)) << "unreached crash point: " << expected;
  }

  SweepCrashPoints(ref, options, "converge");
}

TEST(CrashRecoveryTest, SweepEveryCrashPointThroughRollback) {
  // The canary wave trips, so this sweep covers the rollback step's crash
  // points: a crash between the
  // journaled rollback intent and its effect must not lose the rollback.
  auto options = RollbackRoundOptions();

  const std::string ref_dir = FreshDir("crash_ref_rollback");
  std::string pre_round_cluster;
  {
    auto session = MakeDurableSession(ref_dir);
    pre_round_cluster = ClusterSignature(*session);
  }
  Reference ref = RunReference(FreshDir("crash_ref_rollback2"), options);
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_EQ(ref.outcome, core::GuardrailedRollout::Outcome::kRolledBack);
  // Rollback restores the exact pre-round configuration...
  EXPECT_EQ(ref.cluster_sig, pre_round_cluster);
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  EXPECT_TRUE(names.count("rollout.rollback.pre"));
  EXPECT_TRUE(names.count("rollout.rollback.post_record"));

  SweepCrashPoints(ref, options, "rollback");
}

TEST(CrashRecoveryTest, DurableRoundMatchesPlainRound) {
  // Journaling and per-step checkpoints must not change the round: a durable
  // session's converging and rolled-back rounds are bit-identical to a plain
  // session's.
  const std::pair<std::string, KeaSession::GuardedRoundOptions> cases[] = {
      {"converge", RoundOptions()}, {"rollback", RollbackRoundOptions()}};
  for (const auto& [tag, options] : cases) {
    SCOPED_TRACE(tag);
    auto plain = MakeSession("");
    auto plain_round = plain->RunGuardedTuningRound(options);
    ASSERT_TRUE(plain_round.ok()) << plain_round.status();

    auto durable = MakeDurableSession(FreshDir("crash_durable_vs_plain_" + tag));
    auto durable_round = durable->RunGuardedTuningRound(options);
    ASSERT_TRUE(durable_round.ok()) << durable_round.status();

    EXPECT_EQ(plain_round->rollout.outcome,
              tag == "converge"
                  ? core::GuardrailedRollout::Outcome::kConverged
                  : core::GuardrailedRollout::Outcome::kRolledBack);
    EXPECT_EQ(ReportSignature(plain_round->rollout),
              ReportSignature(durable_round->rollout));
    EXPECT_EQ(ClusterSignature(*plain), ClusterSignature(*durable));
    EXPECT_EQ(plain->store().ToCsv(), durable->store().ToCsv());
    EXPECT_EQ(plain->now(), durable->now());
  }
}

TEST(CrashRecoveryTest, ResumeOfCleanSessionIsBitIdentical) {
  const std::string dir = FreshDir("crash_clean_resume");
  auto session = MakeDurableSession(dir);
  auto round = session->RunGuardedTuningRound(RoundOptions());
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_TRUE(session->Simulate(12).ok());

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->now(), session->now());
  EXPECT_EQ(ClusterSignature(**resumed), ClusterSignature(*session));
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());
  EXPECT_EQ((*resumed)->deployment().HistoryCsv(),
            session->deployment().HistoryCsv());

  // The twins diverge from identical state: both simulate on, bit-identically.
  ASSERT_TRUE(session->Simulate(24).ok());
  ASSERT_TRUE((*resumed)->Simulate(24).ok());
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());

  // And validation works on the resumed twin (the fit engine was rebuilt).
  auto validation = (*resumed)->ValidateModels(core::ModelValidator::Options());
  EXPECT_TRUE(validation.ok()) << validation.status();
}

/// Every per-machine WAVE_APPLIED delta in the ledger is live in the cluster:
/// a converged round keeps all of its waves.
void ExpectWaveDeltasApplied(const KeaSession& session) {
  auto table = ParseCsv(session.ledger()->AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  int kind_col = table->ColumnIndex("kind");
  int machine_col = table->ColumnIndex("machine_id");
  int new_col = table->ColumnIndex("new_max_containers");
  ASSERT_GE(new_col, 0);
  const auto& machines = session.cluster().machines();
  int deltas = 0;
  int missing = 0;
  for (const auto& row : table->rows) {
    if (row[static_cast<size_t>(kind_col)] != "wave_machine") continue;
    ++deltas;
    const size_t id = std::stoul(row[static_cast<size_t>(machine_col)]);
    ASSERT_LT(id, machines.size());
    if (machines[id].max_containers !=
        std::stoi(row[static_cast<size_t>(new_col)])) {
      ++missing;
    }
  }
  EXPECT_GT(deltas, 0);
  EXPECT_EQ(missing, 0) << "of " << deltas << " journaled wave deltas";
}

/// One small capacity flight on sku 0.
core::FlightRequest CapacityFlight() {
  core::FlightRequest flight;
  flight.name = "cap";
  flight.treatment.max_containers = 20;
  flight.machines_per_arm = 4;
  flight.window_hours = 6;
  flight.num_windows = 1;
  return flight;
}

/// A durable session whose first guarded round died right after journaling
/// its canary wave's deltas, resumed from disk: the round is in flight and
/// the deltas' effect is not in the restored state.
std::unique_ptr<KeaSession> ResumeMidWave(const std::string& dir) {
  auto session = MakeDurableSession(dir);
  CrashPoints::Arm("rollout.wave_applied.post_record", 0);
  auto crashed = session->RunGuardedTuningRound(RoundOptions());
  CrashPoints::Reset();
  EXPECT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  session.reset();
  auto resumed = KeaSession::Resume(dir);
  EXPECT_TRUE(resumed.ok()) << resumed.status();
  return resumed.ok() ? std::move(resumed).value() : nullptr;
}

TEST(CrashRecoveryTest, CallsBetweenResumeAndContinuationKeepCoverage) {
  // A checkpoint written between Resume and the round's continuation must
  // not claim the journaled-but-unapplied wave: otherwise the continuation
  // replays the wave as bookkeeping and no machine gets its new config.
  using Call = std::function<Status(KeaSession&)>;
  const Call simulate = [](KeaSession& s) { return s.Simulate(1); };
  const Call fit = [](KeaSession& s) {
    return s.FitWhatIfEngine(core::WhatIfEngine::Options(), kPreludeHours);
  };
  const Call checkpoint = [](KeaSession& s) { return s.Checkpoint(); };
  const std::pair<std::string, std::vector<Call>> cases[] = {
      {"simulate", {simulate}},
      {"fit", {fit}},
      {"checkpoint", {checkpoint}},
      {"all", {simulate, fit, checkpoint}}};
  for (const auto& [tag, calls] : cases) {
    SCOPED_TRACE(tag);
    auto session = ResumeMidWave(FreshDir("crash_coverage_" + tag));
    ASSERT_NE(session, nullptr);
    for (const Call& call : calls) {
      Status status = call(*session);
      ASSERT_TRUE(status.ok()) << status;
    }
    auto rerun = session->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    EXPECT_EQ(rerun->rollout.outcome,
              core::GuardrailedRollout::Outcome::kConverged);
    ExpectWaveDeltasApplied(*session);
    ExpectPatchesExactlyOnce(*session->ledger());
  }
}

TEST(CrashRecoveryTest, FleetChangesRefusedWhileARoundIsInFlight) {
  // Only the interrupted round's own driver may touch the fleet until the
  // round is finished; every other fleet change names the run it waits on.
  auto session = ResumeMidWave(FreshDir("crash_in_flight_refusals"));
  ASSERT_NE(session, nullptr);
  const std::string cluster = ClusterSignature(*session);
  const uint64_t events = session->ledger()->next_seq();

  const Status refused[] = {
      session
          ->RunExperimentFabric({CapacityFlight()},
                                KeaSession::FabricRoundOptions())
          .status(),
      session->RunYarnTuningRound(RoundOptions().tuner, kPreludeHours, 1)
          .status(),
      session->RollbackLastDeployment()};
  for (const Status& status : refused) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find("round/0"), std::string::npos) << status;
  }
  EXPECT_EQ(ClusterSignature(*session), cluster);
  EXPECT_EQ(session->ledger()->next_seq(), events);

  // The round's own driver continues it to the uninterrupted outcome.
  auto rerun = session->RunGuardedTuningRound(RoundOptions());
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->rollout.outcome,
            core::GuardrailedRollout::Outcome::kConverged);
  ExpectWaveDeltasApplied(*session);
  ExpectPatchesExactlyOnce(*session->ledger());
}

TEST(CrashRecoveryTest, RoundsRefusedWhileAFabricRunIsInFlight) {
  const std::string dir = FreshDir("crash_fabric_in_flight");
  const std::vector<core::FlightRequest> flights = {CapacityFlight()};
  {
    auto session = MakeDurableSession(dir);
    CrashPoints::Arm("session.fabric_started.post_record", 0);
    auto crashed =
        session->RunExperimentFabric(flights, KeaSession::FabricRoundOptions());
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& session = **resumed;

  auto refused = session.RunGuardedTuningRound(RoundOptions());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("fab/0"), std::string::npos)
      << refused.status();

  // The fabric's own driver finishes the run; after that rounds run again.
  auto rerun =
      session.RunExperimentFabric(flights, KeaSession::FabricRoundOptions());
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->admitted, 1u);
  auto round = session.RunGuardedTuningRound(RoundOptions());
  ASSERT_TRUE(round.ok()) << round.status();
}

TEST(CrashRecoveryTest, ResumeRequiresACheckpoint) {
  EXPECT_EQ(KeaSession::Resume(FreshDir("crash_no_checkpoint")).status().code(),
            StatusCode::kNotFound);
}

TEST(CrashRecoveryTest, CheckpointRequiresDurability) {
  KeaSession::Config config;
  config.machines = 60;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_EQ(session->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kea::apps
