#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "common/csv.h"
#include "common/io.h"
#include "common/snapshot.h"
#include "common/storage_fault.h"

namespace kea::apps {
namespace {

// The storage sweep runs one guarded round hundreds of times (every Io
// operation the round performs, crossed with every applicable fault kind),
// so the world is deliberately small: enough machines and telemetry for a
// meaningful fit and a two-wave rollout, nothing more.
constexpr int kMachines = 120;
constexpr int kPreludeHours = 36;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::remove((dir + "/ledger.kea").c_str());
  std::remove((dir + "/ledger.kea.tmp").c_str());
  std::remove((dir + "/ledger.kea.quarantine").c_str());
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".tmp").c_str());
  for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
    std::remove(SnapshotGenerations::GenerationPath(checkpoint, gen).c_str());
  }
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string RawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void RawWrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A durable session with a prelude of telemetry, deterministic in `dir`
/// only. The process-wide injector (installed by the fixture) is in
/// pass-through state while this runs, so setup is bit-exact fault-free.
std::unique_ptr<KeaSession> MakeDurableSession(const std::string& dir) {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = 7;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_TRUE(session->EnableDurability(dir).ok());
  EXPECT_TRUE(session->Simulate(kPreludeHours).ok());
  return session;
}

KeaSession::GuardedRoundOptions RoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = kPreludeHours;
  options.rollout.wave_fractions = {0.5, 1.0};
  options.rollout.observe_hours_per_wave = 4;
  options.rollout.baseline_hours = 8;
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
  std::vector<std::pair<std::string, int>> fault_points;
};

class StorageRecoveryTest : public testing::Test {
 protected:
  StorageRecoveryTest() : injector_(StorageFaultProfile::None(), /*seed=*/11) {
    Io::Get().ResetForTest();
    Io::Get().SetFaultInjector(&injector_);
  }
  ~StorageRecoveryTest() override { Io::Get().ResetForTest(); }

  /// Runs the uninterrupted reference round with occurrence recording on, so
  /// the sweep can enumerate every (op, occurrence) the round reaches. The
  /// injector is reset right after session setup — armed runs reset at the
  /// same point, so occurrence indices line up exactly.
  Reference RunReference(const std::string& dir,
                         const KeaSession::GuardedRoundOptions& options) {
    Reference ref;
    auto session = MakeDurableSession(dir);
    injector_.Reset();
    injector_.SetRecording(true);
    auto round = session->RunGuardedTuningRound(options);
    ref.fault_points = injector_.Reached();
    injector_.SetRecording(false);
    injector_.Reset();
    EXPECT_TRUE(round.ok()) << round.status();
    if (!round.ok()) return ref;
    ref.report_sig = ReportSignature(round->rollout);
    ref.cluster_sig = ClusterSignature(*session);
    ref.store_csv = session->store().ToCsv();
    ref.ledger_csv = session->ledger()->AppliedChangesCsv();
    ref.now = session->now();
    return ref;
  }

  void ExpectMatchesReference(const Reference& ref, KeaSession& session,
                              const core::GuardrailedRollout::Report& rollout) {
    EXPECT_EQ(ReportSignature(rollout), ref.report_sig);
    EXPECT_EQ(ClusterSignature(session), ref.cluster_sig);
    EXPECT_EQ(session.now(), ref.now);
    EXPECT_EQ(session.store().ToCsv(), ref.store_csv);
    EXPECT_EQ(session.ledger()->AppliedChangesCsv(), ref.ledger_csv);
    ExpectPatchesExactlyOnce(*session.ledger());
  }

  StorageFaultInjector injector_;
};

StorageOp OpByName(const std::string& name) {
  if (name == "read") return StorageOp::kRead;
  if (name == "write") return StorageOp::kWrite;
  if (name == "flush") return StorageOp::kFlush;
  return StorageOp::kRename;
}

/// Fault kinds that can strike each durable-path op mid-round. Read faults
/// are swept separately over Resume (the round itself performs no reads).
std::vector<StorageFaultKind> KindsForOp(StorageOp op) {
  switch (op) {
    case StorageOp::kWrite:
      return {StorageFaultKind::kTransientEio, StorageFaultKind::kPersistentEio,
              StorageFaultKind::kEnospc, StorageFaultKind::kShortWrite};
    case StorageOp::kFlush:
    case StorageOp::kRename:
      return {StorageFaultKind::kTransientEio,
              StorageFaultKind::kPersistentEio};
    case StorageOp::kRead:
      return {StorageFaultKind::kTransientEio, StorageFaultKind::kPersistentEio,
              StorageFaultKind::kBitFlip, StorageFaultKind::kZeroPage,
              StorageFaultKind::kTruncate};
  }
  return {};
}

// The tentpole harness: inject every fault kind at every Io operation the
// reference round performs. Whatever the injected failure, the final world
// must be bit-identical to the uninterrupted run — either because the
// bounded retry absorbed it in-line, or after degraded-mode refusal,
// process death, and a resume that re-drives the round from the journal.
TEST_F(StorageRecoveryTest, SweepEveryFaultPointInGuardedRound) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_round"), options);
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_FALSE(ref.fault_points.empty());

  // The round must exercise the full durable write path: ledger appends and
  // checkpoint installs (writes + flushes) and generation rotates (renames).
  std::set<std::string> ops;
  int total_occurrences = 0;
  for (const auto& [op, hits] : ref.fault_points) {
    ops.insert(op);
    total_occurrences += hits;
  }
  EXPECT_TRUE(ops.count("write"));
  EXPECT_TRUE(ops.count("flush"));
  EXPECT_TRUE(ops.count("rename"));
  std::cout << "[storage sweep] fault points: ";
  for (const auto& [op, hits] : ref.fault_points) {
    std::cout << op << "=" << hits << " ";
  }
  std::cout << "(" << total_occurrences << " occurrences)" << std::endl;

  int scenario = 0;
  int absorbed = 0;
  int recovered = 0;
  for (const auto& [op_name, hits] : ref.fault_points) {
    const StorageOp op = OpByName(op_name);
    if (op == StorageOp::kRead) continue;  // Swept over Resume below.
    for (int occurrence = 0; occurrence < hits; ++occurrence) {
      for (StorageFaultKind kind : KindsForOp(op)) {
        ++scenario;
        SCOPED_TRACE(op_name + " occurrence " + std::to_string(occurrence) +
                     " kind " + StorageFaultKindName(kind));
        const std::string dir =
            FreshDir("storage_sweep_" + std::to_string(scenario));
        auto session = MakeDurableSession(dir);
        injector_.Reset();
        injector_.Arm(op, occurrence, kind);

        auto round = session->RunGuardedTuningRound(options);
        injector_.Reset();  // Disarm + clear sticky: the disk is "replaced".

        if (round.ok()) {
          // The bounded retry absorbed the fault in-line; the world must not
          // have noticed (and the session must still be fully durable).
          ++absorbed;
          EXPECT_EQ(session->durability_mode(),
                    KeaSession::DurabilityMode::kDurable);
          ExpectMatchesReference(ref, *session, round->rollout);
          continue;
        }

        // The fault surfaced: it must be classified as a storage failure,
        // and the session must have sealed itself into degraded mode...
        ++recovered;
        ASSERT_TRUE(IsStorageFailure(round.status())) << round.status();
        ASSERT_EQ(session->durability_mode(),
                  KeaSession::DurabilityMode::kDegraded);
        EXPECT_FALSE(session->degraded_reason().ok());
        // ...which refuses anything that would touch the fleet.
        auto refused = session->RunGuardedTuningRound(options);
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_NE(refused.status().message().find("degraded durability"),
                  std::string::npos)
            << refused.status();

        // Process death, then resume from whatever the faulty disk holds:
        // checkpoint generations + salvaged ledger re-drive the round to a
        // bit-identical conclusion with every patch applied exactly once.
        session.reset();
        auto resumed = KeaSession::Resume(dir);
        ASSERT_TRUE(resumed.ok()) << resumed.status();
        auto rerun = (*resumed)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun->rollout);
      }
    }
  }
  std::cout << "[storage sweep] " << scenario << " scenarios: " << absorbed
            << " absorbed by retry, " << recovered
            << " recovered via degraded mode + resume" << std::endl;
  // Both recovery regimes must actually be exercised by the sweep.
  EXPECT_GT(absorbed, 0);
  EXPECT_GT(recovered, 0);
}

// Read-path sweep: every read Resume() performs, crossed with every read
// fault kind. Transient EIO must be absorbed; persistent EIO must fail the
// resume without touching the disk (a later resume succeeds); at-rest
// corruption must either fall back to an older candidate and still re-drive
// a bit-identical world, or refuse to fabricate state — never silently
// diverge.
TEST_F(StorageRecoveryTest, SweepEveryResumeReadFault) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_resume"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  // Build one interrupted world: die at the final checkpoint install of the
  // round (a rename fault surfaces as a storage failure), so Resume has an
  // in-flight round to re-drive. The sweep then replays resumes of COPIES of
  // this world with one read fault armed each.
  const std::string dir = FreshDir("storage_resume_world");
  {
    auto session = MakeDurableSession(dir);
    injector_.Reset();
    // Strike a checkpoint install in the middle of the round.
    int renames = 0;
    for (const auto& [op, hits] : ref.fault_points) {
      if (op == "rename") renames = hits;
    }
    ASSERT_GT(renames, 1);
    injector_.Arm(StorageOp::kRename, renames / 2,
                  StorageFaultKind::kPersistentEio);
    auto round = session->RunGuardedTuningRound(options);
    injector_.Reset();
    ASSERT_FALSE(round.ok());
    ASSERT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
  }

  // Snapshot the on-disk world so every sweep iteration resumes from the
  // exact same bytes (a corrupting resume may repair files destructively,
  // and a successful rerun appends to the ledger and rolls generations).
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::vector<std::pair<std::string, std::string>> world;
  auto snapshot_file = [&](const std::string& path) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) world.emplace_back(path, RawRead(path));
  };
  snapshot_file(dir + "/ledger.kea");
  snapshot_file(checkpoint);
  for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
    snapshot_file(SnapshotGenerations::GenerationPath(checkpoint, gen));
  }
  auto restore_world = [&] {
    std::remove((dir + "/ledger.kea.quarantine").c_str());
    std::remove(checkpoint.c_str());
    for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
      std::remove(SnapshotGenerations::GenerationPath(checkpoint, gen).c_str());
    }
    for (const auto& [path, bytes] : world) RawWrite(path, bytes);
  };

  // Count the reads a clean resume performs (and prove it reconstructs the
  // reference world when re-driven).
  injector_.Reset();
  injector_.SetRecording(true);
  int reads = 0;
  {
    auto resumed = KeaSession::Resume(dir);
    for (const auto& [op, hits] : injector_.Reached()) {
      if (op == "read") reads = hits;
    }
    injector_.SetRecording(false);
    injector_.Reset();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    auto rerun = (*resumed)->RunGuardedTuningRound(options);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    ExpectMatchesReference(ref, **resumed, rerun->rollout);
  }
  ASSERT_GT(reads, 0);
  std::cout << "[storage sweep] resume performs " << reads << " reads"
            << std::endl;

  int fallbacks = 0;
  int refusals = 0;
  for (int occurrence = 0; occurrence < reads; ++occurrence) {
    for (StorageFaultKind kind : KindsForOp(StorageOp::kRead)) {
      SCOPED_TRACE("read occurrence " + std::to_string(occurrence) + " kind " +
                   StorageFaultKindName(kind));
      restore_world();
      injector_.Reset();
      injector_.Arm(StorageOp::kRead, occurrence, kind);
      auto resumed = KeaSession::Resume(dir);
      const bool corruption = kind == StorageFaultKind::kBitFlip ||
                              kind == StorageFaultKind::kZeroPage ||
                              kind == StorageFaultKind::kTruncate;

      if (kind == StorageFaultKind::kTransientEio) {
        // Reads are idempotent: the bounded retry must absorb this in-line.
        injector_.Reset();
        ASSERT_TRUE(resumed.ok()) << resumed.status();
        auto rerun = (*resumed)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun->rollout);
        continue;
      }

      if (kind == StorageFaultKind::kPersistentEio) {
        // The disk is gone: resume must fail cleanly, touch nothing, and
        // succeed bit-identically once the disk is replaced.
        injector_.Reset();
        ASSERT_FALSE(resumed.ok());
        EXPECT_TRUE(IsStorageFailure(resumed.status())) << resumed.status();
        auto retried = KeaSession::Resume(dir);
        ASSERT_TRUE(retried.ok()) << retried.status();
        auto rerun = (*retried)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **retried, rerun->rollout);
        continue;
      }

      ASSERT_TRUE(corruption);
      injector_.Reset();
      if (resumed.ok()) {
        // The CRC machinery rejected the rotted image and fallback found an
        // older intact candidate: the re-driven world must still be
        // bit-identical (generation fallback + ledger replay catch up).
        if ((*resumed)->resume_generations_discarded() > 0) ++fallbacks;
        auto rerun = (*resumed)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun->rollout);
      } else {
        // No intact candidate consistent with the (possibly salvaged)
        // ledger: the resume refuses rather than fabricating state.
        ++refusals;
        EXPECT_NE(resumed.status().code(), StatusCode::kAborted);
        EXPECT_FALSE(resumed.status().message().empty());
      }
    }
  }
  std::cout << "[storage sweep] resume corruption: " << fallbacks
            << " generation fallbacks, " << refusals << " refusals"
            << std::endl;
  // Corrupting the newest checkpoint must exercise the fallback path at
  // least once — otherwise generations are dead weight.
  EXPECT_GT(fallbacks, 0);
}

// In-process healing: a storage failure outside a round degrades the session
// but never kills it — tuning continues, deployments are refused, and
// TryRestoreDurability re-verifies the disk and restores the durable plane.
TEST_F(StorageRecoveryTest, DegradedModeRefusesDeploymentsUntilHealed) {
  const std::string dir = FreshDir("storage_degraded");
  auto session = MakeDurableSession(dir);
  auto options = RoundOptions();
  auto round = session->RunGuardedTuningRound(options);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDurable);

  // The disk dies. The background checkpoint after Simulate() fails, but the
  // session survives: it enters degraded mode instead of failing the caller.
  injector_.Reset();
  injector_.Arm(StorageOp::kWrite, 0, StorageFaultKind::kPersistentEio);
  ASSERT_TRUE(session->Simulate(2).ok());
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);
  EXPECT_TRUE(IsStorageFailure(session->degraded_reason()));

  // Deployments and checkpoints are refused with a precondition failure...
  auto refused = session->RunGuardedTuningRound(options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("degraded durability"),
            std::string::npos);
  EXPECT_EQ(session->Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->RollbackLastDeployment().code(),
            StatusCode::kFailedPrecondition);

  // ...but observation keeps flowing: the tuner keeps learning while the
  // storage plane is down (each Simulate auto-probes the disk and stays
  // degraded while it is still broken).
  ASSERT_TRUE(session->Simulate(2).ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);

  // An explicit heal attempt against the still-broken disk fails and the
  // session stays degraded.
  EXPECT_FALSE(session->TryRestoreDurability().ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);

  // Disk replaced: the heal re-opens the ledger, verifies no acknowledged
  // event was lost, re-checkpoints, and restores the durable plane.
  injector_.Reset();
  ASSERT_TRUE(session->TryRestoreDurability().ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDurable);
  EXPECT_TRUE(session->degraded_reason().ok());
  // Healing an already-durable session is a precondition failure.
  EXPECT_EQ(session->TryRestoreDurability().code(),
            StatusCode::kFailedPrecondition);

  // The healed plane is fully functional: another round deploys and the
  // world survives a process death + resume.
  auto second = session->RunGuardedTuningRound(options);
  ASSERT_TRUE(second.ok()) << second.status();
  const std::string cluster = ClusterSignature(*session);
  const std::string store = session->store().ToCsv();
  const sim::HourIndex now = session->now();
  session.reset();
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(ClusterSignature(**resumed), cluster);
  EXPECT_EQ((*resumed)->store().ToCsv(), store);
  EXPECT_EQ((*resumed)->now(), now);
  ExpectPatchesExactlyOnce(*(*resumed)->ledger());
}

// The degraded-mode policy, one row per public entry point: with the disk
// still broken, every call that changes the fleet (or persists) is refused
// without touching the cluster or the ledger, observation keeps flowing, and
// model fits run in memory without writing a snapshot.
TEST_F(StorageRecoveryTest, DegradedModePolicyCoversEveryEntryPoint) {
  const std::string dir = FreshDir("storage_degraded_policy");
  auto session = MakeDurableSession(dir);
  const YarnConfigTuner::Options tuner;
  auto yarn = session->RunYarnTuningRound(tuner, kPreludeHours, 1);
  ASSERT_TRUE(yarn.ok()) << yarn.status();
  ASSERT_TRUE(session->deployment().has_pending_batch());
  ASSERT_TRUE(session->Simulate(4).ok());

  injector_.Reset();
  injector_.Arm(StorageOp::kWrite, 0, StorageFaultKind::kPersistentEio);
  ASSERT_TRUE(session->Simulate(1).ok());
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);

  core::FlightRequest flight;
  flight.name = "cap";
  flight.treatment.max_containers = 20;
  flight.machines_per_arm = 4;
  flight.window_hours = 4;
  flight.num_windows = 1;
  const std::pair<std::string, std::function<Status()>> refused[] = {
      {"RunYarnTuningRound",
       [&] {
         return session->RunYarnTuningRound(tuner, kPreludeHours, 1).status();
       }},
      {"RunGuardedTuningRound",
       [&] { return session->RunGuardedTuningRound(RoundOptions()).status(); }},
      {"RunExperimentFabric",
       [&] {
         return session
             ->RunExperimentFabric({flight}, KeaSession::FabricRoundOptions())
             .status();
       }},
      {"RollbackLastDeployment",
       [&] { return session->RollbackLastDeployment(); }},
      {"Checkpoint", [&] { return session->Checkpoint(); }},
  };
  for (const auto& [name, call] : refused) {
    SCOPED_TRACE(name);
    const std::string cluster = ClusterSignature(*session);
    const uint64_t events = session->ledger()->next_seq();
    const sim::HourIndex now = session->now();
    Status status = call();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find("degraded durability"), std::string::npos)
        << status;
    EXPECT_EQ(ClusterSignature(*session), cluster);
    EXPECT_EQ(session->ledger()->next_seq(), events);
    EXPECT_EQ(session->now(), now);
    EXPECT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
  }

  // Observation: the clock advances, the auto-probe finds the disk still
  // broken, the session stays degraded. Read-only queries keep working.
  const sim::HourIndex before = session->now();
  ASSERT_TRUE(session->Simulate(2).ok());
  EXPECT_EQ(session->now(), before + 2);
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);
  EXPECT_TRUE(session->ValidateModels(core::ModelValidator::Options()).ok());
  EXPECT_TRUE(
      session->EstimateCapacityValue(CapacityConverter::Options()).ok());

  // Model: the fit runs in memory and touches no storage at all.
  const uint64_t epoch = session->model_epoch();
  const uint64_t ops = injector_.counters().ops;
  ASSERT_TRUE(
      session->FitWhatIfEngine(core::WhatIfEngine::Options(), kPreludeHours)
          .ok());
  EXPECT_EQ(session->model_epoch(), epoch + 1);
  EXPECT_EQ(injector_.counters().ops, ops);
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);
}

// A checkpoint that fails after an out-of-round mutation degrades the
// session; the call itself still succeeds (its effect is in memory, and
// journaled where it touched the fleet).
TEST_F(StorageRecoveryTest, CheckpointFailureAfterMutationDegrades) {
  const YarnConfigTuner::Options tuner;
  // `writes` is the number of storage writes the call makes before its
  // checkpoint: the module's ledger append, if any.
  struct Row {
    std::string name;
    bool needs_batch;
    int writes;
    std::function<Status(KeaSession&)> call;
  };
  const Row rows[] = {
      {"FitWhatIfEngine", false, 0,
       [](KeaSession& s) {
         return s.FitWhatIfEngine(core::WhatIfEngine::Options(),
                                  kPreludeHours);
       }},
      {"RunYarnTuningRound", false, 1,
       [&](KeaSession& s) {
         return s.RunYarnTuningRound(tuner, kPreludeHours, 1).status();
       }},
      {"RollbackLastDeployment", true, 1,
       [](KeaSession& s) { return s.RollbackLastDeployment(); }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    auto session = MakeDurableSession(FreshDir("storage_persist_" + row.name));
    if (row.needs_batch) {
      ASSERT_TRUE(session->RunYarnTuningRound(tuner, kPreludeHours, 1).ok());
    }
    const uint64_t events = session->ledger()->next_seq();
    injector_.Reset();
    injector_.Arm(StorageOp::kWrite, row.writes,
                  StorageFaultKind::kPersistentEio);
    Status status = row.call(*session);
    injector_.Reset();
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
    EXPECT_TRUE(IsStorageFailure(session->degraded_reason()))
        << session->degraded_reason();
    EXPECT_EQ(session->ledger()->next_seq(),
              events + static_cast<uint64_t>(row.writes));
  }
}

// At-rest corruption of the live checkpoint: Resume must fall back to the
// newest intact generation and reconstruct the same world (the scrub +
// ledger replay cover the gap). Flips a byte in every structural region of
// the container — magic, section count, headers, bodies, final byte.
TEST_F(StorageRecoveryTest, CorruptLiveCheckpointFallsBackAGeneration) {
  const std::string dir = FreshDir("storage_rot_checkpoint");
  auto options = RoundOptions();
  std::string cluster, store, ledger_csv;
  sim::HourIndex now = 0;
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunGuardedTuningRound(options);
    ASSERT_TRUE(round.ok()) << round.status();
    cluster = ClusterSignature(*session);
    store = session->store().ToCsv();
    ledger_csv = session->ledger()->AppliedChangesCsv();
    now = session->now();
  }
  const std::string checkpoint = dir + "/checkpoint.kea";
  const std::string intact = RawRead(checkpoint);
  ASSERT_FALSE(SnapshotGenerations::List(checkpoint).empty());

  const size_t n = intact.size();
  const std::vector<size_t> offsets = {0,      9,         15,        n / 5,
                                       n / 3,  n / 2,     2 * n / 3, 4 * n / 5,
                                       n - 2,  n - 1};
  for (size_t offset : offsets) {
    SCOPED_TRACE("corrupt byte " + std::to_string(offset));
    std::string rotted = intact;
    rotted[offset] ^= 0x41;
    RawWrite(checkpoint, rotted);

    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GE((*resumed)->resume_generations_discarded(), 1u);
    EXPECT_EQ(ClusterSignature(**resumed), cluster);
    EXPECT_EQ((*resumed)->store().ToCsv(), store);
    EXPECT_EQ((*resumed)->now(), now);
    EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ledger_csv);
    ExpectPatchesExactlyOnce(*(*resumed)->ledger());
  }
  RawWrite(checkpoint, intact);
}

// At-rest corruption of the ledger's first record: the scrub salvages an
// (almost empty) valid prefix, every surviving checkpoint then covers more
// events than the ledger holds, and Resume refuses to fabricate state
// rather than inventing a world the ledger cannot support.
TEST_F(StorageRecoveryTest, CorruptLedgerHeadRefusesToFabricate) {
  const std::string dir = FreshDir("storage_rot_ledger");
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(round.ok()) << round.status();
  }
  const std::string ledger_path = dir + "/ledger.kea";
  std::string bytes = RawRead(ledger_path);
  ASSERT_GT(bytes.size(), 20u);
  bytes[12] ^= 0x55;  // First record's header: everything after is suspect.
  RawWrite(ledger_path, bytes);

  auto resumed = KeaSession::Resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("refusing to fabricate"),
            std::string::npos)
      << resumed.status();
  // The corrupt bytes were preserved for post-mortems, not destroyed.
  EXPECT_FALSE(RawRead(ledger_path + ".quarantine").empty());
}

// Profile-mode chaos: whole rounds under Moderate() background rot. Either
// the retries absorb everything (bit-identical world, still durable), or
// the session degrades and the resume path reconstructs the same world.
TEST_F(StorageRecoveryTest, ModerateRotRoundsMatchFaultFreeReference) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_rot"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("rot seed " + std::to_string(seed));
    const std::string dir = FreshDir("storage_rot_" + std::to_string(seed));
    StorageFaultInjector rot(StorageFaultProfile::Moderate(), seed);
    // Setup stays fault-free (pass-through injector), then the round runs
    // under background rot — mirroring the reference's reset point.
    auto session = MakeDurableSession(dir);
    Io::Get().SetFaultInjector(&rot);
    auto round = session->RunGuardedTuningRound(options);
    Io::Get().SetFaultInjector(&injector_);
    injector_.Reset();

    if (round.ok()) {
      ExpectMatchesReference(ref, *session, round->rollout);
      continue;
    }
    ASSERT_TRUE(IsStorageFailure(round.status())) << round.status();
    EXPECT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
    session.reset();
    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    auto rerun = (*resumed)->RunGuardedTuningRound(options);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    ExpectMatchesReference(ref, **resumed, rerun->rollout);
  }
}

}  // namespace
}  // namespace kea::apps
