// Pins the durable wire formats. tests/data/format_pin holds a small durable
// directory (checkpoint.kea + ledger.kea) written by a session with ingestion
// faults, fleet chaos and self-healing enabled that ran one guarded round and
// one two-flight fabric run, then stopped cleanly. Resuming that directory and
// checkpointing again must rewrite checkpoint.kea byte for byte, and every
// ledger payload must decode and re-encode to the same bytes. Every torn
// variant of a section or payload (each strict prefix, or one byte extra)
// must be rejected. The files double as a seed corpus for decoder fuzzing.
//
// The fixture is regenerated (only when a format change is intended) with
//   format_pin_test --gtest_also_run_disabled_tests
//                   --gtest_filter='*RegenerateFixture'

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/session.h"
#include "apps/session_checkpoint.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "core/deployment_ledger.h"

namespace kea::apps {
namespace {

const std::string kFixtureDir = KEA_TEST_DATA_DIR "/format_pin";

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  for (const char* file : {"/ledger.kea", "/checkpoint.kea"}) {
    std::remove((dir + file).c_str());
  }
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string ReadBytes(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status();
  return bytes.ok() ? bytes.value() : std::string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok()) << path;
}

/// Copies the committed fixture into a scratch directory, so a resumed
/// session never writes into the source tree.
std::string CopyFixture(const std::string& name) {
  std::string dir = FreshDir(name);
  for (const char* file : {"/ledger.kea", "/checkpoint.kea"}) {
    WriteBytes(dir + file, ReadBytes(kFixtureDir + file));
  }
  return dir;
}

// ---- The scenario the fixture was written from. Small on purpose: the
// committed files stay well under 64 KB.

KeaSession::Config WorldConfig() {
  KeaSession::Config config;
  config.machines = 12;
  config.seed = 13;
  config.cluster = sim::ClusterSpec::Default();
  config.cluster.machines_per_rack = 2;
  config.cluster.racks_per_subcluster = 1;
  return config;
}

KeaSession::IngestionConfig IngestionFaults() {
  KeaSession::IngestionConfig ingestion;
  ingestion.faults.drop_rate = 0.02;
  ingestion.faults.duplicate_rate = 0.02;
  ingestion.faults.non_finite_rate = 0.02;
  ingestion.faults.late_rate = 0.02;
  ingestion.faults.max_late_hours = 2;
  ingestion.seed = 5;
  return ingestion;
}

KeaSession::FleetChaosConfig Chaos() {
  KeaSession::FleetChaosConfig chaos;
  chaos.profile.crash_rate_per_hour = 0.01;
  chaos.profile.mean_repair_hours = 2.0;
  chaos.profile.degrade_rate_per_hour = 0.01;
  chaos.profile.degrade_severity = 0.3;
  chaos.profile.recovery_per_hour = 0.1;
  chaos.seed = 6;
  return chaos;
}

core::GuardrailThresholds Generous() {
  core::GuardrailThresholds t;
  t.max_latency_ratio = 100.0;
  t.max_queue_p99_ratio = 100.0;
  t.queue_p99_floor_ms = 1e12;
  t.max_utilization = 1.0;
  return t;
}

std::vector<core::FlightRequest> Flights(const KeaSession& session) {
  std::vector<core::FlightRequest> requests;
  for (sim::SkuId sku : {4, 5}) {
    core::FlightRequest req;
    req.name = "flight-sku" + std::to_string(sku);
    req.sku = sku;
    req.treatment.feature_enabled = true;
    req.machines_per_arm = 1;
    req.window_hours = 2;
    req.num_windows = 1;
    req.guardrails = Generous();
    // The second flight's guardrails cannot hold: it trips and rolls back.
    if (sku == 5) req.guardrails.max_latency_ratio = 0.01;
    for (const sim::Machine& m : session.cluster().machines()) {
      if (m.sku == sku) req.pinned_machines.push_back(m.id);
    }
    requests.push_back(req);
  }
  return requests;
}

void RunScenario(const std::string& dir) {
  auto session = std::move(KeaSession::Create(WorldConfig())).value();
  ASSERT_TRUE(session->EnableIngestionPipeline(IngestionFaults()).ok());
  ASSERT_TRUE(session->EnableFleetChaos(Chaos()).ok());
  ASSERT_TRUE(session->EnableSelfHealing({}).ok());
  KeaSession::DurabilityOptions durability;
  durability.dir = dir;
  durability.keep_generations = 0;
  ASSERT_TRUE(session->EnableDurability(durability).ok());
  ASSERT_TRUE(session->Simulate(8).ok());

  KeaSession::GuardedRoundOptions round;
  round.lookback_hours = 8;
  round.tuner.whatif.min_observations = 2;
  round.rollout.wave_fractions = {0.5, 1.0};
  round.rollout.observe_hours_per_wave = 1;
  round.rollout.baseline_hours = 4;
  round.rollout.guardrails = Generous();
  auto guarded = session->RunGuardedTuningRound(round);
  ASSERT_TRUE(guarded.ok()) << guarded.status();

  auto fabric = session->RunExperimentFabric(Flights(*session), {});
  ASSERT_TRUE(fabric.ok()) << fabric.status();
  ASSERT_EQ(fabric->admitted, 2u);
  ASSERT_TRUE(session->Checkpoint().ok());
}

TEST(FormatPinTest, DISABLED_RegenerateFixture) {
  ::mkdir(KEA_TEST_DATA_DIR, 0755);
  ::mkdir(kFixtureDir.c_str(), 0755);
  std::string dir = FreshDir("format_pin_regen");
  RunScenario(dir);
  for (const char* file : {"/ledger.kea", "/checkpoint.kea"}) {
    WriteBytes(kFixtureDir + file, ReadBytes(dir + file));
  }
}

TEST(FormatPinTest, FixtureIsSmall) {
  const size_t total = ReadBytes(kFixtureDir + "/checkpoint.kea").size() +
                       ReadBytes(kFixtureDir + "/ledger.kea").size();
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, 64u * 1024u);
}

TEST(FormatPinTest, ResumeThenCheckpointRewritesIdenticalBytes) {
  const std::string dir = CopyFixture("format_pin_resume");
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed.value()->Checkpoint().ok());
  EXPECT_EQ(ReadBytes(dir + "/checkpoint.kea"),
            ReadBytes(kFixtureDir + "/checkpoint.kea"));
  EXPECT_EQ(ReadBytes(dir + "/ledger.kea"),
            ReadBytes(kFixtureDir + "/ledger.kea"));
}

// ---- Every ledger payload, decoded by its production layout.

using EventType = core::DeploymentLedger::EventType;
using Decoder = std::function<StatusOr<std::string>(const std::string&)>;

/// Decodes `blob` as a P and re-encodes it.
template <class P>
StatusOr<std::string> Reencode(const std::string& blob) {
  P payload{};
  KEA_RETURN_IF_ERROR(DecodeState(blob, &payload));
  return EncodeState(payload);
}

Decoder DecoderFor(EventType type) {
  switch (type) {
    case EventType::kRoundStarted:
      return Reencode<RoundStart>;
    case EventType::kWaveStarted:
      return Reencode<core::WaveStarted>;
    case EventType::kWaveApplied:
      return Reencode<std::vector<core::WaveDelta>>;
    case EventType::kWaveObserved:
    case EventType::kFabricAdvanced:
      return Reencode<core::HourSpan>;
    case EventType::kWaveVerdict:
    case EventType::kFlightVerdict:
      return Reencode<core::GuardrailEvaluation>;
    case EventType::kRollback:
    case EventType::kFlightRollback:
      return Reencode<uint64_t>;
    case EventType::kRoundFinished:
      return Reencode<RoundFinished>;
    case EventType::kApply:
    case EventType::kModuleRollback:
      return Reencode<std::vector<core::AppliedChange>>;
    case EventType::kFabricStarted:
      return Reencode<FabricStarted>;
    case EventType::kFlightAdmitted:
      return Reencode<core::FlightAdmitted>;
    case EventType::kFlightStarted:
      return Reencode<core::FlightStarted>;
    case EventType::kFlightConcluded:
      return Reencode<core::ExperimentFabric::FlightConclusion>;
    case EventType::kFabricFinished:
      return Reencode<FabricFinished>;
  }
  return nullptr;
}

std::vector<core::DeploymentLedger::Event> FixtureEvents() {
  const std::string dir = CopyFixture("format_pin_ledger");
  auto ledger = core::DeploymentLedger::Open(dir + "/ledger.kea");
  EXPECT_TRUE(ledger.ok()) << ledger.status();
  if (!ledger.ok()) return {};
  return ledger.value()->events();
}

TEST(FormatPinTest, EveryLedgerPayloadRoundTrips) {
  std::vector<bool> seen(static_cast<size_t>(EventType::kFabricFinished) + 1);
  for (const core::DeploymentLedger::Event& event : FixtureEvents()) {
    seen[static_cast<size_t>(event.type)] = true;
    StatusOr<std::string> again = DecoderFor(event.type)(event.payload);
    ASSERT_TRUE(again.ok()) << event.key << ": " << again.status();
    EXPECT_EQ(again.value(), event.payload) << event.key;
  }
  // The scenario exercises every event type but the module's own
  // apply/rollback and the guarded round's rollback (its waves converge).
  for (EventType type :
       {EventType::kRoundStarted, EventType::kWaveStarted,
        EventType::kWaveApplied, EventType::kWaveObserved,
        EventType::kWaveVerdict, EventType::kRoundFinished,
        EventType::kFabricStarted, EventType::kFlightAdmitted,
        EventType::kFlightStarted, EventType::kFabricAdvanced,
        EventType::kFlightVerdict, EventType::kFlightRollback,
        EventType::kFlightConcluded, EventType::kFabricFinished}) {
    EXPECT_TRUE(seen[static_cast<size_t>(type)])
        << core::DeploymentLedger::EventTypeToString(type);
  }
}

// ---- Torn blobs: every strict prefix of a valid blob, and the blob plus one
// byte, must be rejected. No decoder may accept a shorter layout as an older
// format, or ignore what trails its last field.

/// How many torn variants of `blob` `restore` wrongly accepts.
int AcceptedTorn(const std::string& blob,
                 const std::function<Status(const std::string&)>& restore) {
  int accepted = 0;
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    if (restore(blob.substr(0, cut)).ok()) ++accepted;
  }
  if (restore(blob + '\x01').ok()) ++accepted;
  return accepted;
}

TEST(FormatPinTest, TornLedgerPayloadsAreRejected) {
  for (const core::DeploymentLedger::Event& event : FixtureEvents()) {
    const Decoder decode = DecoderFor(event.type);
    EXPECT_EQ(AcceptedTorn(event.payload,
                           [&](const std::string& blob) {
                             return decode(blob).status();
                           }),
              0)
        << event.key;
    EXPECT_EQ(AcceptedTorn(EncodeState(event),
                           [](const std::string& blob) {
                             core::DeploymentLedger::Event back;
                             return DecodeState(blob, &back);
                           }),
              0)
        << event.key << " record";
    if (event.type == EventType::kFlightStarted) {
      // The patch nested inside the payload has a decoder of its own.
      core::FlightStarted started;
      ASSERT_TRUE(DecodeState(event.payload, &started).ok());
      EXPECT_EQ(AcceptedTorn(EncodeState(started.patch),
                             [](const std::string& blob) {
                               return Reencode<core::ConfigPatch>(blob)
                                   .status();
                             }),
                0);
    }
  }
  // The fixture runs no DeploymentModule batch; pin its layout directly.
  const std::vector<core::AppliedChange> batch = {{{0, 1}, 7, 8, false},
                                                  {{1, 4}, 9, 8, true}};
  EXPECT_EQ(AcceptedTorn(EncodeState(batch),
                         [](const std::string& blob) {
                           return Reencode<std::vector<core::AppliedChange>>(
                                      blob)
                               .status();
                         }),
            0);
}

/// Rewrites `dir`'s checkpoint with section `name` replaced by `content`
/// (CRCs recomputed, so only the section decoder can object).
void ReplaceSection(const std::string& dir, const std::string& name,
                    const std::string& content) {
  auto fixture = SnapshotReader::Open(kFixtureDir + "/checkpoint.kea");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  SnapshotWriter snapshot;
  for (const auto& [section, bytes] : fixture.value().sections()) {
    snapshot.AddSection(section, section == name ? content : bytes);
  }
  ASSERT_TRUE(snapshot.WriteFile(dir + "/checkpoint.kea").ok());
}

TEST(FormatPinTest, TornCheckpointSectionsAreRejected) {
  const std::string dir = CopyFixture("format_pin_torn");
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& session = *resumed.value();
  // Component sections restore onto copies of the resumed components; the
  // session's own sections go through Resume itself.
  auto on_copy = [](auto component) {
    return [component](const std::string& blob) mutable {
      return component.RestoreState(blob);
    };
  };
  auto via_resume = [&](const std::string& name) {
    return [&dir, name](const std::string& blob) {
      ReplaceSection(dir, name, blob);
      return KeaSession::Resume(dir).status();
    };
  };
  const std::map<std::string, std::function<Status(const std::string&)>>
      restore = {
          {"meta", via_resume("meta")},
          {"config", via_resume("config")},
          {"cluster", via_resume("cluster")},
          {"engine", on_copy(*session.engine())},
          {"deployment", on_copy(session.deployment())},
          {"ingestion", on_copy(*session.ingestion())},
          {"fault_injector", on_copy(*session.fault_injector())},
          {"fleet_faults", on_copy(*session.fleet_faults())},
          {"drift", on_copy(*session.drift_detector())},
          {"model_health", on_copy(*session.model_health())},
      };
  auto fixture = SnapshotReader::Open(kFixtureDir + "/checkpoint.kea");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  size_t checked = 0;
  for (const auto& [name, bytes] : fixture.value().sections()) {
    if (name == "telemetry") continue;  // CSV text, not a state layout.
    ASSERT_EQ(restore.count(name), 1u) << "unknown section " << name;
    ASSERT_TRUE(restore.at(name)(bytes).ok()) << name;
    EXPECT_EQ(AcceptedTorn(bytes, restore.at(name)), 0) << name;
    ++checked;
  }
  EXPECT_EQ(checked, restore.size());
}

TEST(FormatPinTest, ResumeRejectsAnUnknownRegressor) {
  const std::string dir = CopyFixture("format_pin_regressor");
  auto fixture = SnapshotReader::Open(kFixtureDir + "/checkpoint.kea");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  std::string meta = fixture.value().Section("meta").value();
  // covered_seq, now, has_round (u32), fit begin/end, deploy hour and the
  // round count precede the regressor kind.
  const size_t regressor_at = 8 + 8 + 4 + 8 + 8 + 8 + 8;
  ASSERT_LT(static_cast<unsigned char>(meta[regressor_at]), 3);
  meta[regressor_at] = 7;
  ReplaceSection(dir, "meta", meta);
  EXPECT_EQ(KeaSession::Resume(dir).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kea::apps
