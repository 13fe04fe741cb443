#include "core/experiment_fabric.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"
#include "sim/fluid_engine.h"

namespace kea::core {
namespace {

// The fabric tests run many full schedules (and the crash sweep runs one
// schedule dozens of times), so the world is small: 120 machines in racks of
// 8, which gives every SKU of the default catalog at least one whole rack
// and the bigger SKUs several — enough for genuinely concurrent flights.
constexpr int kMachines = 120;
constexpr int kMachinesPerRack = 8;
constexpr int kPreludeHours = 30;

sim::ClusterSpec SmallRackSpec() {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = kMachines;
  spec.machines_per_rack = kMachinesPerRack;
  return spec;
}

/// Guardrails that cannot trip on real telemetry — admission/scheduling tests
/// exercise the fabric's concurrency rules, not the guardrail math.
GuardrailThresholds Generous() {
  GuardrailThresholds t;
  t.max_latency_ratio = 100.0;
  t.max_queue_p99_ratio = 100.0;
  t.queue_p99_floor_ms = 1e12;
  t.max_utilization = 1.0;
  return t;
}

/// Guardrails no treatment can satisfy — latency would have to drop 99%.
GuardrailThresholds Impossible() {
  GuardrailThresholds t;
  t.max_latency_ratio = 0.01;
  return t;
}

/// A standalone (non-durable) fabric world: cluster + engine + telemetry,
/// with a prelude already simulated so every flight has a baseline window.
struct FabricFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  std::unique_ptr<sim::FluidEngine> engine;
  telemetry::TelemetryStore store;
  sim::HourIndex now = 0;

  FabricFixture() {
    cluster =
        std::move(sim::Cluster::Build(model.catalog(), SmallRackSpec())).value();
    engine = std::make_unique<sim::FluidEngine>(&model, &cluster, &workload,
                                                sim::FluidEngine::Options());
    EXPECT_TRUE(Advance(kPreludeHours).ok());
  }

  Status Advance(int hours) {
    KEA_RETURN_IF_ERROR(engine->Run(now, hours, &store));
    now += hours;
    return Status::OK();
  }

  ExperimentFabric::AdvanceFn AdvanceFn() {
    return [this](int hours) { return Advance(hours); };
  }

  StatusOr<ExperimentFabric::Report> Run(
      const std::vector<FlightRequest>& requests,
      ExperimentFabric::Options options = ExperimentFabric::Options()) {
    ExperimentFabric fabric(options);
    return fabric.Run(requests, &cluster, &store, now, AdvanceFn(), nullptr);
  }

  std::vector<int> MachinesOfSku(sim::SkuId sku) const {
    std::vector<int> out;
    for (const sim::Machine& m : cluster.machines()) {
      if (m.sku == sku) out.push_back(m.id);
    }
    return out;
  }

  std::string ConfigSignature() const {
    StateWriter w;
    for (const sim::Machine& m : cluster.machines()) {
      w.PutInt(m.id);
      w.PutInt(m.sc);
      w.PutInt(m.max_containers);
      w.PutInt(m.max_queued_containers);
      w.PutDouble(m.power_cap_fraction);
      w.PutBool(m.feature_enabled);
    }
    return w.Release();
  }
};

FlightRequest FeatureFlight(const std::string& name, sim::SkuId sku,
                            int per_arm = 4, int windows = 2) {
  FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.treatment.feature_enabled = true;
  req.machines_per_arm = per_arm;
  req.window_hours = 6;
  req.num_windows = windows;
  req.guardrails = Generous();
  return req;
}

FlightRequest CapacityFlight(const std::string& name, sim::SkuId sku,
                             int max_containers, int windows = 1) {
  FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.treatment.max_containers = max_containers;
  req.machines_per_arm = 4;
  req.window_hours = 6;
  req.num_windows = windows;
  req.guardrails = Generous();
  return req;
}

/// Every machine of the conclusion's arms, both arms.
std::vector<int> ArmMachines(const ExperimentFabric::FlightConclusion& c) {
  std::vector<int> all = c.treatment_machines;
  all.insert(all.end(), c.control_machines.begin(), c.control_machines.end());
  return all;
}

/// No machine may sit in two flights whose windows overlap, and within one
/// flight the arms must be disjoint — the partitioning invariant.
void ExpectNonInterfering(const ExperimentFabric::Report& report) {
  const auto& flights = report.flights;
  for (const auto& c : flights) {
    if (!c.admitted) continue;
    std::unordered_set<int> treat(c.treatment_machines.begin(),
                                  c.treatment_machines.end());
    for (int id : c.control_machines) {
      EXPECT_EQ(treat.count(id), 0u)
          << c.name << ": machine " << id << " in both arms";
    }
  }
  for (size_t a = 0; a < flights.size(); ++a) {
    for (size_t b = a + 1; b < flights.size(); ++b) {
      const auto& fa = flights[a];
      const auto& fb = flights[b];
      if (!fa.admitted || !fb.admitted) continue;
      if (fa.start_hour >= fb.end_hour || fb.start_hour >= fa.end_hour) {
        continue;  // Serialized: windows don't overlap.
      }
      std::vector<int> ma = ArmMachines(fa);
      std::unordered_set<int> mb_set;
      for (int id : ArmMachines(fb)) mb_set.insert(id);
      for (int id : ma) {
        EXPECT_EQ(mb_set.count(id), 0u)
            << fa.name << " and " << fb.name << " share machine " << id;
      }
      std::set<int> ra(fa.racks.begin(), fa.racks.end());
      for (int rack : fb.racks) {
        EXPECT_EQ(ra.count(rack), 0u)
            << fa.name << " and " << fb.name << " share rack " << rack;
      }
    }
  }
}

std::string FabricReportSignature(const ExperimentFabric::Report& report) {
  StateWriter w;
  w.PutU64(report.admitted);
  w.PutU64(report.rejected);
  w.PutU64(report.trips);
  w.PutU64(report.max_concurrent);
  w.PutU64(report.peak_flighted_machines);
  w.PutI64(report.end_hour);
  w.PutU64(report.flights.size());
  for (const auto& c : report.flights) {
    w.PutString(ExperimentFabric::EncodeConclusion(c));
  }
  return w.Release();
}

// ---------------------------------------------------------------------------
// Admission, partitioning, and the typed interference reasons.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, ConcurrentFlightsOnDisjointRacks) {
  FabricFixture fx;
  std::string before = fx.ConfigSignature();
  auto report = fx.Run({FeatureFlight("a", 4), FeatureFlight("b", 4)});
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->admitted, 2u);
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_EQ(report->trips, 0u);
  EXPECT_EQ(report->max_concurrent, 2u);
  EXPECT_EQ(report->peak_flighted_machines, 16u);
  for (const auto& c : report->flights) {
    EXPECT_TRUE(c.admitted);
    EXPECT_EQ(c.deferrals, 0u);
    EXPECT_EQ(c.start_hour, kPreludeHours);
    EXPECT_EQ(c.end_hour, kPreludeHours + 12);
    EXPECT_EQ(c.treatment_machines.size(), 4u);
    EXPECT_EQ(c.control_machines.size(), 4u);
    EXPECT_TRUE(c.effect_ok) << c.name;
    EXPECT_FALSE(c.tripped);
  }
  ExpectNonInterfering(*report);
  // Every flight concluded: the fleet configuration is fully restored.
  EXPECT_EQ(fx.ConfigSignature(), before);
  EXPECT_EQ(fx.now, kPreludeHours + 12);
}

TEST(ExperimentFabricTest, ImpossibleRequestIsRejectedWithTypedReason) {
  FabricFixture fx;
  // SKU 0 has 12 machines total; two 50-machine arms can never exist.
  FlightRequest big = FeatureFlight("too-big", 0, /*per_arm=*/50);
  auto report = fx.Run({big, FeatureFlight("ok", 4)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rejected, 1u);
  EXPECT_FALSE(report->flights[0].admitted);
  EXPECT_EQ(report->flights[0].rejected,
            InterferenceReason::kInsufficientMachines);
  EXPECT_TRUE(report->flights[1].admitted);
}

TEST(ExperimentFabricTest, RequestLargerThanBudgetIsRejectedPermanently) {
  FabricFixture fx;
  ExperimentFabric::Options options;
  options.max_flighted_fraction = 0.05;  // Budget: 6 of 120 machines.
  auto report = fx.Run({FeatureFlight("over-budget", 4)}, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rejected, 1u);
  EXPECT_EQ(report->flights[0].rejected,
            InterferenceReason::kBlastRadiusBudget);
}

TEST(ExperimentFabricTest, CapacityKnobFlightsSerialize) {
  FabricFixture fx;
  // Both flights move max_containers — they couple through the scheduler, so
  // the second must wait for the first even though their racks are disjoint.
  auto report =
      fx.Run({CapacityFlight("cap-a", 3, 20), CapacityFlight("cap-b", 5, 18)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  EXPECT_EQ(report->max_concurrent, 1u);
  const auto& first = report->flights[0];
  const auto& second = report->flights[1];
  EXPECT_EQ(first.deferrals, 0u);
  EXPECT_GT(second.deferrals, 0u);
  EXPECT_EQ(second.start_hour, first.end_hour);
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, SharedRackDefersUntilReservationExpires) {
  FabricFixture fx;
  // SKU 0 spans racks {0 (8 machines), 1 (4 machines)}; a 4-per-arm flight
  // needs the full rack 0, so two of them can only run back to back.
  auto report = fx.Run({FeatureFlight("rack-a", 0, 4, 1),
                        FeatureFlight("rack-b", 0, 4, 1)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  const auto& first = report->flights[0];
  const auto& second = report->flights[1];
  EXPECT_GT(second.deferrals, 0u);
  EXPECT_EQ(second.start_hour, first.end_hour);
  EXPECT_EQ(first.racks, second.racks);  // Same rack, reused after expiry.
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, BlastRadiusBudgetDefersThirdFlight) {
  FabricFixture fx;
  ExperimentFabric::Options options;
  options.max_flighted_fraction = 0.134;  // Budget: 16 machines.
  auto report = fx.Run({FeatureFlight("a", 4, 4, 1), FeatureFlight("b", 4, 4, 2),
                        FeatureFlight("c", 4, 4, 1)},
                       options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 3u);
  EXPECT_LE(report->peak_flighted_machines, 16u);
  const auto& third = report->flights[2];
  EXPECT_GT(third.deferrals, 0u);
  // Admitted the moment flight "a" concluded and freed budget.
  EXPECT_EQ(third.start_hour, report->flights[0].end_hour);
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, PinnedPoolIsInterleavedWithinRacks) {
  FabricFixture fx;
  std::vector<int> sku4 = fx.MachinesOfSku(4);
  ASSERT_GE(sku4.size(), 16u);
  FlightRequest req = FeatureFlight("pinned", 4, 8, 1);
  req.pinned_machines.assign(sku4.begin(), sku4.begin() + 16);

  auto report = fx.Run({req});
  ASSERT_TRUE(report.ok()) << report.status();
  const auto& c = report->flights[0];
  ASSERT_TRUE(c.admitted);
  std::unordered_set<int> pool(req.pinned_machines.begin(),
                               req.pinned_machines.end());
  for (int id : ArmMachines(c)) EXPECT_EQ(pool.count(id), 1u);
  // "Every other machine in the same rack": each rack contributes to both
  // arms, so per rack the arm counts differ by at most one.
  std::map<int, std::pair<int, int>> per_rack;
  for (int id : c.treatment_machines) {
    ++per_rack[fx.cluster.machines()[static_cast<size_t>(id)].rack].first;
  }
  for (int id : c.control_machines) {
    ++per_rack[fx.cluster.machines()[static_cast<size_t>(id)].rack].second;
  }
  for (const auto& [rack, counts] : per_rack) {
    EXPECT_LE(std::abs(counts.first - counts.second), 1) << "rack " << rack;
  }
}

TEST(ExperimentFabricTest, PinnedOverlapSerializesOnSharedMachines) {
  FabricFixture fx;
  std::vector<int> sku4 = fx.MachinesOfSku(4);
  ASSERT_GE(sku4.size(), 8u);
  FlightRequest a = FeatureFlight("pin-a", 4, 4, 1);
  a.pinned_machines.assign(sku4.begin(), sku4.begin() + 8);
  FlightRequest b = FeatureFlight("pin-b", 4, 4, 1);
  b.pinned_machines = a.pinned_machines;  // Identical pool: direct conflict.

  auto report = fx.Run({a, b});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  EXPECT_GT(report->flights[1].deferrals, 0u);
  EXPECT_EQ(report->flights[1].start_hour, report->flights[0].end_hour);
  ExpectNonInterfering(*report);
}

// ---------------------------------------------------------------------------
// Guardrail trips: per-flight rollback, blast isolation, zombie reservations.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, TripRollsBackOnlyTheTrippedFlight) {
  FabricFixture fx;
  std::string before = fx.ConfigSignature();
  FlightRequest doomed = FeatureFlight("doomed", 4, 4, 4);
  doomed.guardrails = Impossible();
  auto report = fx.Run({doomed, FeatureFlight("healthy", 3, 4, 4)});
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->trips, 1u);
  const auto& tripped = report->flights[0];
  const auto& healthy = report->flights[1];
  EXPECT_TRUE(tripped.tripped);
  EXPECT_EQ(tripped.tripped_window, 0);
  EXPECT_FALSE(tripped.trip_eval.pass());
  // Ended at its first window boundary, not its planned horizon.
  EXPECT_EQ(tripped.end_hour, tripped.start_hour + 6);
  EXPECT_EQ(tripped.machines_restored, 4u);

  EXPECT_FALSE(healthy.tripped);
  EXPECT_TRUE(healthy.effect_ok);
  EXPECT_EQ(healthy.end_hour, healthy.start_hour + 24);
  EXPECT_EQ(fx.ConfigSignature(), before);
}

TEST(ExperimentFabricTest, TrippedReservationBlocksRackUntilPlannedHorizon) {
  FabricFixture fx;
  // "doomed" trips at hour +6 but planned to run 24h on SKU 0's only viable
  // rack. Its reservation must keep holding the rack: post-rollback carryover
  // must not seed the queued "next" flight early.
  FlightRequest doomed = FeatureFlight("doomed", 0, 4, 4);
  doomed.guardrails = Impossible();
  auto report = fx.Run({doomed, FeatureFlight("next", 0, 4, 1)});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->flights[0].tripped);
  EXPECT_EQ(report->flights[0].end_hour, kPreludeHours + 6);
  EXPECT_EQ(report->flights[1].start_hour, kPreludeHours + 24);
}

// ---------------------------------------------------------------------------
// Determinism: thread-count invariance of the whole schedule.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, ReportIsBitIdenticalAcrossThreadCounts) {
  std::vector<FlightRequest> requests = {FeatureFlight("a", 4, 4, 2),
                                         FeatureFlight("b", 4, 4, 2),
                                         FeatureFlight("c", 3, 4, 2)};
  requests.push_back(FeatureFlight("doomed", 5, 4, 2));
  requests.back().guardrails = Impossible();

  std::string reference;
  for (int threads : {1, 4, 8}) {
    FabricFixture fx;
    ExperimentFabric::Options options;
    options.num_threads = threads;
    auto report = fx.Run(requests, options);
    ASSERT_TRUE(report.ok()) << report.status();
    std::string signature = FabricReportSignature(*report);
    if (reference.empty()) {
      reference = signature;
      EXPECT_EQ(report->trips, 1u);
      EXPECT_EQ(report->admitted, 4u);
    } else {
      EXPECT_EQ(signature, reference) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, Validation) {
  FabricFixture fx;
  ExperimentFabric fabric((ExperimentFabric::Options()));
  auto advance = fx.AdvanceFn();
  std::vector<FlightRequest> good = {FeatureFlight("ok", 4)};

  EXPECT_EQ(fabric.Run(good, nullptr, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Run(good, &fx.cluster, nullptr, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      fabric.Run({}, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  ExperimentFabric::Options bad;
  bad.max_flighted_fraction = 0.0;
  EXPECT_EQ(ExperimentFabric(bad)
                .Run(good, &fx.cluster, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad = ExperimentFabric::Options();
  bad.num_threads = 0;
  EXPECT_EQ(ExperimentFabric(bad)
                .Run(good, &fx.cluster, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  std::vector<FlightRequest> zero_arm = good;
  zero_arm[0].machines_per_arm = 0;
  EXPECT_EQ(
      fabric.Run(zero_arm, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  std::vector<FlightRequest> empty_patch = good;
  empty_patch[0].treatment = ConfigPatch();
  EXPECT_EQ(
      fabric.Run(empty_patch, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  std::vector<FlightRequest> bad_pin = good;
  bad_pin[0].pinned_machines = {99999};
  EXPECT_EQ(
      fabric.Run(bad_pin, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kOutOfRange);

  // A journal context must carry a ledger.
  JournalContext no_ledger;
  EXPECT_EQ(
      fabric.Run(good, &fx.cluster, &fx.store, fx.now, advance, &no_ledger)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(ExperimentFabricTest, ConclusionCodecRoundTrips) {
  ExperimentFabric::FlightConclusion c;
  c.flight = 3;
  c.name = "codec";
  c.admitted = true;
  c.rejected = InterferenceReason::kNone;
  c.deferrals = 2;
  c.start_hour = 30;
  c.end_hour = 54;
  c.racks = {9, 10};
  c.treatment_machines = {72, 74, 76};
  c.control_machines = {73, 75, 77};
  c.tripped = true;
  c.tripped_window = 1;
  c.effect_ok = true;
  c.data_read.metric = "data_read_mb";
  c.data_read.percent_change = 0.12;
  c.data_read.t_value = 4.5;
  c.data_read.significant = true;
  c.data_read_ci_low = 0.07;
  c.data_read_ci_high = 0.17;
  c.treatment_down_hours = 5;
  c.control_down_hours = 4;
  c.machines_restored = 3;

  ExperimentFabric::FlightConclusion back;
  ASSERT_TRUE(ExperimentFabric::DecodeConclusion(
                  ExperimentFabric::EncodeConclusion(c), &back)
                  .ok());
  EXPECT_EQ(ExperimentFabric::EncodeConclusion(back),
            ExperimentFabric::EncodeConclusion(c));
  EXPECT_EQ(back.name, "codec");
  EXPECT_EQ(back.racks, c.racks);
  EXPECT_EQ(back.treatment_machines, c.treatment_machines);
  EXPECT_TRUE(back.tripped);
  EXPECT_EQ(back.treatment_down_hours, 5u);

  EXPECT_FALSE(
      ExperimentFabric::DecodeConclusion("torn", &back).ok());
}

}  // namespace
}  // namespace kea::core

// ---------------------------------------------------------------------------
// The durable fabric: session wiring, resume equivalence, and the exhaustive
// mid-flight crash sweep (kill at every journaled transition, resume, demand
// a bit-identical world).
// ---------------------------------------------------------------------------

namespace kea::apps {
namespace {

using core::ExperimentFabric;
using core::FlightRequest;

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

KeaSession::Config SweepConfig() {
  KeaSession::Config config;
  config.machines = kea::core::kMachines;
  config.seed = 7;
  config.cluster = kea::core::SmallRackSpec();
  return config;
}

std::unique_ptr<KeaSession> MakeDurableSession(const std::string& dir) {
  auto session = std::move(KeaSession::Create(SweepConfig())).value();
  EXPECT_TRUE(session->EnableDurability(dir).ok());
  EXPECT_TRUE(session->Simulate(kea::core::kPreludeHours).ok());
  return session;
}

/// The sweep queue covers every fabric transition kind: a two-window feature
/// flight, a capacity-knob flight, and a second knob flight that must defer
/// (knob interaction) and start at a later boundary. `tripping` swaps the
/// feature flight's guardrails for impossible ones so the rollback step runs.
std::vector<FlightRequest> SweepRequests(bool tripping) {
  FlightRequest f0 = kea::core::FeatureFlight("feature-sku4", 4, 4, 2);
  if (tripping) f0.guardrails = kea::core::Impossible();
  return {f0, kea::core::CapacityFlight("cap-sku3", 3, 20, 1),
          kea::core::CapacityFlight("cap-sku5", 5, 18, 1)};
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

/// Exactly-once at the patch level: across the whole ledger no machine is
/// recorded twice under the same flight key — a re-driven flight start
/// records nothing new, so a double-applied patch would surface here.
void ExpectFlightPatchesExactlyOnce(const core::DeploymentLedger& ledger) {
  auto table = ParseCsv(ledger.AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  int key_col = table->ColumnIndex("key");
  int kind_col = table->ColumnIndex("kind");
  int machine_col = table->ColumnIndex("machine_id");
  ASSERT_GE(key_col, 0);
  std::set<std::string> seen;
  for (const auto& row : table->rows) {
    if (row[static_cast<size_t>(kind_col)] != "flight_machine") continue;
    std::string patch = row[static_cast<size_t>(key_col)] + "#" +
                        row[static_cast<size_t>(machine_col)];
    EXPECT_TRUE(seen.insert(patch).second) << "machine patched twice: " << patch;
  }
}

struct FabricReference {
  std::string report_sig;
  std::string cluster_sig;
  std::string store_csv;
  std::string ledger_csv;
  sim::HourIndex now = 0;
  size_t trips = 0;
  std::vector<std::pair<std::string, int>> crash_points;
};

FabricReference RunFabricReference(const std::string& dir,
                                   const std::vector<FlightRequest>& requests) {
  FabricReference ref;
  auto session = MakeDurableSession(dir);
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  auto report =
      session->RunExperimentFabric(requests, KeaSession::FabricRoundOptions());
  ref.crash_points = CrashPoints::Reached();
  CrashPoints::Reset();
  EXPECT_TRUE(report.ok()) << report.status();
  if (!report.ok()) return ref;
  ref.report_sig = kea::core::FabricReportSignature(*report);
  ref.cluster_sig = ClusterSignature(*session);
  ref.store_csv = session->store().ToCsv();
  ref.ledger_csv = session->ledger()->AppliedChangesCsv();
  ref.now = session->now();
  ref.trips = report->trips;
  return ref;
}

/// Kill the fabric at every (crash point, occurrence) the reference run
/// reached, resume from disk, re-drive the same queue, and demand the final
/// world be bit-identical to the uninterrupted run.
void SweepFabricCrashPoints(const FabricReference& ref,
                            const std::vector<FlightRequest>& requests,
                            const std::string& tag) {
  ASSERT_FALSE(ref.crash_points.empty());
  int scenario = 0;
  for (const auto& [point, hits] : ref.crash_points) {
    for (int occurrence = 0; occurrence < hits; ++occurrence, ++scenario) {
      SCOPED_TRACE(point + " occurrence " + std::to_string(occurrence));
      const std::string dir =
          FreshDir("fabric_crash_" + tag + "_" + std::to_string(scenario) +
                   "_" + Slug(point));
      auto session = MakeDurableSession(dir);

      CrashPoints::Arm(point, occurrence);
      auto crashed = session->RunExperimentFabric(
          requests, KeaSession::FabricRoundOptions());
      CrashPoints::Reset();
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
      session.reset();  // Process death: in-memory state is gone.

      auto resumed = KeaSession::Resume(dir);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      auto rerun = (*resumed)->RunExperimentFabric(
          requests, KeaSession::FabricRoundOptions());
      ASSERT_TRUE(rerun.ok()) << rerun.status();

      EXPECT_EQ(kea::core::FabricReportSignature(*rerun), ref.report_sig);
      EXPECT_EQ(ClusterSignature(**resumed), ref.cluster_sig);
      EXPECT_EQ((*resumed)->now(), ref.now);
      EXPECT_EQ((*resumed)->store().ToCsv(), ref.store_csv);
      EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ref.ledger_csv);
      ExpectFlightPatchesExactlyOnce(*(*resumed)->ledger());
    }
  }
}

TEST(FabricCrashRecoveryTest, DurableRunMatchesPlainRun) {
  // Journaling and per-step checkpoints must not change the schedule: the
  // durable fabric's report is bit-identical to a plain session's.
  auto plain = std::move(KeaSession::Create(SweepConfig())).value();
  ASSERT_TRUE(plain->Simulate(kea::core::kPreludeHours).ok());
  auto plain_report = plain->RunExperimentFabric(
      SweepRequests(false), KeaSession::FabricRoundOptions());
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();

  auto durable = MakeDurableSession(FreshDir("fabric_durable_vs_plain"));
  auto durable_report = durable->RunExperimentFabric(
      SweepRequests(false), KeaSession::FabricRoundOptions());
  ASSERT_TRUE(durable_report.ok()) << durable_report.status();

  EXPECT_EQ(kea::core::FabricReportSignature(*plain_report),
            kea::core::FabricReportSignature(*durable_report));
  EXPECT_EQ(ClusterSignature(*plain), ClusterSignature(*durable));
  EXPECT_EQ(plain->store().ToCsv(), durable->store().ToCsv());
}

TEST(FabricCrashRecoveryTest, FabricBeforeTelemetryIsRejected) {
  auto session = std::move(KeaSession::Create(SweepConfig())).value();
  EXPECT_EQ(session
                ->RunExperimentFabric(SweepRequests(false),
                                      KeaSession::FabricRoundOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(FabricCrashRecoveryTest, SecondFabricRunGetsFreshKeys) {
  auto session = MakeDurableSession(FreshDir("fabric_second_run"));
  auto first = session->RunExperimentFabric(SweepRequests(false),
                                            KeaSession::FabricRoundOptions());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = session->RunExperimentFabric(SweepRequests(false),
                                             KeaSession::FabricRoundOptions());
  ASSERT_TRUE(second.ok()) << second.status();
  // Both runs journaled under distinct key prefixes; nothing was replayed
  // into the other.
  EXPECT_TRUE(session->ledger()->Has("fab/0/finished"));
  EXPECT_TRUE(session->ledger()->Has("fab/1/finished"));
  EXPECT_TRUE(session->ledger()->Has("fab0/f0/started"));
  EXPECT_TRUE(session->ledger()->Has("fab1/f0/started"));
  EXPECT_EQ(second->admitted, 3u);
  ExpectFlightPatchesExactlyOnce(*session->ledger());
}

TEST(FabricCrashRecoveryTest, ResumedRunMustPassTheSameQueue) {
  const std::string dir = FreshDir("fabric_queue_mismatch");
  auto session = MakeDurableSession(dir);
  CrashPoints::Arm("fabric.advanced.post_record", 0);
  auto crashed = session->RunExperimentFabric(SweepRequests(false),
                                              KeaSession::FabricRoundOptions());
  CrashPoints::Reset();
  ASSERT_FALSE(crashed.ok());
  session.reset();

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  std::vector<FlightRequest> short_queue = {SweepRequests(false)[0]};
  EXPECT_EQ((*resumed)
                ->RunExperimentFabric(short_queue,
                                      KeaSession::FabricRoundOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(FabricCrashRecoveryTest, SweepEveryCrashPointInConvergingFabric) {
  auto requests = SweepRequests(false);
  FabricReference ref =
      RunFabricReference(FreshDir("fabric_ref_converge"), requests);
  ASSERT_FALSE(ref.report_sig.empty());
  EXPECT_EQ(ref.trips, 0u);

  // The matrix must cover both halves of every journaled fabric transition —
  // died-before-journaling and journaled-but-not-durable — plus the torn
  // ledger append and the checkpoint rename.
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  for (const char* expected :
       {"session.fabric_started.pre", "session.fabric_started.post_record",
        "fabric.admitted.pre", "fabric.admitted.post_record",
        "fabric.started.pre", "fabric.started.post_record",
        "fabric.advanced.pre", "fabric.advanced.post_record",
        "fabric.verdict.pre", "fabric.verdict.post_record",
        "fabric.concluded.pre", "fabric.concluded.post_record",
        "session.fabric_finished.pre", "session.fabric_finished.post_record",
        "journal.append.torn", "atomic_write.before_rename"}) {
    EXPECT_TRUE(names.count(expected)) << "unreached crash point: " << expected;
  }

  SweepFabricCrashPoints(ref, requests, "converge");
}

TEST(FabricCrashRecoveryTest, SweepEveryCrashPointThroughFlightRollback) {
  // Impossible guardrails on the feature flight: it trips at its first
  // boundary, so this sweep covers the per-flight rollback step — a crash
  // between the journaled rollback intent and its effect must not lose the
  // rollback, and must not touch the surviving flights.
  auto requests = SweepRequests(true);
  const std::string pre_dir = FreshDir("fabric_ref_rollback_pre");
  std::string pre_fabric_cluster;
  {
    auto session = MakeDurableSession(pre_dir);
    pre_fabric_cluster = ClusterSignature(*session);
  }
  FabricReference ref =
      RunFabricReference(FreshDir("fabric_ref_rollback"), requests);
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_EQ(ref.trips, 1u);
  // Every flight concluded or rolled back: exact pre-fabric configuration.
  EXPECT_EQ(ref.cluster_sig, pre_fabric_cluster);
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  EXPECT_TRUE(names.count("fabric.rollback.pre"));
  EXPECT_TRUE(names.count("fabric.rollback.post_record"));

  SweepFabricCrashPoints(ref, requests, "rollback");
}

TEST(FabricCrashRecoveryTest, CleanResumeAfterFabricIsBitIdentical) {
  const std::string dir = FreshDir("fabric_clean_resume");
  auto session = MakeDurableSession(dir);
  auto report = session->RunExperimentFabric(SweepRequests(false),
                                             KeaSession::FabricRoundOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(session->Simulate(12).ok());

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->now(), session->now());
  EXPECT_EQ(ClusterSignature(**resumed), ClusterSignature(*session));
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());

  // The twins diverge from identical state: both simulate on bit-identically,
  // and the resumed twin's next fabric run journals under fresh keys.
  ASSERT_TRUE(session->Simulate(24).ok());
  ASSERT_TRUE((*resumed)->Simulate(24).ok());
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());
  auto next = (*resumed)->RunExperimentFabric(SweepRequests(false),
                                              KeaSession::FabricRoundOptions());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE((*resumed)->ledger()->Has("fab/1/finished"));
}

}  // namespace
}  // namespace kea::apps
