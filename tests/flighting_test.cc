#include "core/flighting.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "common/snapshot.h"

namespace kea::core {
namespace {

sim::Cluster MakeCluster(int machines = 200) {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = machines;
  return std::move(sim::Cluster::Build(sim::SkuCatalog::Default(), spec)).value();
}

TEST(ConfigPatchTest, EmptyDetection) {
  ConfigPatch patch;
  EXPECT_TRUE(patch.empty());
  patch.feature_enabled = true;
  EXPECT_FALSE(patch.empty());
}

TEST(ApplyPatchTest, AppliesAllFields) {
  sim::Cluster cluster = MakeCluster();
  ConfigPatch patch;
  patch.max_containers = 25;
  patch.power_cap_fraction = 0.15;
  patch.feature_enabled = true;
  patch.software_config = 1;
  ASSERT_TRUE(ApplyPatch(patch, {0, 1}, &cluster).ok());
  const sim::Machine& m = cluster.machines()[0];
  EXPECT_EQ(m.max_containers, 25);
  EXPECT_DOUBLE_EQ(m.power_cap_fraction, 0.15);
  EXPECT_TRUE(m.feature_enabled);
  EXPECT_EQ(m.sc, 1);
  // Machine 2 untouched.
  EXPECT_NE(cluster.machines()[2].max_containers, 25);
}

TEST(ApplyPatchTest, Validation) {
  sim::Cluster cluster = MakeCluster();
  ConfigPatch patch;
  patch.max_containers = 0;
  EXPECT_EQ(ApplyPatch(patch, {0}, &cluster).code(), StatusCode::kInvalidArgument);

  ConfigPatch good;
  good.feature_enabled = true;
  EXPECT_EQ(ApplyPatch(good, {99999}, &cluster).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ApplyPatch(good, {0}, nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(FlightingServiceTest, CreateValidation) {
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;

  EXPECT_EQ(service.CreateFlight({"f", {}, 0, 5, patch}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CreateFlight({"f", {0}, 5, 5, patch}).status().code(),
            StatusCode::kInvalidArgument);
  ConfigPatch empty;
  EXPECT_EQ(service.CreateFlight({"f", {0}, 0, 5, empty}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.CreateFlight({"f", {0}, 0, 5, patch}).ok());
}

TEST(FlightingServiceTest, BeginAppliesAndEndRestores) {
  sim::Cluster cluster = MakeCluster();
  int original_max = cluster.machines()[0].max_containers;

  FlightingService service;
  ConfigPatch patch;
  patch.max_containers = original_max + 5;
  auto id = service.CreateFlight({"bump", {0, 1, 2}, 0, 24, patch});
  ASSERT_TRUE(id.ok());

  ASSERT_TRUE(service.Begin(*id, &cluster).ok());
  EXPECT_EQ(cluster.machines()[1].max_containers, original_max + 5);
  EXPECT_TRUE(service.IsActive(*id).value());

  ASSERT_TRUE(service.End(*id, &cluster).ok());
  EXPECT_EQ(cluster.machines()[1].max_containers, original_max);
  EXPECT_FALSE(service.IsActive(*id).value());
}

TEST(FlightingServiceTest, DoubleBeginFails) {
  sim::Cluster cluster = MakeCluster();
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;
  auto id = service.CreateFlight({"f", {0}, 0, 24, patch});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Begin(*id, &cluster).ok());
  EXPECT_EQ(service.Begin(*id, &cluster).code(), StatusCode::kFailedPrecondition);
}

TEST(FlightingServiceTest, EndWithoutBeginFails) {
  sim::Cluster cluster = MakeCluster();
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;
  auto id = service.CreateFlight({"f", {0}, 0, 24, patch});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.End(*id, &cluster).code(), StatusCode::kFailedPrecondition);
}

TEST(FlightingServiceTest, UnknownIdIsNotFound) {
  sim::Cluster cluster = MakeCluster();
  FlightingService service;
  EXPECT_EQ(service.Begin(42, &cluster).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.End(42, &cluster).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.IsActive(42).status().code(), StatusCode::kNotFound);
}

TEST(FlightingServiceTest, ScFlightRestoresGroups) {
  sim::Cluster cluster = MakeCluster();
  // Pick a machine currently on SC1.
  int target = -1;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sc == 0) {
      target = m.id;
      break;
    }
  }
  ASSERT_GE(target, 0);
  sim::MachineGroupKey old_group = cluster.machines()[static_cast<size_t>(target)].group();
  int old_size = cluster.GroupSize(old_group);

  FlightingService service;
  ConfigPatch patch;
  patch.software_config = 1;
  auto id = service.CreateFlight({"sc2", {target}, 0, 24, patch});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Begin(*id, &cluster).ok());
  EXPECT_EQ(cluster.GroupSize(old_group), old_size - 1);

  ASSERT_TRUE(service.End(*id, &cluster).ok());
  EXPECT_EQ(cluster.machines()[static_cast<size_t>(target)].sc, 0);
  EXPECT_EQ(cluster.GroupSize(old_group), old_size);
}

TEST(FlightingServiceTest, OverlappingFlightsOnDisjointMachines) {
  sim::Cluster cluster = MakeCluster();
  FlightingService service;
  ConfigPatch cap;
  cap.power_cap_fraction = 0.2;
  ConfigPatch feature;
  feature.feature_enabled = true;

  auto f1 = service.CreateFlight({"cap", {0, 1}, 0, 24, cap});
  auto f2 = service.CreateFlight({"feat", {2, 3}, 0, 24, feature});
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(service.Begin(*f1, &cluster).ok());
  ASSERT_TRUE(service.Begin(*f2, &cluster).ok());
  EXPECT_DOUBLE_EQ(cluster.machines()[0].power_cap_fraction, 0.2);
  EXPECT_TRUE(cluster.machines()[3].feature_enabled);

  ASSERT_TRUE(service.End(*f1, &cluster).ok());
  // f2 still active.
  EXPECT_TRUE(cluster.machines()[2].feature_enabled);
  EXPECT_DOUBLE_EQ(cluster.machines()[0].power_cap_fraction, 0.0);
  ASSERT_TRUE(service.End(*f2, &cluster).ok());
  EXPECT_FALSE(cluster.machines()[2].feature_enabled);
}

TEST(FlightingServiceTest, SameMachineOverlappingWindowIsRejected) {
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;
  ASSERT_TRUE(service.CreateFlight({"a", {0, 1}, 0, 24, patch}).ok());
  // Machine 1 is already flighted over [0, 24): layering a second flight on
  // it would snapshot mid-flight state and restore it out of order.
  auto overlap = service.CreateFlight({"b", {1, 2}, 12, 36, patch});
  EXPECT_EQ(overlap.status().code(), StatusCode::kFailedPrecondition);
  // Half-open windows: starting exactly when the first ends is fine.
  EXPECT_TRUE(service.CreateFlight({"c", {1, 2}, 24, 48, patch}).ok());
  // And so is an earlier window that ends exactly at the first's start.
  EXPECT_TRUE(service.CreateFlight({"d", {0}, -24, 0, patch}).ok());
}

TEST(FlightingServiceTest, PropertyNoMachineIsEverInTwoArmsAtOnce) {
  // Throw 300 random flight registrations (random machine subsets, random
  // windows) at the service and check the invariant the overlap rejection
  // exists for, independently of the rejection logic itself: across every
  // pair of *accepted* flights, no machine belongs to both while their
  // windows overlap.
  std::mt19937_64 rng(20260808);
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;
  std::vector<FlightSpec> accepted;
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    FlightSpec spec;
    spec.name = "p" + std::to_string(i);
    int start = static_cast<int>(rng() % 96);
    spec.start_hour = start;
    spec.end_hour = start + 1 + static_cast<int>(rng() % 48);
    spec.patch = patch;
    size_t count = 1 + rng() % 6;
    std::set<int> machines;
    while (machines.size() < count) {
      machines.insert(static_cast<int>(rng() % 50));
    }
    spec.machine_ids.assign(machines.begin(), machines.end());
    if (service.CreateFlight(spec).ok()) {
      accepted.push_back(spec);
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(accepted.size(), 10u);
  ASSERT_GT(rejected, 0);  // The sweep must actually provoke conflicts.
  for (size_t a = 0; a < accepted.size(); ++a) {
    for (size_t b = a + 1; b < accepted.size(); ++b) {
      if (accepted[a].start_hour >= accepted[b].end_hour ||
          accepted[b].start_hour >= accepted[a].end_hour) {
        continue;
      }
      std::set<int> in_a(accepted[a].machine_ids.begin(),
                         accepted[a].machine_ids.end());
      for (int id : accepted[b].machine_ids) {
        EXPECT_EQ(in_a.count(id), 0u)
            << "machine " << id << " in overlapping flights "
            << accepted[a].name << " and " << accepted[b].name;
      }
    }
  }
}

TEST(FlightingServiceTest, ConfigPatchCodecRoundTrips) {
  ConfigPatch patch;
  patch.max_containers = 24;
  patch.power_cap_fraction = 0.85;
  patch.feature_enabled = true;
  patch.software_config = 1;
  ConfigPatch back;
  ASSERT_TRUE(DecodeState(EncodeState(patch), &back).ok());
  EXPECT_EQ(back.max_containers, patch.max_containers);
  EXPECT_EQ(back.power_cap_fraction, patch.power_cap_fraction);
  EXPECT_EQ(back.feature_enabled, patch.feature_enabled);
  EXPECT_EQ(back.software_config, patch.software_config);

  // Unset fields stay unset through the codec.
  ConfigPatch sparse;
  sparse.feature_enabled = false;
  ConfigPatch sparse_back;
  ASSERT_TRUE(
      DecodeState(EncodeState(sparse), &sparse_back).ok());
  EXPECT_FALSE(sparse_back.max_containers.has_value());
  EXPECT_FALSE(sparse_back.power_cap_fraction.has_value());
  EXPECT_FALSE(sparse_back.software_config.has_value());
  ASSERT_TRUE(sparse_back.feature_enabled.has_value());
  EXPECT_FALSE(*sparse_back.feature_enabled);

  EXPECT_FALSE(DecodeState("torn", &back).ok());
}

TEST(FlightingServiceTest, BeginEndCycleCanRepeat) {
  sim::Cluster cluster = MakeCluster();
  FlightingService service;
  ConfigPatch patch;
  patch.feature_enabled = true;
  auto id = service.CreateFlight({"f", {0}, 0, 24, patch});
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Begin(*id, &cluster).ok());
    EXPECT_TRUE(cluster.machines()[0].feature_enabled);
    ASSERT_TRUE(service.End(*id, &cluster).ok());
    EXPECT_FALSE(cluster.machines()[0].feature_enabled);
  }
}

}  // namespace
}  // namespace kea::core
