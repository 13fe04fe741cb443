#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.h"
#include "telemetry/perf_monitor.h"
#include "telemetry/record.h"
#include "telemetry/store.h"

namespace kea::telemetry {
namespace {

MachineHourRecord MakeRecord(int machine, int hour, sim::ScId sc, sim::SkuId sku,
                             double containers, double util, double tasks,
                             double data_mb, double latency) {
  MachineHourRecord r;
  r.machine_id = machine;
  r.hour = hour;
  r.rack = machine / 10;
  r.sc = sc;
  r.sku = sku;
  r.avg_running_containers = containers;
  r.cpu_utilization = util;
  r.tasks_finished = tasks;
  r.data_read_mb = data_mb;
  r.avg_task_latency_s = latency;
  r.cpu_time_core_s = util * 32.0 * 3600.0;
  return r;
}

TEST(RecordTest, DerivedMetrics) {
  MachineHourRecord r = MakeRecord(0, 0, 0, 0, 5.0, 0.5, 100.0, 5000.0, 20.0);
  // BytesPerSecond = data / (tasks * latency) = 5000 / 2000 = 2.5.
  EXPECT_DOUBLE_EQ(r.BytesPerSecond(), 2.5);
  EXPECT_DOUBLE_EQ(r.BytesPerCpuTime(), 5000.0 / (0.5 * 32.0 * 3600.0));

  MachineHourRecord idle;
  EXPECT_DOUBLE_EQ(idle.BytesPerSecond(), 0.0);
  EXPECT_DOUBLE_EQ(idle.BytesPerCpuTime(), 0.0);
}

TEST(RecordTest, CsvRowMatchesHeaderWidth) {
  MachineHourRecord r = MakeRecord(3, 7, 1, 2, 5.0, 0.5, 100.0, 5000.0, 20.0);
  std::string row;
  AppendMachineHourCsvRow(r, &row);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(row.back(), '\n');
  EXPECT_EQ(static_cast<size_t>(std::count(row.begin(), row.end(), ',')) + 1,
            MachineHourCsvHeader().size());
}

TEST(StoreTest, AppendAndQuery) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 1, 0, 1, 6, 0.6, 120, 6000, 18));
  EXPECT_EQ(store.size(), 2u);

  auto all = store.Query(nullptr);
  EXPECT_EQ(all.size(), 2u);
  auto hour0 = store.Query([](const MachineHourRecord& r) { return r.hour == 0; });
  ASSERT_EQ(hour0.size(), 1u);
  EXPECT_EQ(hour0[0].machine_id, 0);
}

TEST(StoreTest, GroupByKey) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(2, 0, 1, 3, 5, 0.5, 100, 5000, 20));
  auto grouped = store.GroupByKey();
  EXPECT_EQ(grouped.size(), 2u);
  EXPECT_EQ((grouped[{0, 0}].size()), 2u);
  EXPECT_EQ((grouped[{1, 3}].size()), 1u);
}

TEST(StoreTest, ExtractField) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(1, 0, 0, 0, 5, 0.7, 100, 5000, 20));
  auto utils = store.Extract(
      [](const MachineHourRecord& r) { return r.cpu_utilization; });
  EXPECT_EQ(utils, (std::vector<double>{0.5, 0.7}));
}

TEST(StoreTest, HourRange) {
  TelemetryStore store;
  EXPECT_EQ(store.HourRange().status().code(), StatusCode::kFailedPrecondition);
  store.Append(MakeRecord(0, 3, 0, 0, 5, 0.5, 100, 5000, 20));
  store.Append(MakeRecord(0, 9, 0, 0, 5, 0.5, 100, 5000, 20));
  auto range = store.HourRange();
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 3);
  EXPECT_EQ(range->second, 9);
}

TEST(StoreTest, CsvRoundTrip) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 5, 0.5, 100, 5000, 20));
  auto parsed = kea::ParseCsv(store.ToCsv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 1u);
  int col = parsed->ColumnIndex("cpu_utilization");
  ASSERT_GE(col, 0);
  EXPECT_NEAR(std::stod(parsed->rows[0][static_cast<size_t>(col)]), 0.5, 1e-9);
}

// The CSV the store wrote before it had its own encoder: CsvWriter cells
// from std::to_string and snprintf("%.17g"). Checkpoints hold these bytes.
std::string ReferenceCsv(const std::vector<MachineHourRecord>& records) {
  auto d = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  CsvWriter writer;
  writer.SetHeader(MachineHourCsvHeader());
  for (const MachineHourRecord& r : records) {
    EXPECT_TRUE(writer
                    .AppendRow({std::to_string(r.machine_id), std::to_string(r.hour),
                                std::to_string(r.rack), std::to_string(r.sku),
                                std::to_string(r.sc), d(r.avg_running_containers),
                                d(r.cpu_utilization), d(r.tasks_finished),
                                d(r.data_read_mb), d(r.avg_task_latency_s),
                                d(r.cpu_time_core_s), d(r.queued_containers),
                                d(r.queue_latency_ms), d(r.rejected_containers),
                                d(r.cores_used), d(r.ssd_used_gb), d(r.ram_used_gb),
                                d(r.network_used_mbps), d(r.power_watts)})
                    .ok());
  }
  return writer.ToString();
}

TEST(StoreTest, EncoderMatchesPrintfOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two53 = 9007199254740992.0;
  const std::vector<double> doubles = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // Largest denormal.
      DBL_MIN, DBL_MAX, -DBL_MAX, 1e-300, -1e-300,
      two53 - 1, two53, two53 + 2, -two53, 1e16, 1e17, 1e22, 1e21,
      0.1, 1.0 / 3.0, 123456789012345678.0, 1e-5, 1e-4, 0.5, -2.5, 280.5};
  const std::vector<int> ints = {0, 1, -1, -7, 42, -100000, INT_MAX, INT_MIN};
  std::vector<MachineHourRecord> records;
  for (size_t i = 0; i < doubles.size() + ints.size(); ++i) {
    MachineHourRecord r;
    const int v = ints[i % ints.size()];
    r.machine_id = v;
    r.hour = -v / 2;
    r.rack = ints[(i + 1) % ints.size()];
    r.sku = ints[(i + 2) % ints.size()];
    r.sc = ints[(i + 3) % ints.size()];
    // Each edge value visits every double column across the records.
    double* fields[] = {&r.avg_running_containers, &r.cpu_utilization,
                        &r.tasks_finished,         &r.data_read_mb,
                        &r.avg_task_latency_s,     &r.cpu_time_core_s,
                        &r.queued_containers,      &r.queue_latency_ms,
                        &r.rejected_containers,    &r.cores_used,
                        &r.ssd_used_gb,            &r.ram_used_gb,
                        &r.network_used_mbps,      &r.power_watts};
    for (size_t f = 0; f < std::size(fields); ++f) {
      *fields[f] = doubles[(i + f) % doubles.size()];
    }
    records.push_back(r);
  }
  TelemetryStore store;
  store.AppendAll(records);
  const std::string expected = ReferenceCsv(records);
  EXPECT_EQ(store.ToCsv(), expected);
  EXPECT_EQ(store.EncodedCsv(), expected);
  EXPECT_EQ(TelemetryStore().ToCsv(), ReferenceCsv({}));
}

TEST(StoreTest, EncodedCsvEqualsToCsvAfterEveryMutation) {
  std::vector<MachineHourRecord> pool;
  for (int i = 0; i < 40; ++i) {
    pool.push_back(MakeRecord(i, i / 4, i % 3, i % 2, 5 + i, 0.01 * i,
                              100 + i, 5000.5 * i, 20.0 / (i + 1)));
  }
  TelemetryStore store;
  EXPECT_EQ(store.EncodedCsv(), store.ToCsv());  // Header only.
  EXPECT_EQ(store.EncodedCsv(), ReferenceCsv({}));

  // Batches of varying size through both Append and AppendAll.
  size_t next = 0;
  for (size_t batch : {1u, 3u, 0u, 7u, 2u}) {
    if (batch % 2 == 1) {
      for (size_t i = 0; i < batch; ++i) store.Append(pool[next++]);
    } else {
      store.AppendAll({pool.begin() + next, pool.begin() + next + batch});
      next += batch;
    }
    EXPECT_EQ(store.EncodedCsv(), store.ToCsv()) << "after " << next;
  }
  EXPECT_EQ(store.EncodedCsv(), ReferenceCsv({pool.begin(), pool.begin() + next}));

  // A copy taken while the cache lags behind the records carries a cache
  // that matches its own records.
  store.Append(pool[next++]);
  TelemetryStore copy = store;
  copy.Append(pool[next++]);
  EXPECT_EQ(copy.EncodedCsv(), copy.ToCsv());
  EXPECT_EQ(store.EncodedCsv(), store.ToCsv());
  EXPECT_LT(store.size(), copy.size());

  // Assigning a shorter store over a longer, fully cached one.
  TelemetryStore shorter;
  shorter.Append(pool[0]);
  copy = shorter;
  EXPECT_EQ(copy.EncodedCsv(), copy.ToCsv());
  copy.AppendAll({pool.begin() + 30, pool.end()});
  EXPECT_EQ(copy.EncodedCsv(), copy.ToCsv());

  // Clear() drops the cache; re-appending encodes from the header again.
  store.Clear();
  EXPECT_EQ(store.EncodedCsv(), ReferenceCsv({}));
  store.AppendAll({pool.begin() + 5, pool.begin() + 9});
  EXPECT_EQ(store.EncodedCsv(), store.ToCsv());
  EXPECT_EQ(store.EncodedCsv(), ReferenceCsv({pool.begin() + 5, pool.begin() + 9}));

  // A moved-from store is empty, cache included, and usable again.
  TelemetryStore moved = std::move(store);
  EXPECT_EQ(moved.EncodedCsv(), moved.ToCsv());
  store.Append(pool[1]);
  EXPECT_EQ(store.EncodedCsv(), store.ToCsv());
  EXPECT_EQ(store.EncodedCsv(), ReferenceCsv({pool[1]}));
}

TEST(PerfMonitorTest, GroupMetricsMath) {
  TelemetryStore store;
  // Two records in one group with known values.
  store.Append(MakeRecord(0, 0, 0, 0, 4.0, 0.4, 100.0, 4000.0, 10.0));
  store.Append(MakeRecord(1, 0, 0, 0, 6.0, 0.6, 300.0, 6000.0, 20.0));
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  EXPECT_EQ(g.machine_hours, 2u);
  EXPECT_EQ(g.num_machines, 2);
  EXPECT_DOUBLE_EQ(g.avg_running_containers, 5.0);
  EXPECT_DOUBLE_EQ(g.avg_cpu_utilization, 0.5);
  EXPECT_DOUBLE_EQ(g.avg_tasks_per_hour, 200.0);
  EXPECT_DOUBLE_EQ(g.avg_data_read_mb_per_hour, 5000.0);
  // Task-weighted latency: (10*100 + 20*300) / 400 = 17.5.
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 17.5);
  // Bytes/sec: 10000 MB / (100*10 + 300*20) s.
  EXPECT_DOUBLE_EQ(g.bytes_per_second, 10000.0 / 7000.0);
}

TEST(PerfMonitorTest, EmptyFilterIsError) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100, 4000, 10));
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey(
      [](const MachineHourRecord&) { return false; });
  EXPECT_EQ(metrics.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorTest, HourlyClusterUtilization) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100, 4000, 10));
  store.Append(MakeRecord(1, 0, 0, 0, 4, 0.6, 100, 4000, 10));
  store.Append(MakeRecord(0, 1, 0, 0, 4, 0.8, 100, 4000, 10));
  PerformanceMonitor monitor(&store);
  auto hourly = monitor.HourlyClusterUtilization();
  ASSERT_TRUE(hourly.ok());
  ASSERT_EQ(hourly->size(), 2u);
  EXPECT_DOUBLE_EQ((*hourly)[0].second, 0.5);
  EXPECT_DOUBLE_EQ((*hourly)[1].second, 0.8);
}

TEST(PerfMonitorTest, ClusterAverageTaskLatency) {
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4, 0.4, 100.0, 4000, 10.0));
  store.Append(MakeRecord(1, 0, 0, 1, 4, 0.4, 300.0, 4000, 30.0));
  PerformanceMonitor monitor(&store);
  auto latency = monitor.ClusterAverageTaskLatency();
  ASSERT_TRUE(latency.ok());
  EXPECT_DOUBLE_EQ(*latency, (10.0 * 100 + 30.0 * 300) / 400.0);
}

TEST(PerfMonitorTest, TotalsAndScatter) {
  TelemetryStore store;
  for (int i = 0; i < 100; ++i) {
    store.Append(MakeRecord(i, 0, 0, 0, 4, 0.5, 10.0, 100.0, 10.0));
  }
  PerformanceMonitor monitor(&store);
  EXPECT_DOUBLE_EQ(monitor.TotalDataReadMb(), 10000.0);
  EXPECT_DOUBLE_EQ(monitor.TotalTasksFinished(), 1000.0);

  auto scatter = monitor.UtilizationThroughputScatter(10);
  EXPECT_LE(scatter.size(), 12u);
  EXPECT_GE(scatter.size(), 8u);
  for (const auto& p : scatter) {
    EXPECT_DOUBLE_EQ(p.x, 0.5);
    EXPECT_DOUBLE_EQ(p.y, 100.0);
  }
}

void ExpectAllFinite(const GroupMetrics& g) {
  for (double v : {g.avg_running_containers, g.avg_cpu_utilization,
                   g.avg_tasks_per_hour, g.avg_data_read_mb_per_hour,
                   g.avg_task_latency_s, g.bytes_per_second, g.bytes_per_cpu_time,
                   g.avg_queued_containers, g.p99_queue_latency_ms,
                   g.avg_power_watts}) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(PerfMonitorRobustnessTest, DegenerateGroupsYieldFiniteZeros) {
  // A whole group of idle machines: zero tasks, zero exec time, zero
  // cpu-seconds. Every ratio in the aggregate divides by one of those sums.
  TelemetryStore store;
  for (int m = 0; m < 4; ++m) {
    auto r = MakeRecord(m, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0);
    r.cpu_time_core_s = 0.0;
    store.Append(r);
  }
  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  ExpectAllFinite(g);
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(g.bytes_per_second, 0.0);
  EXPECT_DOUBLE_EQ(g.bytes_per_cpu_time, 0.0);

  // Zero finished tasks means the task-weighted mean is undefined; that is
  // reported as an error, never as NaN.
  EXPECT_EQ(monitor.ClusterAverageTaskLatency().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorRobustnessTest, NonFiniteRecordsAreSkippedEverywhere) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  TelemetryStore store;
  store.Append(MakeRecord(0, 0, 0, 0, 4.0, 0.4, 100.0, 4000.0, 10.0));
  store.Append(MakeRecord(1, 0, 0, 0, 6.0, 0.6, 300.0, 6000.0, 20.0));
  auto poison = MakeRecord(2, 0, 0, 0, 5.0, kNan, kNan, kNan, kNan);
  poison.cpu_time_core_s = kNan;
  store.Append(poison);
  auto inf_poison = MakeRecord(3, 1, 0, 0, 5.0, 0.5, 100.0,
                               std::numeric_limits<double>::infinity(), 10.0);
  store.Append(inf_poison);

  PerformanceMonitor monitor(&store);
  auto metrics = monitor.GroupMetricsByKey();
  ASSERT_TRUE(metrics.ok());
  const GroupMetrics& g = metrics->at({0, 0});
  ExpectAllFinite(g);
  // Same numbers as if the poison records never existed.
  EXPECT_EQ(g.machine_hours, 2u);
  EXPECT_DOUBLE_EQ(g.avg_task_latency_s, 17.5);

  auto hourly = monitor.HourlyClusterUtilization();
  ASSERT_TRUE(hourly.ok());
  for (const auto& [hour, util] : *hourly) EXPECT_TRUE(std::isfinite(util));

  // The NaN record contributes nothing; the Inf-data record still counts
  // here because its latency/task fields are fine:
  // (10*100 + 20*300 + 10*100) / 500 = 16.
  auto latency = monitor.ClusterAverageTaskLatency();
  ASSERT_TRUE(latency.ok());
  EXPECT_TRUE(std::isfinite(*latency));
  EXPECT_DOUBLE_EQ(*latency, 16.0);

  EXPECT_DOUBLE_EQ(monitor.TotalDataReadMb(), 10000.0);
  EXPECT_DOUBLE_EQ(monitor.TotalTasksFinished(), 500.0);

  for (const auto& day : RollUpDaily(store)) {
    EXPECT_TRUE(std::isfinite(day.tasks_finished));
    EXPECT_TRUE(std::isfinite(day.avg_task_latency_s));
    EXPECT_TRUE(std::isfinite(day.data_read_mb));
  }
}

TEST(PerfMonitorRobustnessTest, DefaultOptionsAreBitIdenticalToPlain) {
  TelemetryStore store;
  for (int m = 0; m < 7; ++m) {
    store.Append(
        MakeRecord(m, m % 3, m % 2, m % 4, 4.0 + m, 0.1 * m, 50.0 * m, 1000.0 * m,
                   5.0 + m));
  }
  PerformanceMonitor monitor(&store);
  auto plain = monitor.GroupMetricsByKey();
  auto robust = monitor.GroupMetricsByKey(nullptr, AggregationOptions());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(robust.ok());
  ASSERT_EQ(plain->size(), robust->size());
  for (const auto& [key, g] : *plain) {
    const GroupMetrics& r = robust->at(key);
    EXPECT_EQ(g.machine_hours, r.machine_hours);
    EXPECT_EQ(g.num_machines, r.num_machines);
    // Exact equality on purpose: the default robust path must reproduce the
    // plain aggregation bit for bit.
    EXPECT_EQ(g.avg_running_containers, r.avg_running_containers);
    EXPECT_EQ(g.avg_cpu_utilization, r.avg_cpu_utilization);
    EXPECT_EQ(g.avg_tasks_per_hour, r.avg_tasks_per_hour);
    EXPECT_EQ(g.avg_data_read_mb_per_hour, r.avg_data_read_mb_per_hour);
    EXPECT_EQ(g.avg_task_latency_s, r.avg_task_latency_s);
    EXPECT_EQ(g.bytes_per_second, r.bytes_per_second);
    EXPECT_EQ(g.bytes_per_cpu_time, r.bytes_per_cpu_time);
    EXPECT_EQ(g.p99_queue_latency_ms, r.p99_queue_latency_ms);
  }
}

TEST(PerfMonitorRobustnessTest, MinSupportDropsThinGroups) {
  TelemetryStore store;
  for (int h = 0; h < 10; ++h) {
    store.Append(MakeRecord(0, h, 0, 0, 4.0, 0.5, 100.0, 4000.0, 10.0));
  }
  store.Append(MakeRecord(1, 0, 1, 1, 4.0, 0.5, 100.0, 4000.0, 10.0));

  PerformanceMonitor monitor(&store);
  AggregationOptions options;
  options.min_support = 5;
  auto metrics = monitor.GroupMetricsByKey(nullptr, options);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->size(), 1u);
  EXPECT_TRUE(metrics->count({0, 0}));

  // When nothing survives the screen, the query reports it as an error
  // rather than returning an empty map.
  options.min_support = 100;
  EXPECT_EQ(monitor.GroupMetricsByKey(nullptr, options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PerfMonitorRobustnessTest, WinsorizingBoundsSingleRecordLeverage) {
  TelemetryStore store;
  for (int m = 0; m < 20; ++m) {
    store.Append(MakeRecord(m, 0, 0, 0, 4.0, 0.5, 100.0, 100.0, 10.0));
  }
  // One wild machine-hour claims to have read 100 TB.
  store.Append(MakeRecord(20, 0, 0, 0, 4.0, 0.5, 100.0, 1.0e8, 10.0));

  PerformanceMonitor monitor(&store);
  auto plain = monitor.GroupMetricsByKey();
  ASSERT_TRUE(plain.ok());
  EXPECT_GT(plain->at({0, 0}).avg_data_read_mb_per_hour, 1.0e6);

  AggregationOptions options;
  options.winsorize_fraction = 0.05;
  auto robust = monitor.GroupMetricsByKey(nullptr, options);
  ASSERT_TRUE(robust.ok());
  const GroupMetrics& g = robust->at({0, 0});
  // The outlier is clamped to the 95th-percentile value (100), so the mean
  // collapses back to the honest level.
  EXPECT_NEAR(g.avg_data_read_mb_per_hour, 100.0, 1.0);
  // Untouched metrics keep their plain values.
  EXPECT_DOUBLE_EQ(g.avg_cpu_utilization, 0.5);
}

TEST(FilterTest, HourRangeFilter) {
  auto f = HourRangeFilter(2, 5);
  EXPECT_FALSE(f(MakeRecord(0, 1, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_TRUE(f(MakeRecord(0, 2, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_TRUE(f(MakeRecord(0, 4, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 5, 0, 0, 1, 0.1, 1, 1, 1)));
}

TEST(FilterTest, MachineSetFilter) {
  auto f = MachineSetFilter({1, 3});
  EXPECT_TRUE(f(MakeRecord(1, 0, 0, 0, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(2, 0, 0, 0, 1, 0.1, 1, 1, 1)));
}

TEST(FilterTest, GroupAndAndFilters) {
  auto f = AndFilter(GroupFilter({0, 2}), HourRangeFilter(0, 10));
  EXPECT_TRUE(f(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 5, 1, 2, 1, 0.1, 1, 1, 1)));
  EXPECT_FALSE(f(MakeRecord(0, 15, 0, 2, 1, 0.1, 1, 1, 1)));

  // Null sub-filters are treated as pass-through.
  auto g = AndFilter(nullptr, GroupFilter({0, 2}));
  EXPECT_TRUE(g(MakeRecord(0, 5, 0, 2, 1, 0.1, 1, 1, 1)));
}

}  // namespace
}  // namespace kea::telemetry
