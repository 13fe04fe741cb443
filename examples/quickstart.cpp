// Quickstart: the smallest end-to-end KEA session.
//
// 1. Build a simulated Cosmos-like cluster (the proprietary fleet is
//    replaced by the kea::sim substrate — see DESIGN.md).
// 2. Collect a week of machine-hour telemetry through the fluid engine.
// 3. Fit the What-if Engine (observational tuning: no experiments).
// 4. Ask the YARN tuner for a configuration recommendation and print it.
//
// Build & run:  ./build/examples/quickstart
//
// Set KEA_TRACE=/path/to/trace.json to record a hierarchical span trace of
// the run; open the file in https://ui.perfetto.dev or chrome://tracing.
// The same spans' self time, as collapsed stacks ("path;leaf self_ns"), is
// written to /path/to/trace.json.folded for flamegraph.pl or speedscope.

#include <cstdio>
#include <string>

#include "apps/yarn_tuner.h"
#include "core/whatif.h"
#include "obs/trace.h"
#include "sim/fluid_engine.h"
#include "telemetry/perf_monitor.h"

int main() {
  using namespace kea;

  // Tracing is off unless KEA_TRACE names an output file.
  obs::EnableTracingFromEnv();

  // --- 1. The simulated infrastructure -------------------------------------
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();

  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = 500;
  auto cluster = sim::Cluster::Build(model.catalog(), spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n",
                 cluster.status().ToString().c_str());
    return 1;
  }
  std::printf("cluster: %zu machines, %d racks, %zu machine groups\n",
              cluster->size(), cluster->num_racks(), cluster->groups().size());

  // --- 2. A week of telemetry ----------------------------------------------
  sim::FluidEngine engine(&model, &cluster.value(), &workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  if (Status s = engine.Run(0, sim::kHoursPerWeek, &store); !s.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  telemetry::PerformanceMonitor monitor(&store);
  auto latency = monitor.ClusterAverageTaskLatency();
  std::printf("telemetry: %zu machine-hours, cluster avg task latency %.1fs\n",
              store.size(), latency.value_or(0.0));

  // --- 3. Fit the What-if Engine -------------------------------------------
  auto whatif = core::WhatIfEngine::Fit(store, nullptr, core::WhatIfEngine::Options());
  if (!whatif.ok()) {
    std::fprintf(stderr, "model fitting failed: %s\n",
                 whatif.status().ToString().c_str());
    return 1;
  }
  std::printf("what-if engine: calibrated models for %zu SC-SKU groups\n",
              whatif->models().size());

  // --- 4. Optimize the YARN configuration ----------------------------------
  apps::YarnConfigTuner tuner;
  auto plan = tuner.ProposeFromEngine(*whatif, *cluster);
  if (!plan.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrecommended max_num_running_containers changes:\n");
  for (const auto& rec : plan->recommendations) {
    std::printf("  %-10s  %2d -> %2d\n", sim::GroupLabel(rec.group).c_str(),
                rec.current_max_containers, rec.recommended_max_containers);
  }
  std::printf("\npredicted capacity gain at equal latency: %+.2f%%\n",
              plan->predicted_capacity_gain * 100.0);

  // --- 5. Export the trace if KEA_TRACE was set ----------------------------
  std::string trace_path, trace_error;
  if (obs::WriteTraceFromEnv(&trace_path, &trace_error)) {
    if (!trace_path.empty()) {
      std::printf("\ntrace written to %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  } else {
    std::fprintf(stderr, "trace export failed: %s\n", trace_error.c_str());
    return 1;
  }
  return 0;
}
