#include "telemetry/record.h"

#include <charconv>

namespace kea::telemetry {

double MachineHourRecord::BytesPerSecond() const {
  double total_exec_s = tasks_finished * avg_task_latency_s;
  if (total_exec_s <= 0.0) return 0.0;
  return data_read_mb / total_exec_s;
}

double MachineHourRecord::BytesPerCpuTime() const {
  if (cpu_time_core_s <= 0.0) return 0.0;
  return data_read_mb / cpu_time_core_s;
}

std::vector<std::string> MachineHourCsvHeader() {
  return {"machine_id", "hour", "rack", "sku", "sc",
          "avg_running_containers", "cpu_utilization", "tasks_finished",
          "data_read_mb", "avg_task_latency_s", "cpu_time_core_s",
          "queued_containers", "queue_latency_ms", "rejected_containers", "cores_used",
          "ssd_used_gb", "ram_used_gb", "network_used_mbps", "power_watts"};
}

void AppendMachineHourCsvRow(const MachineHourRecord& r, std::string* out) {
  // std::to_chars with chars_format::general and precision 17 is specified
  // as printf("%.17g") in the C locale, so the bytes do not depend on the
  // process locale. %.17g round-trips every finite double exactly through
  // strtod, which the checkpoint/resume path depends on: a store serialized
  // to CSV and parsed back must be bit-identical to the original.
  char row[512];  // 5 ints x 11 + 14 doubles x 24 + 19 separators fit.
  char* const last = row + sizeof(row) - 1;  // Leaves room for a separator.
  char* pos = row;
  for (int v : {r.machine_id, r.hour, r.rack, r.sku, r.sc}) {
    pos = std::to_chars(pos, last, v).ptr;
    *pos++ = ',';
  }
  for (double v : {r.avg_running_containers, r.cpu_utilization,
                   r.tasks_finished, r.data_read_mb, r.avg_task_latency_s,
                   r.cpu_time_core_s, r.queued_containers, r.queue_latency_ms,
                   r.rejected_containers, r.cores_used, r.ssd_used_gb,
                   r.ram_used_gb, r.network_used_mbps, r.power_watts}) {
    pos = std::to_chars(pos, last, v, std::chars_format::general, 17).ptr;
    *pos++ = ',';
  }
  pos[-1] = '\n';
  out->append(row, pos);
}

}  // namespace kea::telemetry
