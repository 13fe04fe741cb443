#include "telemetry/store.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "common/csv.h"

namespace kea::telemetry {

TelemetryStore& TelemetryStore::operator=(TelemetryStore&& other) noexcept {
  if (this != &other) {
    records_ = std::move(other.records_);
    encoded_csv_ = std::move(other.encoded_csv_);
    encoded_rows_ = other.encoded_rows_;
    other.Clear();
  }
  return *this;
}

void TelemetryStore::AppendAll(const std::vector<MachineHourRecord>& records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<MachineHourRecord> TelemetryStore::Query(const RecordFilter& filter) const {
  if (!filter) return records_;
  std::vector<MachineHourRecord> out;
  for (const auto& r : records_) {
    if (filter(r)) out.push_back(r);
  }
  return out;
}

std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>>
TelemetryStore::GroupByKey(const RecordFilter& filter) const {
  std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>> out;
  for (const auto& r : records_) {
    if (filter && !filter(r)) continue;
    out[r.group()].push_back(r);
  }
  return out;
}

std::vector<double> TelemetryStore::Extract(
    const std::function<double(const MachineHourRecord&)>& field,
    const RecordFilter& filter) const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (filter && !filter(r)) continue;
    out.push_back(field(r));
  }
  return out;
}

StatusOr<std::pair<sim::HourIndex, sim::HourIndex>> TelemetryStore::HourRange() const {
  if (records_.empty()) {
    return Status::FailedPrecondition("telemetry store is empty");
  }
  sim::HourIndex lo = records_.front().hour;
  sim::HourIndex hi = lo;
  for (const auto& r : records_) {
    lo = std::min(lo, r.hour);
    hi = std::max(hi, r.hour);
  }
  return std::make_pair(lo, hi);
}

StatusOr<TelemetryStore> TelemetryStore::FromCsv(const std::string& text) {
  // ToCsv() terminates every row — including the last — with '\n'. Text that
  // does not end in a newline is therefore a truncation artifact, and its
  // final row may hold a silently shortened number ("280.5" cut to "280."
  // parses fine but means something else). Reject it outright rather than
  // fabricating a value.
  if (text.empty() || text.back() != '\n') {
    return Status::InvalidArgument(
        "telemetry CSV does not end in a newline (truncated?)");
  }
  KEA_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  std::vector<std::string> header = MachineHourCsvHeader();
  std::vector<int> index;
  index.reserve(header.size());
  for (const std::string& column : header) {
    int i = table.ColumnIndex(column);
    if (i < 0) return Status::InvalidArgument("missing column: " + column);
    index.push_back(i);
  }

  auto num = [](const std::string& cell) -> StatusOr<double> {
    char* end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() || *end != '\0') {
      return Status::InvalidArgument("unparsable number '" + cell + "'");
    }
    return v;
  };

  // Identity fields must be integers in int range: truncating "3.5" to 3
  // would invent a machine, and casting "1e300" or "nan" to int is undefined.
  auto integer = [](const std::string& cell) -> StatusOr<int> {
    int v = 0;
    const char* end = cell.data() + cell.size();
    auto [ptr, ec] = std::from_chars(cell.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument("identity field is not an int: '" +
                                     cell + "'");
    }
    return v;
  };

  TelemetryStore store;
  for (const auto& row : table.rows) {
    auto cell = [&](size_t i) -> const std::string& {
      return row[static_cast<size_t>(index[i])];
    };
    MachineHourRecord r;
    KEA_ASSIGN_OR_RETURN(r.machine_id, integer(cell(0)));
    KEA_ASSIGN_OR_RETURN(r.hour, integer(cell(1)));
    KEA_ASSIGN_OR_RETURN(r.rack, integer(cell(2)));
    KEA_ASSIGN_OR_RETURN(r.sku, integer(cell(3)));
    KEA_ASSIGN_OR_RETURN(r.sc, integer(cell(4)));
    KEA_ASSIGN_OR_RETURN(r.avg_running_containers, num(cell(5)));
    KEA_ASSIGN_OR_RETURN(r.cpu_utilization, num(cell(6)));
    KEA_ASSIGN_OR_RETURN(r.tasks_finished, num(cell(7)));
    KEA_ASSIGN_OR_RETURN(r.data_read_mb, num(cell(8)));
    KEA_ASSIGN_OR_RETURN(r.avg_task_latency_s, num(cell(9)));
    KEA_ASSIGN_OR_RETURN(r.cpu_time_core_s, num(cell(10)));
    KEA_ASSIGN_OR_RETURN(r.queued_containers, num(cell(11)));
    KEA_ASSIGN_OR_RETURN(r.queue_latency_ms, num(cell(12)));
    KEA_ASSIGN_OR_RETURN(r.rejected_containers, num(cell(13)));
    KEA_ASSIGN_OR_RETURN(r.cores_used, num(cell(14)));
    KEA_ASSIGN_OR_RETURN(r.ssd_used_gb, num(cell(15)));
    KEA_ASSIGN_OR_RETURN(r.ram_used_gb, num(cell(16)));
    KEA_ASSIGN_OR_RETURN(r.network_used_mbps, num(cell(17)));
    KEA_ASSIGN_OR_RETURN(r.power_watts, num(cell(18)));
    store.Append(r);
  }
  return store;
}

void TelemetryStore::EncodeCsv(size_t from, std::string* out) const {
  if (out->empty()) {
    const std::vector<std::string> header = MachineHourCsvHeader();
    for (const std::string& column : header) {
      *out += column;
      *out += ',';
    }
    out->back() = '\n';
  }
  for (size_t i = from; i < records_.size(); ++i) {
    AppendMachineHourCsvRow(records_[i], out);
  }
}

std::string TelemetryStore::ToCsv() const {
  std::string out;
  EncodeCsv(0, &out);
  return out;
}

const std::string& TelemetryStore::EncodedCsv() {
  EncodeCsv(encoded_rows_, &encoded_csv_);
  encoded_rows_ = records_.size();
  return encoded_csv_;
}

}  // namespace kea::telemetry
