#ifndef KEA_TELEMETRY_STORE_H_
#define KEA_TELEMETRY_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "telemetry/record.h"

namespace kea::telemetry {

/// Predicate over machine-hour records used by queries.
using RecordFilter = std::function<bool(const MachineHourRecord&)>;

/// In-memory column-agnostic store of machine-hour telemetry. In production
/// this is the output of the daily data-orchestration pipeline; here the
/// simulation engines append into it and KEA's performance monitor queries
/// it.
class TelemetryStore {
 public:
  TelemetryStore() = default;
  TelemetryStore(const TelemetryStore&) = default;
  TelemetryStore& operator=(const TelemetryStore&) = default;
  /// A moved-from store is empty, its encoded CSV included.
  TelemetryStore(TelemetryStore&& other) noexcept { *this = std::move(other); }
  TelemetryStore& operator=(TelemetryStore&& other) noexcept;

  void Append(const MachineHourRecord& record) { records_.push_back(record); }
  void AppendAll(const std::vector<MachineHourRecord>& records);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<MachineHourRecord>& records() const { return records_; }

  /// Returns the records matching `filter` (all records when filter is null).
  std::vector<MachineHourRecord> Query(const RecordFilter& filter) const;

  /// Returns records grouped by SC-SKU combination.
  std::map<sim::MachineGroupKey, std::vector<MachineHourRecord>> GroupByKey(
      const RecordFilter& filter = nullptr) const;

  /// Extracts one numeric field from each matching record.
  std::vector<double> Extract(const std::function<double(const MachineHourRecord&)>& field,
                              const RecordFilter& filter = nullptr) const;

  /// Hour range covered by the store: [min_hour, max_hour]. Returns
  /// FailedPrecondition when empty.
  StatusOr<std::pair<sim::HourIndex, sim::HourIndex>> HourRange() const;

  /// Serializes all records as CSV text (header + rows).
  std::string ToCsv() const;

  /// The same bytes as ToCsv(), kept between calls: each call encodes only
  /// the records appended since the previous one. Records are append-only
  /// (Append, AppendAll and Clear are the only mutators), so the cached
  /// prefix never goes stale; Clear() drops it.
  const std::string& EncodedCsv();

  /// Parses a store from CSV produced by ToCsv (or an external trace with
  /// the same header). Returns InvalidArgument on unknown columns,
  /// unparsable numbers, or identity fields (machine_id, hour, rack, sku,
  /// sc) that are not integers in int range.
  static StatusOr<TelemetryStore> FromCsv(const std::string& text);

  void Clear() {
    records_.clear();
    encoded_csv_.clear();
    encoded_rows_ = 0;
  }

 private:
  /// Appends rows [from, size()) to `out`, led by the header when `out` is
  /// empty.
  void EncodeCsv(size_t from, std::string* out) const;

  std::vector<MachineHourRecord> records_;
  std::string encoded_csv_;  ///< ToCsv() of records_[0, encoded_rows_).
  size_t encoded_rows_ = 0;
};

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_STORE_H_
