#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/trace.h"

namespace kea::obs {

#ifndef KEA_OBS_DISABLED
namespace {
// Metrics on by default: counters are the audit trail, and the enabled cost
// (one relaxed fetch_add on thread-local shard storage) is inside the
// overhead budget.
}  // namespace

namespace internal {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal

void EnableMetrics() {
  internal::g_metrics_enabled.store(true, std::memory_order_relaxed);
}
void DisableMetrics() {
  internal::g_metrics_enabled.store(false, std::memory_order_relaxed);
}
#endif

void Disable() {
  DisableMetrics();
  DisableTracing();
}

void Enable() {
  EnableMetrics();
  DisableTracing();
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  // Bucket slots and the count slot are one contiguous u64 range so a
  // single SnapshotU64 covers them; the double sum lives in its own slot.
  first_slot_ =
      ShardRegistry::Get().AllocateSlots(bounds_.size() + 2, SlotKind::kU64);
  count_slot_ = first_slot_ + bounds_.size() + 1;
  sum_slot_ = ShardRegistry::Get().AllocateSlots(1, SlotKind::kF64);
}

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  ShardRegistry& shards = ShardRegistry::Get();
  shards.AddU64(first_slot_ + b, 1);
  shards.AddU64(count_slot_, 1);
  shards.AddF64(sum_slot_, v);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  ShardRegistry::Get().SnapshotU64(first_slot_, out.size(), out.data());
  return out;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t n : counts) total += n;
  if (total == 0) return 0.0;
  if (bounds_.empty()) return mean();  // single +inf bucket: no shape
  const double target = q * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) < target) continue;
    if (i >= bounds_.size()) return bounds_.back();  // +inf: saturate
    const double lo = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
    const double hi = bounds_[i];
    const double frac =
        std::clamp((target - before) / static_cast<double>(counts[i]), 0.0, 1.0);
    return lo + frac * (hi - lo);
  }
  return bounds_.back();  // only reachable via racing writers
}

void Histogram::ResetForTestInternal() {
  ShardRegistry& shards = ShardRegistry::Get();
  for (size_t i = 0; i < bounds_.size() + 2; ++i) {
    shards.StoreU64(first_slot_ + i, 0);
  }
  shards.StoreF64(sum_slot_, 0.0);
}

std::vector<double> LatencyBucketsUs() {
  return {1,    2,    5,     10,    20,    50,    100,     200,     500,
          1000, 2000, 5000,  1e4,   2e4,   5e4,   1e5,     2e5,     5e5,
          1e6,  2e6,  5e6,   1e7};
}

std::vector<double> SizeBucketsBytes() {
  std::vector<double> b;
  for (double v = 64.0; v <= 268435456.0; v *= 4.0) b.push_back(v);
  return b;
}

std::vector<double> DepthBuckets() {
  std::vector<double> b = {0.0};
  for (double v = 1.0; v <= 4096.0; v *= 2.0) b.push_back(v);
  return b;
}

std::vector<double> ExponentialBuckets(double start, double growth, int count) {
  std::vector<double> b;
  b.reserve(count > 0 ? static_cast<size_t>(count) : 0);
  double v = start;
  for (int i = 0; i < count; ++i) {
    b.push_back(v);
    v *= growth;
  }
  return b;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::Get() {
  static Registry* r = new Registry();  // never destroyed: pointers must
  return *r;                            // outlive every static caller
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& labels, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = counters_[{name, labels}];
  if (!entry.instrument) {
    entry.instrument = std::unique_ptr<Counter>(new Counter());
    entry.kind = kind;
  }
  return entry.instrument.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& labels,
                          Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = gauges_[{name, labels}];
  if (!entry.instrument) {
    entry.instrument = std::unique_ptr<Gauge>(new Gauge());
    entry.kind = kind;
  }
  return entry.instrument.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& labels,
                                  std::vector<double> bounds, Kind kind) {
  Histogram* out = nullptr;
  bool mismatch = false;
  bool warn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = histograms_[{name, labels}];
    if (!entry.instrument) {
      entry.instrument =
          std::unique_ptr<Histogram>(new Histogram(std::move(bounds)));
      entry.kind = kind;
    } else {
      // First caller won; detect later callers asking for a different
      // schema instead of silently ignoring them.
      std::sort(bounds.begin(), bounds.end());
      if (bounds != entry.instrument->bounds()) {
        mismatch = true;
        if (!entry.warned_mismatch) {
          entry.warned_mismatch = true;
          warn = true;
        }
      }
    }
    out = entry.instrument.get();
  }
  // Outside mu_: bumping the mismatch counter re-enters the registry.
  if (mismatch) {
    GetCounter("kea.obs.schema_mismatch", "", Kind::kDeterministic)
        ->Increment();
    if (warn) {
      std::fprintf(stderr,
                   "kea::obs: histogram %s{%s} requested with mismatched "
                   "bucket bounds; first caller's schema kept\n",
                   name.c_str(), labels.c_str());
    }
  }
  return out;
}

uint64_t Registry::CounterValue(const std::string& name,
                                const std::string& labels) const {
  Counter* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find({name, labels});
    if (it == counters_.end()) return 0;
    c = it->second.instrument.get();
  }
  // Outside mu_: value() takes the shard mutex (leaf lock either way, but
  // no reason to hold both).
  return c->value();
}

namespace {

// %.17g prints doubles losslessly and identically across runs, matching the
// CSV codec's determinism guarantee (see telemetry/store.cc).
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FullName(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Registry::RenderText(bool include_timing) const {
  // The render IS the epoch boundary: per-thread residue drains into the
  // central base so the registry view is aggregated before we read.
  ShardRegistry::Get().AdvanceEpoch();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [key, entry] : counters_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    std::snprintf(line, sizeof(line), "counter %s %" PRIu64 "\n",
                  FullName(key.first, key.second).c_str(),
                  entry.instrument->value());
    out += line;
  }
  for (const auto& [key, entry] : gauges_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    out += "gauge " + FullName(key.first, key.second) + " " +
           FmtDouble(entry.instrument->value()) + "\n";
  }
  for (const auto& [key, entry] : histograms_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    const Histogram& h = *entry.instrument;
    // Snapshot consistency: the exported count is derived from the single
    // bucket read below, not from the separately-updated count slot — a
    // render concurrent with Observe() must still satisfy
    // count == sum(buckets).
    auto counts = h.bucket_counts();
    uint64_t total = 0;
    for (uint64_t n : counts) total += n;
    out += "histogram " + FullName(key.first, key.second) +
           " count=" + std::to_string(total) + " sum=" + FmtDouble(h.sum());
    out += " buckets=[";
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ",";
      if (i < h.bounds().size()) {
        out += "le";
        out += FmtDouble(h.bounds()[i]);
      } else {
        out += "inf";
      }
      out += ":";
      out += std::to_string(counts[i]);
    }
    out += "]\n";
  }
  return out;
}

std::string Registry::RenderCsv(bool include_timing) const {
  ShardRegistry::Get().AdvanceEpoch();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "kind,name,labels,field,value\n";
  for (const auto& [key, entry] : counters_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    out += "counter," + key.first + "," + key.second + ",value," +
           std::to_string(entry.instrument->value()) + "\n";
  }
  for (const auto& [key, entry] : gauges_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    out += "gauge," + key.first + "," + key.second + ",value," +
           FmtDouble(entry.instrument->value()) + "\n";
  }
  for (const auto& [key, entry] : histograms_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    const Histogram& h = *entry.instrument;
    // count derives from the same bucket read as the bucket rows (see
    // RenderText) so concurrent snapshots stay internally consistent.
    auto counts = h.bucket_counts();
    uint64_t total = 0;
    for (uint64_t n : counts) total += n;
    out += "histogram," + key.first + "," + key.second + ",count," +
           std::to_string(total) + "\n";
    out += "histogram," + key.first + "," + key.second + ",sum," +
           FmtDouble(h.sum()) + "\n";
    for (size_t i = 0; i < counts.size(); ++i) {
      std::string edge = "inf";
      if (i < h.bounds().size()) {
        edge = "le";
        edge += FmtDouble(h.bounds()[i]);
      }
      out += "histogram," + key.first + "," + key.second + ",bucket_" + edge +
             "," + std::to_string(counts[i]) + "\n";
    }
  }
  return out;
}

std::string Registry::RenderJson(bool include_timing) const {
  ShardRegistry::Get().AdvanceEpoch();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [key, entry] : counters_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(key.first) + "\",\"labels\":\"" +
           JsonEscape(key.second) +
           "\",\"value\":" + std::to_string(entry.instrument->value()) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, entry] : gauges_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(key.first) + "\",\"labels\":\"" +
           JsonEscape(key.second) +
           "\",\"value\":" + FmtDouble(entry.instrument->value()) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, entry] : histograms_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    if (!first) out += ",";
    first = false;
    const Histogram& h = *entry.instrument;
    // As in RenderText: count is the sum of one bucket snapshot, never the
    // independently-racing count slot.
    auto counts = h.bucket_counts();
    uint64_t total = 0;
    for (uint64_t n : counts) total += n;
    out += "{\"name\":\"" + JsonEscape(key.first) + "\",\"labels\":\"" +
           JsonEscape(key.second) +
           "\",\"count\":" + std::to_string(total) +
           ",\"sum\":" + FmtDouble(h.sum()) + ",\"bounds\":[";
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) out += ",";
      out += FmtDouble(h.bounds()[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(counts[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names map
// '.' (and any other illegal byte) to '_'.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out = "_" + out;
  return out;
}

// "k=v,k2=v2" -> {k="v",k2="v2"}; empty labels render as no brace block.
// `extra` (e.g. le="5") is appended when non-empty.
std::string PromLabels(const std::string& labels, const std::string& extra) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool in_value = false;
  for (char c : labels) {
    if (!in_value && c == '=') {
      out += "=\"";
      in_value = true;
    } else if (in_value && c == ',') {
      out += "\",";
      in_value = false;
    } else {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }
  if (in_value) out += '"';
  if (!extra.empty()) {
    if (!labels.empty()) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string Registry::RenderPrometheus(bool include_timing) const {
  ShardRegistry::Get().AdvanceEpoch();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // One # TYPE line per metric name; the maps are sorted by (name, labels)
  // so all series of a name are contiguous.
  std::string last_type_line;
  auto type_line = [&out, &last_type_line](const std::string& pname,
                                           const char* type) {
    std::string line = "# TYPE " + pname + " " + type + "\n";
    if (line != last_type_line) {
      out += line;
      last_type_line = line;
    }
  };
  for (const auto& [key, entry] : counters_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    const std::string pname = PromName(key.first);
    type_line(pname, "counter");
    out += pname + PromLabels(key.second, "") + " " +
           std::to_string(entry.instrument->value()) + "\n";
  }
  for (const auto& [key, entry] : gauges_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    const std::string pname = PromName(key.first);
    type_line(pname, "gauge");
    out += pname + PromLabels(key.second, "") + " " +
           FmtDouble(entry.instrument->value()) + "\n";
  }
  for (const auto& [key, entry] : histograms_) {
    if (entry.kind == Kind::kTiming && !include_timing) continue;
    const Histogram& h = *entry.instrument;
    const std::string pname = PromName(key.first);
    type_line(pname, "histogram");
    auto counts = h.bucket_counts();
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cum += counts[i];  // Prometheus buckets are cumulative
      const std::string le =
          i < h.bounds().size() ? FmtDouble(h.bounds()[i]) : "+Inf";
      out += pname + "_bucket" +
             PromLabels(key.second, "le=\"" + le + "\"") + " " +
             std::to_string(cum) + "\n";
    }
    out += pname + "_sum" + PromLabels(key.second, "") + " " +
           FmtDouble(h.sum()) + "\n";
    out += pname + "_count" + PromLabels(key.second, "") + " " +
           std::to_string(cum) + "\n";
  }
  return out;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : counters_) entry.instrument->RestoreTo(0);
  for (auto& [key, entry] : gauges_) {
    entry.instrument->bits_.store(std::bit_cast<uint64_t>(0.0),
                                  std::memory_order_relaxed);
  }
  for (auto& [key, entry] : histograms_) {
    entry.instrument->ResetForTestInternal();
  }
}

}  // namespace kea::obs
