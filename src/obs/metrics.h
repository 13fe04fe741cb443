#ifndef KEA_OBS_METRICS_H_
#define KEA_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/shard.h"

/// kea::obs — self-measurement for the tuning pipeline (DESIGN.md
/// "Observability"). This library sits BELOW kea_common so that ThreadPool,
/// Journal and Logger can be instrumented; it therefore depends on nothing
/// but the standard library (no Status, no logging).
///
/// Two invariants shape the API:
///   1. Hot-path cost is one relaxed atomic RMW — on THREAD-LOCAL shard
///      storage (obs/shard.h), so concurrent writers never share a cache
///      line — when enabled, and one relaxed load when disabled. Instrument
///      pointers are stable for the process lifetime — call sites cache
///      them in function-local statics.
///   2. Determinism contract: every instrument is either kDeterministic
///      (counts logical events — bit-identical across thread counts and
///      runs) or kTiming (derived from wall clocks — excluded from the
///      deterministic snapshot exports). `determinism_test` and `obs_test`
///      enforce the split. Sharding preserves the contract: integer
///      accumulation is exact in any fold order, and deterministic
///      histograms observe integer-valued data so their double sums are
///      too (see DESIGN.md "Observability v2").
namespace kea::obs {

// ---------------------------------------------------------------------------
// Kill switches. Metrics default ON (cheap), tracing defaults OFF (it
// allocates). Building with -DKEA_OBS=OFF defines KEA_OBS_DISABLED and turns
// every guard into `if (false)`, compiling the instrumentation out entirely
// — the "null sink" end of the overhead budget.
#ifdef KEA_OBS_DISABLED
inline constexpr bool MetricsEnabled() { return false; }
inline void EnableMetrics() {}
inline void DisableMetrics() {}
#else
namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}
/// Inline: this guard sits on every Counter::Increment / Histogram::Observe.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void EnableMetrics();
void DisableMetrics();
#endif

/// `s` escaped for a JSON string literal (the metric and trace exports).
std::string JsonEscape(const std::string& s);

/// Disables metrics AND tracing in one call — the runtime kill switch.
void Disable();
/// Restores the default state: metrics on, tracing off.
void Enable();

/// Export class of an instrument; fixed at creation, first caller wins.
enum class Kind {
  kDeterministic = 0,  // logical event counts; in deterministic exports
  kTiming = 1,         // wall-clock derived; timing-only exports
};

// ---------------------------------------------------------------------------
// Instruments. All methods are thread-safe; mutation is lock-free and
// lands in the calling thread's shard (obs/shard.h). Reads aggregate
// base + live shards under the shard mutex — cold paths only.

/// Monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (MetricsEnabled()) ShardRegistry::Get().AddU64(slot_, n);
  }
  uint64_t value() const { return ShardRegistry::Get().ReadU64(slot_); }

  /// Overwrites the value — ONLY for checkpoint/resume, where the restored
  /// process must report the same totals the crashed one had durably
  /// recorded. Bypasses the kill switch so resume state is never lost.
  /// Increments racing the store keep only what lands after it.
  void RestoreTo(uint64_t v) { ShardRegistry::Get().StoreU64(slot_, v); }

 private:
  friend class Registry;
  Counter() : slot_(ShardRegistry::Get().AllocateSlots(1, SlotKind::kU64)) {}
  const size_t slot_;
};

/// Last-value gauge (queue depths, config knobs currently applied, ...).
/// Deliberately NOT sharded: Set() is already a single relaxed store with
/// no RMW, and last-value semantics across shards would need per-shard
/// ordering metadata that costs more than the store it replaces.
class Gauge {
 public:
  void Set(double v) {
    if (MetricsEnabled())
      bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges; an implicit
/// +inf bucket catches the tail. Bucket counts, the event count and the
/// running sum are per-thread shard slots, so concurrent Observe() calls
/// never lock and never share cache lines.
class Histogram {
 public:
  void Observe(double v);

  uint64_t count() const { return ShardRegistry::Get().ReadU64(count_slot_); }
  double sum() const { return ShardRegistry::Get().ReadF64(sum_slot_); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; last is the +inf overflow bucket. One
  /// locked pass over the shard table — the snapshot the renders derive
  /// their count from, so count == sum(buckets) in every export.
  std::vector<uint64_t> bucket_counts() const;

  /// Quantile estimate from the bucket snapshot, q in [0, 1]. Linear
  /// interpolation inside the containing bucket; values in the +inf bucket
  /// report the last finite bound (the estimate saturates there). Relative
  /// error is bounded by the bucket growth factor — see obs_slo_test.
  /// Returns 0 for an empty histogram, mean() when there are no finite
  /// bounds (single +inf bucket: the snapshot carries no shape).
  double Quantile(double q) const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  void ResetForTestInternal();
  std::vector<double> bounds_;
  size_t first_slot_;  // bounds_.size()+1 bucket slots, then the count slot
  size_t count_slot_;
  size_t sum_slot_;
};

/// Canonical bucket ladders so dashboards line up across instruments.
std::vector<double> LatencyBucketsUs();  // 1us .. 10s, roughly 1-2-5
std::vector<double> SizeBucketsBytes();  // 64B .. 256MB, powers of 4
std::vector<double> DepthBuckets();      // 0 .. 4096, powers of 2
/// HDR-style log-spaced ladder: `count` edges starting at `start`, each
/// `growth` times the last. Quantile() relative error <= growth - 1.
std::vector<double> ExponentialBuckets(double start, double growth, int count);

// ---------------------------------------------------------------------------
// Registry: the process-wide instrument namespace. Instruments are created
// on first Get*() and live forever; the mutex guards only creation/lookup,
// never the hot path. `labels` is a pre-rendered "k=v,k=v" string (empty for
// unlabeled instruments) — rendering is the caller's job because labeled
// hot paths cache the pointer anyway.
class Registry {
 public:
  static Registry& Get();

  Counter* GetCounter(const std::string& name, const std::string& labels = "",
                      Kind kind = Kind::kDeterministic);
  Gauge* GetGauge(const std::string& name, const std::string& labels = "",
                  Kind kind = Kind::kTiming);
  /// First caller wins on bounds and kind. A later caller with DIFFERENT
  /// bounds still gets the existing instrument, but the mismatch bumps the
  /// `kea.obs.schema_mismatch` counter and logs one warning per instrument
  /// — silent first-caller-wins hid real schema bugs (ISSUE 9).
  Histogram* GetHistogram(const std::string& name, const std::string& labels,
                          std::vector<double> bounds,
                          Kind kind = Kind::kTiming);

  /// Value of a counter, or 0 if it was never created. For tests/benches.
  uint64_t CounterValue(const std::string& name,
                        const std::string& labels = "") const;

  /// Deterministic snapshot renderers. Instruments are sorted by
  /// (name, labels); kTiming instruments are included only when
  /// `include_timing` — the deterministic exports must be bit-identical
  /// across thread counts, seeds, and machines.
  ///
  /// Each render first advances the shard epoch (draining per-thread
  /// residue into the central base — the "aggregated by epoch" point) and
  /// then reads aggregated values.
  ///
  /// Snapshot consistency under concurrent writers: each histogram's
  /// exported count is derived from one bucket_counts() read, so
  /// count == sum(buckets) holds in every rendered line even while
  /// Observe() races the render (the count slot and the bucket slots are
  /// separate relaxed accumulators and may otherwise disagree transiently).
  /// The sum field remains a racing read of completed additions.
  std::string RenderText(bool include_timing = false) const;
  std::string RenderCsv(bool include_timing = false) const;
  std::string RenderJson(bool include_timing = false) const;

  /// Prometheus text exposition (metric names with '.' mapped to '_',
  /// histogram buckets cumulative with le="..." labels, _sum/_count
  /// series). Includes timing instruments by default — this is the ops
  /// surface, not the deterministic snapshot.
  std::string RenderPrometheus(bool include_timing = true) const;

  /// Zeroes every instrument (pointers stay valid). Tests only.
  void ResetForTest();

 private:
  Registry() = default;

  using Key = std::pair<std::string, std::string>;  // (name, labels)
  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    Kind kind;
    bool warned_mismatch = false;  // used by histograms only
  };

  mutable std::mutex mu_;
  std::map<Key, Entry<Counter>> counters_;
  std::map<Key, Entry<Gauge>> gauges_;
  std::map<Key, Entry<Histogram>> histograms_;
};

}  // namespace kea::obs

#endif  // KEA_OBS_METRICS_H_
