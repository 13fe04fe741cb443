#ifndef KEA_OBS_TRACE_H_
#define KEA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

/// Hierarchical span tracing (DESIGN.md "Observability"). Spans are RAII
/// scopes recorded as begin/end event pairs into per-thread buffers; the
/// merged stream exports as Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing) or aggregates into a self-time summary table.
///
/// Tracing is OFF by default — a disabled span is one relaxed load and no
/// allocation. Every timestamp in a trace is wall-clock derived, so traces
/// are kTiming artifacts by definition: they are never part of the
/// deterministic exports and never feed back into tuning decisions.
namespace kea::obs {

#ifdef KEA_OBS_DISABLED
inline constexpr bool TraceEnabled() { return false; }
inline void EnableTracing() {}
inline void DisableTracing() {}
#else
bool TraceEnabled();
void EnableTracing();
void DisableTracing();
#endif

/// Typed key/value annotations attached to a span's begin event.
using Annotations = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  enum class Phase { kBegin, kEnd };
  Phase phase = Phase::kBegin;
  std::string name;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint64_t ts_ns = 0;      // steady-clock ns since tracer epoch
  uint32_t tid = 0;        // dense tracer-assigned thread id, from 1
  Annotations args;
};

/// One row of the aggregated self-time table: total is inclusive wall time,
/// self excludes time spent in same-thread child spans.
struct SelfTimeRow {
  std::string name;
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  /// Records a begin event and pushes the span on this thread's stack.
  /// Returns the span id, or 0 when tracing is disabled (the matching
  /// EndSpan(0, ...) is a no-op). Parent is the innermost open span on this
  /// thread, else the thread's default parent (set by ThreadPool so worker
  /// tasks nest under the dispatching ParallelFor span).
  uint64_t BeginSpan(const char* name, Annotations args = {});
  void EndSpan(uint64_t span_id, const char* name);

  /// Innermost open span on the calling thread (0 if none).
  uint64_t CurrentSpanId() const;

  /// Cross-thread parent propagation: spans begun on this thread with an
  /// empty stack adopt `span_id` as parent. Returns the previous value so
  /// callers can restore it (see ThreadPool::DrainIndices).
  uint64_t ExchangeThreadDefaultParent(uint64_t span_id);

  /// Per-thread buffer bound: once a thread's buffer holds this many
  /// events, further BeginSpan calls on it are DROPPED (counted in
  /// dropped_span_count() and the exported `obs.trace.dropped_spans`
  /// counter) so week-long traced runs cannot grow memory without bound.
  /// End events for already-open spans always append, so the trace stays
  /// well-formed (ValidateChromeTrace passes). 0 = unlimited.
  void SetMaxEventsPerThread(size_t max_events);
  size_t max_events_per_thread() const;
  uint64_t dropped_span_count() const;

  /// Drops all recorded events, restarts span ids from 1, and zeroes the
  /// dropped-span count. Only call with no spans open.
  void Clear();

  size_t event_count() const;

  /// All events, thread-major, in per-thread record order (within a thread
  /// the stream is well-nested by construction).
  std::vector<TraceEvent> Events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}. Each span is a "B"/"E"
  /// pair with span/parent ids and annotations in "args".
  std::string ExportChromeTrace() const;

  /// Writes ExportChromeTrace() to `path`; false + *error on failure.
  bool WriteChromeTraceFile(const std::string& path,
                            std::string* error = nullptr) const;

  /// Fixed-width table of per-span-name totals, sorted by total desc.
  std::string SelfTimeSummary() const;

 private:
  struct ThreadBuf {
    mutable std::mutex mu;
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  Tracer();
  ThreadBuf* LocalBuf();
  uint64_t NowNs() const;

  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
  std::atomic<uint64_t> next_span_{1};
  // Default cap: ~1M events/thread (order 100MB worst case) — far above any
  // test or example, low enough that an always-on weeklong run stays flat.
  std::atomic<size_t> max_events_per_thread_{1u << 20};
  std::atomic<uint64_t> dropped_spans_{0};
  uint64_t epoch_ns_ = 0;
};

/// RAII span scope. Prefer the KEA_TRACE_SPAN macro.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) : name_(name) {
    if (TraceEnabled()) id_ = Tracer::Get().BeginSpan(name);
  }
  SpanGuard(const char* name, Annotations args) : name_(name) {
    if (TraceEnabled()) id_ = Tracer::Get().BeginSpan(name, std::move(args));
  }
  /// Lazy-annotation form used by KEA_TRACE_SPAN: `make_args` is only
  /// invoked when tracing is on, so annotation strings (std::to_string and
  /// friends) cost nothing on the disabled path.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<Annotations, F&>>>
  SpanGuard(const char* name, F&& make_args) : name_(name) {
    if (TraceEnabled()) id_ = Tracer::Get().BeginSpan(name, make_args());
  }
  ~SpanGuard() {
    if (id_ != 0) Tracer::Get().EndSpan(id_, name_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
};

#define KEA_OBS_CONCAT_INNER(a, b) a##b
#define KEA_OBS_CONCAT(a, b) KEA_OBS_CONCAT_INNER(a, b)
/// KEA_TRACE_SPAN("whatif.fit", {{"groups", "12"}}); — traces the enclosing
/// scope. The annotations are wrapped in a lambda so their construction is
/// skipped entirely when tracing is off.
#define KEA_TRACE_SPAN(name, ...)                                  \
  ::kea::obs::SpanGuard KEA_OBS_CONCAT(kea_trace_span_, __LINE__)( \
      name, [&]() -> ::kea::obs::Annotations {                     \
        return ::kea::obs::Annotations(__VA_ARGS__);               \
      })

// ---------------------------------------------------------------------------
// Trace validation: a small self-contained JSON parser + well-formedness
// checker, shared by obs_test and the `trace_check` CLI used in CI.

struct TraceValidation {
  bool ok = false;
  std::string error;
  size_t events = 0;
  size_t begins = 0;
  size_t ends = 0;
  size_t threads = 0;
  size_t max_depth = 0;
  /// Per-name begin counts, sorted by name.
  std::vector<std::pair<std::string, size_t>> name_counts;
};

/// Checks that `json` is syntactically valid JSON, has a traceEvents array,
/// every B has a matching same-thread E (same name and span id, LIFO order),
/// per-thread timestamps are non-decreasing, and every non-zero parent id
/// refers to a known span that is the enclosing one when the stack is
/// non-empty.
TraceValidation ValidateChromeTrace(const std::string& json);

/// Reads KEA_TRACE from the environment; when set and non-empty, enables
/// tracing and returns true. Call once at tool startup.
bool EnableTracingFromEnv();

/// When KEA_TRACE is set, writes the collected trace there, plus its
/// flamegraph-ready collapsed stacks (ExportFoldedStacks) to "<path>.folded"
/// (feed to flamegraph.pl / speedscope). Returns false (with *error) on write
/// failure, true otherwise (including "not set").
bool WriteTraceFromEnv(std::string* path_out = nullptr,
                       std::string* error = nullptr);

/// Aggregates self-times from an event stream (exposed for tests).
std::vector<SelfTimeRow> ComputeSelfTimes(const std::vector<TraceEvent>& events);

/// Collapsed-stack ("folded") export of the same self-times: one
/// "path;leaf <self_ns>" line per distinct same-thread span path, merged
/// across threads, sorted by path. Summed per leaf name, the self_ns equal
/// ComputeSelfTimes' self_us * 1000.
std::string ExportFoldedStacks(const std::vector<TraceEvent>& events);

}  // namespace kea::obs

#endif  // KEA_OBS_TRACE_H_
