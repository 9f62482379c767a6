#pragma once

/// Span-based tracing with Chrome trace-event export.
///
/// Instrumented code marks regions with the RAII macros:
///
///   void StackThermalModel::solve_steady(...) {
///     AQUA_TRACE_SCOPE_C("thermal.solve_steady", "thermal");
///     ...
///   }
///
/// When tracing is off (the default) a scope is a single relaxed atomic
/// load — no clock read, no allocation, no buffer write — so the macros can
/// stay in hot paths permanently. When on (env `AQUA_TRACE`, see below)
/// each scope records a Chrome "complete" event ("ph":"X") into a
/// per-thread buffer; buffers flush into the process-wide tracer when the
/// thread exits or a writer collects them, and `write()` emits a JSON file
/// loadable by chrome://tracing / Perfetto and by `trace_tools summarize`.
///
/// Env contract (read once at first use):
///   AQUA_TRACE unset, "" or "0"  -> tracing disabled
///   AQUA_TRACE=1 / true          -> enabled, output TRACE_aqua.json (the
///                                   bench harness rewrites this default to
///                                   TRACE_<bench>.json)
///   AQUA_TRACE=<path>            -> enabled, output to <path>
/// An env-enabled tracer auto-writes its file at process exit if nothing
/// wrote it explicitly.
///
/// Span names and categories must be string literals (or otherwise outlive
/// the tracer): events store the pointers, which keeps the enabled hot path
/// allocation-free.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aqua::obs {

/// Sentinel for "no argument attached to this span".
inline constexpr std::int64_t kTraceNoArg =
    std::numeric_limits<std::int64_t>::min();

/// One completed span. Timestamps are microseconds since the tracer epoch
/// (first use), matching Chrome's expected unit.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::int64_t arg = kTraceNoArg;  ///< shown as args:{"v": ...} when set
};

/// Process-wide trace collector. Leaky singleton: never destroyed, so
/// thread-exit flushes and atexit writers are safe in any order.
class Tracer {
 public:
  /// The process tracer, configured from AQUA_TRACE on first call.
  static Tracer& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Programmatic override (tests, tools). Does not change the output path.
  void set_enabled(bool on);

  /// Overrides the output path; marks it explicitly chosen.
  void set_path(std::string path);
  [[nodiscard]] std::string path() const;
  /// True when the path came from AQUA_TRACE=<path> or set_path (so the
  /// bench harness keeps it instead of substituting TRACE_<bench>.json).
  [[nodiscard]] bool has_explicit_path() const;

  /// Appends one completed span to the calling thread's buffer.
  void record(const char* name, const char* category, double ts_us,
              double dur_us, std::int64_t arg = kTraceNoArg);

  /// Microseconds since the tracer epoch.
  [[nodiscard]] double now_us() const;

  /// Stable small integer id of the calling thread (1-based, assigned on
  /// first record from that thread).
  [[nodiscard]] std::uint32_t this_thread_id();

  /// Copies out every recorded event (flushing nothing; live thread
  /// buffers are read under their locks).
  [[nodiscard]] std::vector<TraceEvent> snapshot_events() const;

  /// Number of recorded events across all buffers.
  [[nodiscard]] std::size_t event_count() const;

  /// Serializes all events as a Chrome trace JSON object
  /// ({"traceEvents": [...]}).
  [[nodiscard]] std::string to_json() const;

  /// Writes the Chrome trace JSON to `path` (empty = the configured path)
  /// and returns the path written.
  std::string write(const std::string& path = "");

  /// True once write() has run (the atexit auto-writer skips then).
  [[nodiscard]] bool written() const;

  /// Drops all recorded events (tests).
  void clear();

 private:
  Tracer();
  friend struct TracerTls;
  struct ThreadBuffer;

  ThreadBuffer& local_buffer();
  void retire(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  // registry of thread buffers + config
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<TraceEvent> retired_;  // events of exited threads
  std::string path_ = "TRACE_aqua.json";
  bool explicit_path_ = false;
  bool written_ = false;
  std::uint32_t next_tid_ = 1;
};

/// RAII span. Captures the start time only when tracing is enabled at
/// construction; the destructor then records the complete event.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "aqua",
                      std::int64_t arg = kTraceNoArg) noexcept {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) {
      name_ = name;
      category_ = category;
      arg_ = arg;
      start_us_ = tracer.now_us();
    }
  }
  ~TraceScope() {
    if (name_) {
      Tracer& tracer = Tracer::instance();
      tracer.record(name_, category_, start_us_, tracer.now_us() - start_us_,
                    arg_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  double start_us_ = 0.0;
  std::int64_t arg_ = kTraceNoArg;
};

#define AQUA_OBS_CONCAT_INNER(a, b) a##b
#define AQUA_OBS_CONCAT(a, b) AQUA_OBS_CONCAT_INNER(a, b)

/// Traces the enclosing scope under `name` (category "aqua").
#define AQUA_TRACE_SCOPE(name)                                        \
  ::aqua::obs::TraceScope AQUA_OBS_CONCAT(aqua_trace_scope_,          \
                                          __COUNTER__) {              \
    name                                                              \
  }
/// Traces the enclosing scope with an explicit category.
#define AQUA_TRACE_SCOPE_C(name, category)                            \
  ::aqua::obs::TraceScope AQUA_OBS_CONCAT(aqua_trace_scope_,          \
                                          __COUNTER__) {              \
    name, category                                                    \
  }
/// Traces the enclosing scope with a category and an int64 argument
/// (rendered as args:{"v": arg} in the Chrome trace).
#define AQUA_TRACE_SCOPE_ARG(name, category, arg)                     \
  ::aqua::obs::TraceScope AQUA_OBS_CONCAT(aqua_trace_scope_,          \
                                          __COUNTER__) {              \
    name, category, static_cast<std::int64_t>(arg)                    \
  }

}  // namespace aqua::obs
