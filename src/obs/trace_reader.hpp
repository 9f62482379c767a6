#pragma once

/// Reading side of the observability formats: a small recursive-descent
/// JSON parser (tolerant of whitespace, strict about structure) plus
/// loaders for Chrome trace files and JSON-lines run reports. Used by
/// `trace_tools` (summarize / merge / check) and the obs tests; no
/// external dependency.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Parsed JSON value (object keys keep file order).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Deepest container nesting parse_json accepts. The parser recurses once
/// per level, so the cap bounds its stack use on untrusted input (a frame
/// of a million '[' would otherwise overflow the stack).
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one JSON document; throws std::runtime_error with a position on
/// malformed input, including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// One event as read back from a Chrome trace file.
struct ParsedTraceEvent {
  std::string name;
  std::string category;
  std::string phase;    ///< "X" for the spans this repo emits
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  bool has_arg = false;
  std::int64_t arg = 0;
};

/// Extracts the traceEvents array from a parsed trace document (either the
/// {"traceEvents": [...]} object form or a bare array). Throws on shape
/// errors.
std::vector<ParsedTraceEvent> trace_events_of(const JsonValue& root);

/// Reads and parses a Chrome trace file.
std::vector<ParsedTraceEvent> load_trace_file(const std::string& path);

/// Reads a JSON-lines run report; every non-empty line must parse to an
/// object. Throws on the first malformed line.
std::vector<JsonValue> load_jsonl_file(const std::string& path);

/// Per-span-name aggregate used by `trace_tools summarize`.
struct SpanSummary {
  std::string name;
  std::string category;
  std::uint64_t count = 0;
  double total_us = 0.0;
  /// total_us minus the time covered by direct child spans.
  double self_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

/// Self time of every event, by index: an "X" span's duration minus the
/// union of its direct children's intervals (0 for other phases). Spans
/// nest per (pid, tid) by interval containment, [ts, ts + dur]; a child is
/// a span's innermost container, and an open span that merely overlaps a
/// later one is not its parent.
std::vector<double> span_self_times(
    const std::vector<ParsedTraceEvent>& events);

/// Groups events by name, ordered by descending total time.
std::vector<SpanSummary> summarize_spans(
    const std::vector<ParsedTraceEvent>& events);

// ---------------------------------------------------------------------------
// Engine task analysis (`trace_tools timeline`)
// ---------------------------------------------------------------------------

/// Name of the span the task engine records around every task it runs;
/// its arg is the executing worker's id.
inline constexpr std::string_view kEngineTaskSpan = "engine.task";

/// One engine worker's activity over the trace, built from its
/// `engine.task` spans.
struct WorkerTimelineRow {
  std::uint32_t worker = 0;
  std::uint64_t tasks = 0;
  double busy_us = 0.0;    ///< sum of task-span durations
  double idle_us = 0.0;    ///< gaps between tasks inside the worker's window
  double longest_gap_us = 0.0;  ///< largest single such gap
  double utilization = 0.0;     ///< busy / timeline window
};

struct TimelineSummary {
  double window_us = 0.0;  ///< first task start .. last task end, all workers
  std::uint64_t tasks = 0;
  double total_task_us = 0.0;    ///< sum of every task span
  double longest_task_us = 0.0;  ///< no worker count finishes sooner
  std::vector<WorkerTimelineRow> workers;  ///< ordered by worker id
};

/// Aggregates the `engine.task` spans into per-worker utilization and idle
/// gaps. Other events are ignored, so the whole trace file can be passed
/// in.
TimelineSummary summarize_worker_timeline(
    const std::vector<ParsedTraceEvent>& events);

// ---------------------------------------------------------------------------
// Sweep-service analysis (`trace_tools summarize --service`)
// ---------------------------------------------------------------------------

/// One client connection's ledger, read back from a `service_conn`
/// run-report record (the server emits one per connection close).
struct ServiceConnRow {
  std::uint64_t conn = 0;
  std::uint64_t requests = 0;  ///< frames parsed (ping/stats included)
  std::uint64_t results = 0;   ///< cells answered with values
  std::uint64_t rejected_overload = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t single_flight = 0;  ///< results served from in-flight dedupe
  std::uint64_t failed = 0;
};

/// Per-cell latency percentiles of one server stage, read back from a
/// `service` record's `<stage>_{p50,p95,p99}_ms` fields.
struct ServiceLatencyRow {
  std::string sweep;  ///< the record's sweep name
  std::string stage;  ///< queue_wait, compute or total
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Aggregate of a run report's sweep-service records: the `service`
/// stop-time totals plus every `service_conn` row. Rates are derived, not
/// stored, so partially-drained reports stay self-consistent.
struct ServiceSummary {
  std::uint64_t service_records = 0;  ///< `service` records seen (summed)
  double accepted = 0.0;              ///< cells admitted to the queue
  double rejected_overload = 0.0;     ///< admission rejections (cells)
  double deadline_exceeded = 0.0;
  double single_flight_hits = 0.0;
  double bad_requests = 0.0;
  double failed = 0.0;
  double computed = 0.0;      ///< runner cells actually solved
  double cache_hits = 0.0;
  double total_connections = 0.0;
  std::vector<ServiceConnRow> connections;  ///< ordered by connection id
  /// Three rows (queue_wait, compute, total) per `service` record that
  /// carries them, in record order; percentiles do not sum across servers.
  std::vector<ServiceLatencyRow> latencies;

  /// Fraction of submitted cells the admission gate turned away.
  [[nodiscard]] double rejection_rate() const {
    const double offered = accepted + rejected_overload;
    return offered > 0.0 ? rejected_overload / offered : 0.0;
  }
  /// Fraction of admitted cells that hit their deadline.
  [[nodiscard]] double deadline_rate() const {
    return accepted > 0.0 ? deadline_exceeded / accepted : 0.0;
  }
  /// Fraction of admitted cells answered without a fresh solve — the
  /// single-flight + cache savings.
  [[nodiscard]] double warm_fraction() const {
    return accepted > 0.0 ? (single_flight_hits + cache_hits) / accepted
                          : 0.0;
  }
};

/// Aggregates `service` / `service_conn` run-report records; every other
/// record kind is ignored, so a full mixed report can be passed in.
ServiceSummary summarize_service_records(const std::vector<JsonValue>& records);

}  // namespace aqua::obs
