#pragma once

/// In-memory spans of the traced run. The benchmark records a span around
/// each call it makes into a layer's public API (SpanScope). Below those
/// calls, layers without a public hook are seen through the library's own
/// tracer spans, imported after each traced set (import_library_spans).
/// Both kinds share the library tracer's clock and thread ids, stay in
/// memory while the run lasts, and are linked into one tree per thread and
/// written out when it ends.

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Span {
  const char* name = "";     ///< string literal (ours or the library's)
  double start_us = 0.0;     ///< library tracer epoch, microseconds
  double end_us = 0.0;
  std::uint32_t thread = 0;  ///< library tracer thread id
  std::int64_t cell = -1;    ///< cell index within its batch, -1 if none
  std::int64_t parent = -1;  ///< enclosing span's index (set by link_spans)
  bool library = false;      ///< imported from the library tracer
  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

/// Turns SpanScope recording on or off for the whole process.
void set_recording(bool on);
[[nodiscard]] bool recording();

/// Records one span on the calling thread while recording is on.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t cell = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t cell_ = -1;
  double start_us_ = 0.0;
};

/// Moves every recorded span out of the per-thread buffers. Call only
/// while no SpanScope is open (between batches).
std::vector<Span> drain_spans();

/// Appends the library tracer events whose names are in `names` as
/// library spans.
void import_library_spans(std::vector<Span>& spans,
                          const std::vector<aqua::obs::TraceEvent>& events,
                          const std::vector<const char*>& names);

/// Sets each span's parent to the innermost span of the same thread that
/// contains it, then drops library spans that only repeat the benchmark
/// span wrapping the same call (same name), re-parenting their children.
void link_spans(std::vector<Span>& spans);

/// Length of [start, end] not covered by `children` (clipped to the
/// interval; overlapping children count once).
double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children);

/// Self time of every span of a linked vector, in the same order.
std::vector<double> self_times(const std::vector<Span>& spans);

/// True when an enclosing span of span `i` (any depth) is named `name`.
bool has_ancestor(const std::vector<Span>& spans, std::size_t i,
                  const char* name);

/// Writes a linked vector as JSON lines.
void write_spans(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
