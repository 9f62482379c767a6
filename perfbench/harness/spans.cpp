#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iomanip>
#include <memory>
#include <mutex>
#include <numeric>

namespace perfbench {

namespace {

std::atomic<bool> g_recording{false};

struct Buffer {
  std::mutex mutex;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;

/// Leaky, like the library tracer: thread-exit order never matters.
std::vector<std::shared_ptr<Buffer>>& all_buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<Buffer>>();
  return *buffers;
}

Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto fresh = std::make_shared<Buffer>();
    std::lock_guard lock(g_buffers_mutex);
    all_buffers().push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

bool same_name(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

}  // namespace

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

bool recording() { return g_recording.load(std::memory_order_relaxed); }

SpanScope::SpanScope(const char* name, std::int64_t cell) {
  if (!recording()) return;
  name_ = name;
  cell_ = cell;
  start_us_ = aqua::obs::Tracer::instance().now_us();
}

SpanScope::~SpanScope() {
  if (name_ == nullptr) return;
  aqua::obs::Tracer& tracer = aqua::obs::Tracer::instance();
  Span span;
  span.name = name_;
  span.start_us = start_us_;
  span.end_us = tracer.now_us();
  span.thread = tracer.this_thread_id();
  span.cell = cell_;
  Buffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> drain_spans() {
  std::vector<Span> out;
  std::lock_guard lock(g_buffers_mutex);
  for (const auto& buffer : all_buffers()) {
    std::lock_guard buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

void import_library_spans(std::vector<Span>& spans,
                          const std::vector<aqua::obs::TraceEvent>& events,
                          const std::vector<const char*>& names) {
  for (const aqua::obs::TraceEvent& event : events) {
    if (event.name == nullptr) continue;
    const bool wanted =
        std::any_of(names.begin(), names.end(),
                    [&](const char* name) { return same_name(name, event.name); });
    if (!wanted) continue;
    Span span;
    span.name = event.name;
    span.start_us = event.ts_us;
    span.end_us = event.ts_us + event.dur_us;
    span.thread = event.tid;
    span.library = true;
    spans.push_back(span);
  }
}

void link_spans(std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    return !x.library && y.library;  // ours encloses the call it wraps
  });
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k > 0 && spans[order[k - 1]].thread != spans[i].thread) open.clear();
    while (!open.empty() && spans[open.back()].end_us < spans[i].end_us) {
      open.pop_back();
    }
    spans[i].parent = open.empty() ? -1 : static_cast<std::int64_t>(open.back());
    open.push_back(i);
  }

  std::vector<bool> drop(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = spans[i].parent;
    drop[i] = spans[i].library && p >= 0 && !spans[p].library &&
              same_name(spans[p].name, spans[i].name);
  }
  std::vector<std::int64_t> remap(n, -1);
  std::int64_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!drop[i]) remap[i] = kept++;
  }
  std::vector<Span> out;
  out.reserve(static_cast<std::size_t>(kept));
  for (std::size_t i = 0; i < n; ++i) {
    if (drop[i]) continue;
    Span span = spans[i];
    std::int64_t p = span.parent;
    while (p >= 0 && drop[p]) p = spans[p].parent;
    span.parent = p >= 0 ? remap[p] : -1;
    out.push_back(span);
  }
  spans = std::move(out);
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  for (auto& [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool in_run = false;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    if (in_run && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (in_run) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    in_run = true;
  }
  if (in_run) covered += run_end - run_start;
  return std::max(0.0, (end - start) - covered);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = self_time(spans[i].start_us, spans[i].end_us,
                       std::move(children[i]));
  }
  return out;
}

bool has_ancestor(const std::vector<Span>& spans, std::size_t i,
                  const char* name) {
  for (std::int64_t p = spans[i].parent; p >= 0; p = spans[p].parent) {
    if (same_name(spans[p].name, name)) return true;
  }
  return false;
}

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << std::fixed << std::setprecision(3);
  for (const Span& span : spans) {
    os << "{\"name\":\"" << span.name << "\",\"start_us\":" << span.start_us
       << ",\"end_us\":" << span.end_us << ",\"thread\":" << span.thread
       << ",\"cell\":" << span.cell << ",\"parent\":" << span.parent
       << ",\"library\":" << (span.library ? "true" : "false") << "}\n";
  }
}

}  // namespace perfbench
