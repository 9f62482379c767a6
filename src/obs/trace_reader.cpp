#include "obs/trace_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/flight_recorder.hpp"

namespace aqua::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  /// Counts one container level for the lifetime of a parse_object /
  /// parse_array call.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxJsonDepth) {
        p_.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                " levels");
      }
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& p_;
  };

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The repo's writers only escape control characters; decode
          // basic-plane codepoints as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open containers (see DepthGuard)
};

double number_or(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

std::string string_or(const JsonValue& obj, std::string_view key,
                      std::string fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string
                                                             : fallback;
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::vector<ParsedTraceEvent> trace_events_of(const JsonValue& root) {
  const JsonValue* events = &root;
  if (root.is_object()) {
    events = root.find("traceEvents");
    if (events == nullptr) {
      throw std::runtime_error("trace document has no traceEvents member");
    }
  }
  if (!events->is_array()) {
    throw std::runtime_error("traceEvents is not an array");
  }
  std::vector<ParsedTraceEvent> out;
  out.reserve(events->array.size());
  for (const JsonValue& e : events->array) {
    if (!e.is_object()) {
      throw std::runtime_error("trace event is not an object");
    }
    ParsedTraceEvent pe;
    pe.name = string_or(e, "name", "?");
    pe.category = string_or(e, "cat", "");
    pe.phase = string_or(e, "ph", "X");
    pe.ts_us = number_or(e, "ts", 0.0);
    pe.dur_us = number_or(e, "dur", 0.0);
    pe.pid = static_cast<std::int64_t>(number_or(e, "pid", 0.0));
    pe.tid = static_cast<std::int64_t>(number_or(e, "tid", 0.0));
    if (const JsonValue* args = e.find("args");
        args != nullptr && args->is_object()) {
      if (const JsonValue* v = args->find("v");
          v != nullptr && v->kind == JsonValue::Kind::kNumber) {
        pe.has_arg = true;
        pe.arg = static_cast<std::int64_t>(v->number);
      }
    }
    out.push_back(std::move(pe));
  }
  return out;
}

std::vector<ParsedTraceEvent> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return trace_events_of(parse_json(buf.str()));
}

std::vector<JsonValue> load_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::vector<JsonValue> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      JsonValue v = parse_json(line);
      if (!v.is_object()) {
        throw std::runtime_error("record is not an object");
      }
      records.push_back(std::move(v));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return records;
}

namespace {

/// Slack of the nesting test: half the 1 ns resolution traces are written
/// with, so a child whose end rounds past its parent's still nests.
constexpr double kNestSlackUs = 5e-4;

double end_us(const ParsedTraceEvent& e) { return e.ts_us + e.dur_us; }

}  // namespace

std::vector<double> span_self_times(
    const std::vector<ParsedTraceEvent>& events) {
  std::vector<double> self(events.size(), 0.0);
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::size_t>>
      by_thread;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase != "X") continue;
    self[i] = events[i].dur_us;
    by_thread[{events[i].pid, events[i].tid}].push_back(i);
  }
  // Each span's direct children's intervals, clipped to it.
  std::vector<std::vector<std::pair<double, double>>> children(events.size());
  for (auto& [thread, spans] : by_thread) {
    // Parents before their children: by start, then the longer first.
    std::stable_sort(spans.begin(), spans.end(),
                     [&](std::size_t a, std::size_t b) {
                       const ParsedTraceEvent& x = events[a];
                       const ParsedTraceEvent& y = events[b];
                       return x.ts_us != y.ts_us ? x.ts_us < y.ts_us
                                                 : x.dur_us > y.dur_us;
                     });
    std::vector<std::size_t> open;  // spans that may still contain others
    for (const std::size_t i : spans) {
      const ParsedTraceEvent& e = events[i];
      while (!open.empty() && end_us(events[open.back()]) <= e.ts_us) {
        open.pop_back();
      }
      // The innermost open span containing e; an open span that only
      // overlaps e (it started earlier and ends inside e) is not its parent.
      for (auto it = open.rbegin(); it != open.rend(); ++it) {
        const ParsedTraceEvent& p = events[*it];
        if (p.ts_us - kNestSlackUs <= e.ts_us &&
            end_us(e) <= end_us(p) + kNestSlackUs) {
          children[*it].emplace_back(std::max(e.ts_us, p.ts_us),
                                     std::min(end_us(e), end_us(p)));
          break;
        }
      }
      open.push_back(i);
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    if (kids.empty()) continue;
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double lo = kids.front().first;
    double hi = kids.front().second;
    for (const auto& [start, stop] : kids) {
      if (start > hi) {
        covered += hi - lo;
        lo = start;
      }
      hi = std::max(hi, stop);
    }
    covered += hi - lo;
    self[i] = std::max(0.0, self[i] - covered);
  }
  return self;
}

std::vector<SpanSummary> summarize_spans(
    const std::vector<ParsedTraceEvent>& events) {
  const std::vector<double> self = span_self_times(events);
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ParsedTraceEvent& e = events[i];
    if (e.phase != "X") continue;
    auto [it, inserted] = by_name.try_emplace(e.name);
    SpanSummary& s = it->second;
    if (inserted) {
      s.name = e.name;
      s.category = e.category;
      s.min_us = e.dur_us;
      s.max_us = e.dur_us;
    }
    ++s.count;
    s.total_us += e.dur_us;
    s.self_us += self[i];
    s.min_us = std::min(s.min_us, e.dur_us);
    s.max_us = std::max(s.max_us, e.dur_us);
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) out.push_back(std::move(summary));
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.total_us > b.total_us;
            });
  return out;
}

namespace {

constexpr std::string_view kTaskPrefix = "engine.task.";

bool is_task_span(const ParsedTraceEvent& e) {
  return e.phase == "X" &&
         std::string_view(e.name).substr(0, kTaskPrefix.size()) ==
             kTaskPrefix;
}

/// Worker id of a flight-recorder event: the packed arg's high half, or
/// the thread id for traces recorded before args carried placement.
std::uint32_t worker_of(const ParsedTraceEvent& e) {
  return e.has_arg ? pair_hi(e.arg) : static_cast<std::uint32_t>(e.tid);
}

}  // namespace

TimelineSummary summarize_worker_timeline(
    const std::vector<ParsedTraceEvent>& events) {
  TimelineSummary summary;
  std::map<std::uint32_t, WorkerTimelineRow> rows;
  // Per-worker task intervals for the gap analysis.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> intervals;
  double window_start = 0.0;
  double window_end = 0.0;
  bool any = false;

  for (const ParsedTraceEvent& e : events) {
    if (e.name == FlightRecorder::kSteal) {
      ++summary.steals;
      ++rows[pair_hi(e.arg)].steals_in;
      ++rows[pair_lo(e.arg)].steals_out;
      continue;
    }
    if (e.name == FlightRecorder::kClaim) {
      ++summary.claims;
      continue;
    }
    if (!is_task_span(e)) continue;
    const std::uint32_t w = worker_of(e);
    WorkerTimelineRow& row = rows[w];
    ++row.tasks;
    ++summary.tasks;
    row.busy_us += e.dur_us;
    const std::string_view kind = std::string_view(e.name).substr(
        kTaskPrefix.size());
    if (kind == "strict") ++row.strict;
    else if (kind == "loose") ++row.loose;
    else if (kind == "unpinned") ++row.unpinned;
    else if (kind == "stolen") ++row.stolen;
    intervals[w].emplace_back(e.ts_us, e.ts_us + e.dur_us);
    if (!any || e.ts_us < window_start) window_start = e.ts_us;
    if (!any || e.ts_us + e.dur_us > window_end) {
      window_end = e.ts_us + e.dur_us;
    }
    any = true;
  }
  summary.window_us = any ? window_end - window_start : 0.0;

  for (auto& [w, row] : rows) {
    row.worker = w;
    auto& spans = intervals[w];
    std::sort(spans.begin(), spans.end());
    // A worker runs one task at a time, so gaps between consecutive task
    // intervals are genuine idle time (waiting on steals/claims or done).
    double prev_end = 0.0;
    bool first = true;
    for (const auto& [start, end] : spans) {
      if (!first && start > prev_end) {
        const double gap = start - prev_end;
        row.idle_us += gap;
        row.longest_gap_us = std::max(row.longest_gap_us, gap);
      }
      prev_end = std::max(prev_end, end);
      first = false;
    }
    row.utilization =
        summary.window_us > 0.0 ? row.busy_us / summary.window_us : 0.0;
    summary.workers.push_back(row);
  }
  return summary;
}

CriticalPathSummary critical_path_of(
    const std::vector<ParsedTraceEvent>& events) {
  CriticalPathSummary summary;
  std::map<std::uint32_t, StrictChainRow> chains;
  double window_start = 0.0;
  double window_end = 0.0;
  bool any = false;

  for (const ParsedTraceEvent& e : events) {
    if (!is_task_span(e)) continue;
    summary.total_task_us += e.dur_us;
    summary.longest_task_us = std::max(summary.longest_task_us, e.dur_us);
    if (!any || e.ts_us < window_start) window_start = e.ts_us;
    if (!any || e.ts_us + e.dur_us > window_end) {
      window_end = e.ts_us + e.dur_us;
    }
    any = true;
    if (std::string_view(e.name) != FlightRecorder::kTaskStrict) continue;
    const std::uint32_t chain =
        e.has_arg ? pair_lo(e.arg) : FlightRecorder::kNoChain;
    StrictChainRow& row = chains[chain];
    row.chain = chain;
    row.worker = worker_of(e);
    ++row.tasks;
    row.total_us += e.dur_us;
  }
  summary.window_us = any ? window_end - window_start : 0.0;

  for (auto& [chain, row] : chains) {
    if (row.total_us > summary.longest_chain_us) {
      summary.longest_chain_us = row.total_us;
      summary.longest_chain = chain;
    }
    summary.chains.push_back(row);
  }
  std::sort(summary.chains.begin(), summary.chains.end(),
            [](const StrictChainRow& a, const StrictChainRow& b) {
              return a.total_us > b.total_us;
            });
  summary.floor_us = std::max(summary.longest_chain_us,
                              summary.longest_task_us);
  return summary;
}

// ---------------------------------------------------------------------------
// Sweep-service analysis
// ---------------------------------------------------------------------------

namespace {

double number_or(const JsonValue& rec, std::string_view key) {
  const JsonValue* v = rec.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : 0.0;
}

std::uint64_t count_or(const JsonValue& rec, std::string_view key) {
  return static_cast<std::uint64_t>(number_or(rec, key));
}

}  // namespace

ServiceSummary summarize_service_records(
    const std::vector<JsonValue>& records) {
  ServiceSummary summary;
  for (const JsonValue& rec : records) {
    const JsonValue* kind = rec.find("kind");
    if (kind == nullptr || kind->kind != JsonValue::Kind::kString) continue;
    if (kind->string == "service") {
      ++summary.service_records;
      summary.accepted += number_or(rec, "accepted");
      summary.rejected_overload += number_or(rec, "rejected_overload");
      summary.deadline_exceeded += number_or(rec, "deadline_exceeded");
      summary.single_flight_hits += number_or(rec, "single_flight_hits");
      summary.bad_requests += number_or(rec, "bad_requests");
      summary.failed += number_or(rec, "failed");
      summary.computed += number_or(rec, "computed");
      summary.cache_hits += number_or(rec, "cache_hits");
      summary.total_connections += number_or(rec, "total_connections");
    } else if (kind->string == "service_conn") {
      ServiceConnRow row;
      row.conn = count_or(rec, "conn");
      row.requests = count_or(rec, "requests");
      row.results = count_or(rec, "results");
      row.rejected_overload = count_or(rec, "rejected_overload");
      row.deadline_exceeded = count_or(rec, "deadline_exceeded");
      row.bad_requests = count_or(rec, "bad_requests");
      row.single_flight = count_or(rec, "single_flight");
      row.failed = count_or(rec, "failed");
      summary.connections.push_back(row);
    }
  }
  std::sort(summary.connections.begin(), summary.connections.end(),
            [](const ServiceConnRow& a, const ServiceConnRow& b) {
              return a.conn < b.conn;
            });
  return summary;
}

}  // namespace aqua::obs
