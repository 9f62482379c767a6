#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bench_compare.hpp"
#include "obs/trace_reader.hpp"

namespace aqua::obs {
namespace {

ParsedTraceEvent task(std::uint32_t worker, double ts_us, double dur_us) {
  ParsedTraceEvent e;
  e.name = std::string(kEngineTaskSpan);
  e.category = "engine";
  e.phase = "X";
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = worker + 1;
  e.has_arg = true;
  e.arg = worker;
  return e;
}

// Two workers: w0 runs two tasks back to back with a 10us gap, w1 runs
// one.
std::vector<ParsedTraceEvent> two_worker_trace() {
  std::vector<ParsedTraceEvent> events;
  events.push_back(task(0, 0.0, 100.0));
  events.push_back(task(0, 110.0, 90.0));
  events.push_back(task(1, 50.0, 60.0));
  // Other spans, the engine's own batch span among them: the analyzer
  // must ignore them.
  ParsedTraceEvent other;
  other.name = "thermal.solve";
  other.category = "thermal";
  other.phase = "X";
  other.dur_us = 9999.0;
  events.push_back(other);
  other.name = "engine.run";
  other.category = "engine";
  events.push_back(other);
  return events;
}

TEST(WorkerTimelineTest, AggregatesPerWorkerBusyIdleAndTaskTimes) {
  const TimelineSummary t = summarize_worker_timeline(two_worker_trace());
  EXPECT_EQ(t.tasks, 3u);
  EXPECT_DOUBLE_EQ(t.window_us, 200.0);  // 0 .. 110+90
  EXPECT_DOUBLE_EQ(t.total_task_us, 250.0);
  EXPECT_DOUBLE_EQ(t.longest_task_us, 100.0);
  ASSERT_EQ(t.workers.size(), 2u);

  const WorkerTimelineRow& w0 = t.workers[0];
  EXPECT_EQ(w0.worker, 0u);
  EXPECT_EQ(w0.tasks, 2u);
  EXPECT_DOUBLE_EQ(w0.busy_us, 190.0);
  EXPECT_DOUBLE_EQ(w0.idle_us, 10.0);        // 100 .. 110
  EXPECT_DOUBLE_EQ(w0.longest_gap_us, 10.0);
  EXPECT_DOUBLE_EQ(w0.utilization, 190.0 / 200.0);

  const WorkerTimelineRow& w1 = t.workers[1];
  EXPECT_EQ(w1.worker, 1u);
  EXPECT_EQ(w1.tasks, 1u);
  EXPECT_DOUBLE_EQ(w1.busy_us, 60.0);
  EXPECT_DOUBLE_EQ(w1.idle_us, 0.0);
}

TEST(WorkerTimelineTest, ReadsTheWorkerFromAChromeTraceArg) {
  // The worker id comes from args.v, not the recording thread's id.
  const std::vector<ParsedTraceEvent> events = trace_events_of(parse_json(
      R"({"traceEvents":[{"name":"engine.task","cat":"engine",)"
      R"("ph":"X","ts":0,"dur":25,"tid":9,"args":{"v":3}}]})"));
  const TimelineSummary t = summarize_worker_timeline(events);
  EXPECT_EQ(t.tasks, 1u);
  ASSERT_EQ(t.workers.size(), 1u);
  EXPECT_EQ(t.workers[0].worker, 3u);
  EXPECT_DOUBLE_EQ(t.workers[0].busy_us, 25.0);
  EXPECT_DOUBLE_EQ(t.longest_task_us, 25.0);
}

TEST(WorkerTimelineTest, EmptyTraceYieldsEmptySummary) {
  const TimelineSummary t = summarize_worker_timeline({});
  EXPECT_EQ(t.tasks, 0u);
  EXPECT_DOUBLE_EQ(t.window_us, 0.0);
  EXPECT_DOUBLE_EQ(t.total_task_us, 0.0);
  EXPECT_TRUE(t.workers.empty());
}

// ---------------------------------------------------------------- gate --

ParsedTraceEvent span(const char* name, std::int64_t tid, double ts_us,
                      double dur_us) {
  ParsedTraceEvent e;
  e.name = name;
  e.category = "test";
  e.phase = "X";
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = tid;
  return e;
}

const SpanSummary& summary_of(const std::vector<SpanSummary>& spans,
                              const std::string& name) {
  for (const SpanSummary& s : spans) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no span " + name);
}

TEST(SpanSelfTimeTest, NestedSpansSubtractOnlyDirectChildren) {
  // outer [0,100) > mid [10,50) > leaf [20,30), plus a second mid
  // [60,70), given out of order; a span on another thread overlapping
  // everything is nobody's child.
  const std::vector<ParsedTraceEvent> events = {
      span("leaf", 1, 20.0, 10.0), span("outer", 1, 0.0, 100.0),
      span("mid", 1, 60.0, 10.0),  span("mid", 1, 10.0, 40.0),
      span("other", 2, 5.0, 90.0)};
  const std::vector<double> self = span_self_times(events);
  EXPECT_DOUBLE_EQ(self[0], 10.0);
  EXPECT_DOUBLE_EQ(self[1], 50.0);  // 100 - 40 - 10
  EXPECT_DOUBLE_EQ(self[2], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);  // 40 - 10
  EXPECT_DOUBLE_EQ(self[4], 90.0);

  const std::vector<SpanSummary> spans = summarize_spans(events);
  EXPECT_DOUBLE_EQ(summary_of(spans, "mid").total_us, 50.0);
  EXPECT_DOUBLE_EQ(summary_of(spans, "mid").self_us, 40.0);
  EXPECT_DOUBLE_EQ(summary_of(spans, "outer").self_us, 50.0);
}

TEST(SpanSelfTimeTest, OverlappingChildrenCountTheirUnionOnce) {
  // a [10,40) and b [30,60) overlap: b is not inside a, so both are
  // outer's children and outer loses their union [10,60), not 30 + 30.
  // c starts with outer and ends a rounding step past it: still a child.
  const std::vector<ParsedTraceEvent> events = {
      span("outer", 7, 0.0, 100.0), span("a", 7, 10.0, 30.0),
      span("b", 7, 30.0, 30.0), span("c", 7, 90.0, 10.0 + 1e-4)};
  const std::vector<double> self = span_self_times(events);
  EXPECT_DOUBLE_EQ(self[0], 40.0);  // 100 - 50 - 10
  EXPECT_DOUBLE_EQ(self[1], 30.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_NEAR(self[3], 10.0, 1e-3);
}

TEST(SpanSelfTimeTest, EqualStartsNestTheShorterInsideTheLonger) {
  const std::vector<ParsedTraceEvent> events = {
      span("inner", 3, 5.0, 5.0), span("outer", 3, 5.0, 20.0),
      span("zero", 3, 5.0, 0.0)};
  const std::vector<double> self = span_self_times(events);
  EXPECT_DOUBLE_EQ(self[1], 15.0);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[2], 0.0);
}

TEST(BenchCompareTest, ClassifiesMetricKinds) {
  EXPECT_EQ(classify_metric("sweep_wall_seconds"), MetricKind::kTiming);
  // Solver time summed across threads is still a timing, never work.
  EXPECT_EQ(classify_metric("sweep_solver_seconds"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("fig07_lowpower_multigrid_solver_seconds"),
            MetricKind::kTiming);
  EXPECT_EQ(classify_metric("cost_breakdown.solve_us"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("engine_tasks_per_sec"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("cg_2chip_cycles_per_second"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("speedup_w4"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("sweep_iterations"), MetricKind::kWork);
  EXPECT_EQ(classify_metric("max_chips_water"), MetricKind::kWork);
  EXPECT_EQ(classify_metric("schema_version"), MetricKind::kIgnored);
  // The ledger's work counters are exact at any worker count, so they
  // gate as deterministic work.
  EXPECT_EQ(classify_metric("cost_breakdown.cg_iterations"),
            MetricKind::kWork);
  EXPECT_EQ(classify_metric("cost_breakdown.cells"), MetricKind::kWork);
  // perf_sweep_parallel's per-worker-count keys classify by their stem.
  EXPECT_EQ(classify_metric("wall_seconds_w4"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("wall_seconds_w16"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("cells_per_sec_w8"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("identical_w1"), MetricKind::kWork);
  // Only a digit run after `_w` is a worker tag.
  EXPECT_EQ(classify_metric("queue_w"), MetricKind::kWork);
  EXPECT_EQ(classify_metric("max_chips_water"), MetricKind::kWork);
}

// perf_noc's per-cell `<cell>_state_bytes` is deterministic work: CI's
// 0.2 work threshold gates it in both directions, so a layout change that
// moves it fails until the perf_noc baselines are reseeded.
TEST(BenchCompareTest, StateBytesGateTwoSidedAsWork) {
  const std::string key = "cg_6chip_state_bytes";
  EXPECT_EQ(classify_metric(key), MetricKind::kWork);
  GateThresholds thresholds;
  thresholds.timing = 5.0;
  thresholds.work = 0.2;
  const std::vector<std::map<std::string, double>> baselines = {
      {{key, 1000.0}}, {{key, 1000.0}}, {{key, 1000.0}}};
  EXPECT_TRUE(gate_bench({{key, 1150.0}}, baselines, thresholds).passed());
  EXPECT_TRUE(gate_bench({{key, 850.0}}, baselines, thresholds).passed());
  EXPECT_FALSE(gate_bench({{key, 1300.0}}, baselines, thresholds).passed());
  EXPECT_FALSE(gate_bench({{key, 500.0}}, baselines, thresholds).passed());
}

TEST(BenchCompareTest, MedianAbsorbsOneOutlierRun) {
  EXPECT_DOUBLE_EQ(median_of({1.0, 100.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

using Metrics = std::map<std::string, double>;

TEST(BenchCompareTest, TimingGateIsOneSided) {
  const Metrics base{{"solve_seconds", 10.0}};
  GateThresholds th;
  th.timing = 0.5;
  // 40% slower: inside the threshold.
  EXPECT_TRUE(gate_bench({{"solve_seconds", 14.0}}, {base}, th).passed());
  // 60% slower: regression.
  EXPECT_FALSE(gate_bench({{"solve_seconds", 16.0}}, {base}, th).passed());
  // 5x faster: never a timing failure.
  EXPECT_TRUE(gate_bench({{"solve_seconds", 2.0}}, {base}, th).passed());
}

TEST(BenchCompareTest, WorkGateIsTwoSided) {
  const Metrics base{{"sweep_iterations", 1000.0}};
  GateThresholds th;
  th.work = 0.10;
  EXPECT_TRUE(gate_bench({{"sweep_iterations", 1050.0}}, {base}, th).passed());
  EXPECT_FALSE(gate_bench({{"sweep_iterations", 1200.0}}, {base}, th).passed());
  // A drop is ALSO a failure: the comparison basis changed.
  EXPECT_FALSE(gate_bench({{"sweep_iterations", 800.0}}, {base}, th).passed());
}

TEST(BenchCompareTest, RateGateFailsOnlyWhenSlower) {
  const Metrics base{{"engine_tasks_per_sec", 1000.0}};
  GateThresholds th;
  th.timing = 0.5;
  EXPECT_TRUE(
      gate_bench({{"engine_tasks_per_sec", 5000.0}}, {base}, th).passed());
  EXPECT_FALSE(
      gate_bench({{"engine_tasks_per_sec", 400.0}}, {base}, th).passed());
}

TEST(BenchCompareTest, ZeroMedianWorkMustStayZero) {
  const Metrics base{{"sweep_failed", 0.0}, {"idle_seconds", 0.0}};
  // Zero-median timing carries no signal (skipped); zero-median work is a
  // hard invariant.
  const GateResult ok = gate_bench({{"sweep_failed", 0.0},
                                    {"idle_seconds", 3.0}},
                                   {base});
  EXPECT_TRUE(ok.passed());
  EXPECT_EQ(ok.skipped, 1u);  // the timing key
  const GateResult bad = gate_bench({{"sweep_failed", 2.0}}, {base});
  EXPECT_FALSE(bad.passed());
}

TEST(BenchCompareTest, UsesMedianOfBaselinesAndSkipsUnknownKeys) {
  const std::vector<Metrics> baselines{{{"sweep_iterations", 1000.0}},
                                       {{"sweep_iterations", 1010.0}},
                                       {{"sweep_iterations", 5000.0}}};
  // Median 1010 ignores the one corrupt baseline run; the new metric is
  // skipped, not failed.
  const GateResult r = gate_bench(
      {{"sweep_iterations", 1005.0}, {"brand_new_metric", 7.0}}, baselines);
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.compared, 1u);
  EXPECT_EQ(r.skipped, 1u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_DOUBLE_EQ(r.findings[0].baseline, 1010.0);
}

TEST(BenchCompareTest, EmptyBaselinesThrow) {
  EXPECT_THROW(gate_bench({{"x", 1.0}}, {}), std::invalid_argument);
}

TEST(BenchCompareTest, FindingsSortRegressionsFirst) {
  const Metrics base{{"a_seconds", 10.0}, {"b_seconds", 10.0},
                     {"c_count", 100.0}};
  GateThresholds th;
  th.timing = 0.1;
  const GateResult r = gate_bench(
      {{"a_seconds", 10.0}, {"b_seconds", 30.0}, {"c_count", 100.0}},
      {base}, th);
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_TRUE(r.findings[0].regression);
  EXPECT_EQ(r.findings[0].metric, "b_seconds");
  EXPECT_EQ(r.regressions, 1u);
}

TEST(ServiceSummaryTest, AggregatesServiceAndConnectionRecords) {
  std::vector<JsonValue> records;
  records.push_back(parse_json(
      R"({"kind":"service","accepted":90,"rejected_overload":10,)"
      R"("deadline_exceeded":9,"single_flight_hits":30,"bad_requests":2,)"
      R"("failed":1,"computed":40,"cache_hits":20,)"
      R"("total_connections":3})"));
  records.push_back(parse_json(
      R"({"kind":"service_conn","conn":2,"requests":40,"results":35,)"
      R"("rejected_overload":4,"deadline_exceeded":1,"bad_requests":0,)"
      R"("single_flight":12,"failed":0})"));
  records.push_back(parse_json(
      R"({"kind":"service_conn","conn":1,"requests":60,"results":55,)"
      R"("rejected_overload":6,"deadline_exceeded":8,"bad_requests":2,)"
      R"("single_flight":18,"failed":1})"));
  // Foreign record kinds are ignored, so whole mixed reports can be fed.
  records.push_back(parse_json(R"({"kind":"experiment","name":"x"})"));

  const ServiceSummary summary = summarize_service_records(records);
  EXPECT_EQ(summary.service_records, 1u);
  EXPECT_DOUBLE_EQ(summary.accepted, 90.0);
  EXPECT_DOUBLE_EQ(summary.rejected_overload, 10.0);
  EXPECT_DOUBLE_EQ(summary.rejection_rate(), 0.1);   // 10 / (90 + 10)
  EXPECT_DOUBLE_EQ(summary.deadline_rate(), 0.1);    // 9 / 90
  EXPECT_DOUBLE_EQ(summary.warm_fraction(), 50.0 / 90.0);  // 30+20 of 90
  ASSERT_EQ(summary.connections.size(), 2u);
  EXPECT_EQ(summary.connections[0].conn, 1u);  // sorted by id
  EXPECT_EQ(summary.connections[0].single_flight, 18u);
  EXPECT_EQ(summary.connections[1].conn, 2u);
  EXPECT_EQ(summary.connections[1].results, 35u);
}

TEST(ServiceSummaryTest, ReadsLatencyPercentilesPerServiceRecord) {
  std::vector<JsonValue> records;
  records.push_back(parse_json(
      R"({"kind":"service","sweep":"a","accepted":4,)"
      R"("queue_wait_p50_ms":0.1,"queue_wait_p95_ms":0.5,)"
      R"("queue_wait_p99_ms":0.9,"compute_p50_ms":2,"compute_p95_ms":8,)"
      R"("compute_p99_ms":19,"total_p50_ms":2.5,"total_p95_ms":9,)"
      R"("total_p99_ms":20})"));
  // A record from before the latency fields adds no rows.
  records.push_back(parse_json(R"({"kind":"service","sweep":"old"})"));

  const ServiceSummary summary = summarize_service_records(records);
  EXPECT_EQ(summary.service_records, 2u);
  ASSERT_EQ(summary.latencies.size(), 3u);
  EXPECT_EQ(summary.latencies[0].sweep, "a");
  EXPECT_EQ(summary.latencies[0].stage, "queue_wait");
  EXPECT_DOUBLE_EQ(summary.latencies[0].p95_ms, 0.5);
  EXPECT_EQ(summary.latencies[1].stage, "compute");
  EXPECT_DOUBLE_EQ(summary.latencies[1].p99_ms, 19.0);
  EXPECT_EQ(summary.latencies[2].stage, "total");
  EXPECT_DOUBLE_EQ(summary.latencies[2].p50_ms, 2.5);
  EXPECT_DOUBLE_EQ(summary.latencies[2].p99_ms, 20.0);
}

TEST(ServiceSummaryTest, EmptyInputYieldsSafeZeroRates) {
  const ServiceSummary summary = summarize_service_records({});
  EXPECT_EQ(summary.service_records, 0u);
  EXPECT_DOUBLE_EQ(summary.rejection_rate(), 0.0);
  EXPECT_DOUBLE_EQ(summary.deadline_rate(), 0.0);
  EXPECT_DOUBLE_EQ(summary.warm_fraction(), 0.0);
}

}  // namespace
}  // namespace aqua::obs
