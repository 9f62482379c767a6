#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bench_compare.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_reader.hpp"

namespace aqua::obs {
namespace {

ParsedTraceEvent task(const char* name, std::uint32_t worker,
                      std::uint32_t chain, double ts_us, double dur_us) {
  ParsedTraceEvent e;
  e.name = name;
  e.category = FlightRecorder::kCategory;
  e.phase = "X";
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = worker;
  e.has_arg = true;
  e.arg = pack_pair(worker, chain);
  return e;
}

ParsedTraceEvent marker(const char* name, std::uint32_t hi,
                        std::uint32_t lo) {
  ParsedTraceEvent e;
  e.name = name;
  e.category = FlightRecorder::kCategory;
  e.phase = "X";
  e.has_arg = true;
  e.arg = pack_pair(hi, lo);
  return e;
}

// Two workers: w0 runs two loose tasks back to back with a 10us gap, w1
// runs one stolen task; one steal (w1 from w0) and one claim.
std::vector<ParsedTraceEvent> two_worker_trace() {
  std::vector<ParsedTraceEvent> events;
  events.push_back(task(FlightRecorder::kTaskLoose, 0, 5, 0.0, 100.0));
  events.push_back(task(FlightRecorder::kTaskLoose, 0, 5, 110.0, 90.0));
  events.push_back(task(FlightRecorder::kTaskStolen, 1,
                        FlightRecorder::kNoChain, 50.0, 60.0));
  events.push_back(marker(FlightRecorder::kSteal, 1, 0));
  events.push_back(marker(FlightRecorder::kClaim, 1, 7));
  // Unrelated span: analyzers must ignore it.
  ParsedTraceEvent other;
  other.name = "thermal.solve";
  other.category = "thermal";
  other.phase = "X";
  other.dur_us = 9999.0;
  events.push_back(other);
  return events;
}

TEST(WorkerTimelineTest, AggregatesPerWorkerMixStealsAndGaps) {
  const TimelineSummary t = summarize_worker_timeline(two_worker_trace());
  EXPECT_EQ(t.tasks, 3u);
  EXPECT_EQ(t.steals, 1u);
  EXPECT_EQ(t.claims, 1u);
  EXPECT_DOUBLE_EQ(t.window_us, 200.0);  // 0 .. 110+90
  ASSERT_EQ(t.workers.size(), 2u);

  const WorkerTimelineRow& w0 = t.workers[0];
  EXPECT_EQ(w0.worker, 0u);
  EXPECT_EQ(w0.tasks, 2u);
  EXPECT_EQ(w0.loose, 2u);
  EXPECT_EQ(w0.stolen, 0u);
  EXPECT_EQ(w0.steals_out, 1u);  // w1 took a task from it
  EXPECT_EQ(w0.steals_in, 0u);
  EXPECT_DOUBLE_EQ(w0.busy_us, 190.0);
  EXPECT_DOUBLE_EQ(w0.idle_us, 10.0);        // 100 .. 110
  EXPECT_DOUBLE_EQ(w0.longest_gap_us, 10.0);
  EXPECT_DOUBLE_EQ(w0.utilization, 190.0 / 200.0);

  const WorkerTimelineRow& w1 = t.workers[1];
  EXPECT_EQ(w1.tasks, 1u);
  EXPECT_EQ(w1.stolen, 1u);
  EXPECT_EQ(w1.steals_in, 1u);
  EXPECT_DOUBLE_EQ(w1.busy_us, 60.0);
  EXPECT_DOUBLE_EQ(w1.idle_us, 0.0);
}

TEST(WorkerTimelineTest, EmptyTraceYieldsEmptySummary) {
  const TimelineSummary t = summarize_worker_timeline({});
  EXPECT_EQ(t.tasks, 0u);
  EXPECT_DOUBLE_EQ(t.window_us, 0.0);
  EXPECT_TRUE(t.workers.empty());
}

TEST(CriticalPathTest, StrictChainsGroupByAffinityNotWorker) {
  std::vector<ParsedTraceEvent> events;
  // Chain 1 (worker 0): 100 + 50 us. Chain 2 (also worker 0): 30 us —
  // distinct affinities on one worker are independent chains.
  events.push_back(task(FlightRecorder::kTaskStrict, 0, 1, 0.0, 100.0));
  events.push_back(task(FlightRecorder::kTaskStrict, 0, 1, 100.0, 50.0));
  events.push_back(task(FlightRecorder::kTaskStrict, 0, 2, 150.0, 30.0));
  // Loose work contributes to the totals but never to a chain.
  events.push_back(task(FlightRecorder::kTaskLoose, 1, 3, 0.0, 40.0));

  const CriticalPathSummary c = critical_path_of(events);
  EXPECT_DOUBLE_EQ(c.total_task_us, 220.0);
  EXPECT_DOUBLE_EQ(c.longest_task_us, 100.0);
  ASSERT_EQ(c.chains.size(), 2u);
  EXPECT_EQ(c.chains[0].chain, 1u);
  EXPECT_EQ(c.chains[0].tasks, 2u);
  EXPECT_DOUBLE_EQ(c.chains[0].total_us, 150.0);
  EXPECT_EQ(c.longest_chain, 1u);
  EXPECT_DOUBLE_EQ(c.longest_chain_us, 150.0);
  EXPECT_DOUBLE_EQ(c.floor_us, 150.0);
  EXPECT_DOUBLE_EQ(c.max_speedup(), 220.0 / 150.0);
}

TEST(CriticalPathTest, FloorIsLongestTaskWithoutStrictChains) {
  std::vector<ParsedTraceEvent> events;
  events.push_back(task(FlightRecorder::kTaskLoose, 0, 9, 0.0, 80.0));
  events.push_back(task(FlightRecorder::kTaskUnpinned, 1,
                        FlightRecorder::kNoChain, 0.0, 20.0));
  const CriticalPathSummary c = critical_path_of(events);
  EXPECT_TRUE(c.chains.empty());
  EXPECT_DOUBLE_EQ(c.longest_chain_us, 0.0);
  EXPECT_DOUBLE_EQ(c.floor_us, 80.0);
}

// ---------------------------------------------------------------- gate --

TEST(BenchCompareTest, ClassifiesMetricKinds) {
  EXPECT_EQ(classify_metric("sweep_wall_seconds"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("cost_breakdown.solve_us"), MetricKind::kTiming);
  EXPECT_EQ(classify_metric("engine_tasks_per_sec"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("cg_2chip_cycles_per_second"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("speedup_w4"), MetricKind::kRate);
  EXPECT_EQ(classify_metric("sweep_iterations"), MetricKind::kWork);
  EXPECT_EQ(classify_metric("max_chips_water"), MetricKind::kWork);
  EXPECT_EQ(classify_metric("schema_version"), MetricKind::kIgnored);
  // The ledger's work counters are approximate under parallelism and must
  // not gate as deterministic work.
  EXPECT_EQ(classify_metric("cost_breakdown.cg_iterations"),
            MetricKind::kIgnored);
  EXPECT_EQ(classify_metric("cost_breakdown.cells"), MetricKind::kIgnored);
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
      R"("failed":1,"computed":40,"cache_hits":15,"journal_hits":5,)"
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
  EXPECT_DOUBLE_EQ(summary.warm_fraction(), 50.0 / 90.0);  // 30+15+5 of 90
  ASSERT_EQ(summary.connections.size(), 2u);
  EXPECT_EQ(summary.connections[0].conn, 1u);  // sorted by id
  EXPECT_EQ(summary.connections[0].single_flight, 18u);
  EXPECT_EQ(summary.connections[1].conn, 2u);
  EXPECT_EQ(summary.connections[1].results, 35u);
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
