#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "core/cosim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_reader.hpp"
#include "perf/system.hpp"
#include "power/chip_model.hpp"

namespace aqua::obs {
namespace {

/// Redirects the process run report to a fresh temp file for one test and
/// restores the previous state afterwards.
class ReportCapture {
 public:
  explicit ReportCapture(const std::string& path) : path_(path) {
    RunReport& report = RunReport::instance();
    previous_path_ = report.path();
    was_enabled_ = report.enabled();
    report.set_path(path_);
    report.set_enabled(true);
  }
  ~ReportCapture() {
    RunReport& report = RunReport::instance();
    report.set_enabled(was_enabled_);
    report.set_path(previous_path_);
    std::remove(path_.c_str());
  }

  [[nodiscard]] std::vector<JsonValue> records() const {
    return load_jsonl_file(path_);
  }

 private:
  std::string path_;
  std::string previous_path_;
  bool was_enabled_ = false;
};

const JsonValue* field(const JsonValue& record, const char* key) {
  const JsonValue* v = record.find(key);
  EXPECT_NE(v, nullptr) << "record missing field '" << key << "'";
  return v;
}

TEST(RunReportTest, EmitsValidJsonLinesWithTimestampAndKind) {
  ReportCapture capture("/tmp/aqua_test_report_basic.jsonl");
  RunReport& report = RunReport::instance();
  report.emit("stage", [](JsonWriter& w) {
    w.add("stage", "thermal").add("seconds", 0.25);
  });
  report.emit("freq_cap", [](JsonWriter& w) {
    w.add("chips", std::uint64_t{4}).add("feasible", true);
  });
  EXPECT_EQ(report.records_written(), 2u);

  const std::vector<JsonValue> records = capture.records();
  ASSERT_EQ(records.size(), 2u);
  for (const JsonValue& r : records) {
    ASSERT_TRUE(r.is_object());
    EXPECT_NE(r.find("ts_us"), nullptr);
    EXPECT_NE(r.find("kind"), nullptr);
  }
  EXPECT_EQ(field(records[0], "kind")->string, "stage");
  EXPECT_EQ(field(records[0], "stage")->string, "thermal");
  EXPECT_EQ(field(records[1], "kind")->string, "freq_cap");
  EXPECT_TRUE(field(records[1], "feasible")->boolean);
}

TEST(RunReportTest, DisabledEmitIsANoOp) {
  ReportCapture capture("/tmp/aqua_test_report_disabled.jsonl");
  RunReport& report = RunReport::instance();
  report.set_enabled(false);
  const std::size_t before = report.records_written();
  report.emit("stage", [](JsonWriter& w) { w.add("stage", "power"); });
  EXPECT_EQ(report.records_written(), before);
  report.set_enabled(true);
}

TEST(RunReportTest, MetricsDumpIsAMetricsRecord) {
  ReportCapture capture("/tmp/aqua_test_report_metrics.jsonl");
  Registry::instance().counter("test.report.counter").add(11);
  RunReport::instance().emit_metrics_dump();

  const std::vector<JsonValue> records = capture.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(field(records[0], "kind")->string, "metrics");
  const JsonValue* registry = field(records[0], "registry");
  ASSERT_TRUE(registry != nullptr && registry->is_object());
  const JsonValue* counter = registry->find("test.report.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number, 11.0);
}

// End-to-end: one co-simulation must produce stage records for all three
// pipeline stages (power -> thermal -> perf) plus the decision records.
TEST(RunReportTest, CoSimCoversAllThreePipelineStages) {
  ReportCapture capture("/tmp/aqua_test_report_cosim.jsonl");

  GridOptions grid;
  grid.nx = 16;
  grid.ny = 16;
  CoSimulator sim(make_low_power_cmp(), PackageConfig{}, 80.0, CmpConfig{},
                  grid);
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 4000;
  const CoSimResult r =
      sim.run(2, CoolingOption(CoolingKind::kWaterImmersion), p);
  ASSERT_TRUE(r.cap.feasible);

  std::set<std::string> stages;
  std::set<std::string> kinds;
  for (const JsonValue& record : capture.records()) {
    kinds.insert(field(record, "kind")->string);
    if (field(record, "kind")->string == "stage") {
      stages.insert(field(record, "stage")->string);
    }
  }
  EXPECT_TRUE(stages.count("power")) << "missing power stage record";
  EXPECT_TRUE(stages.count("thermal")) << "missing thermal stage record";
  EXPECT_TRUE(stages.count("perf")) << "missing perf stage record";
  EXPECT_TRUE(kinds.count("freq_cap"));
  EXPECT_TRUE(kinds.count("perf_run"));
  EXPECT_TRUE(kinds.count("cosim"));
}

// A DES run's perf_run record carries the simulator's footprint: its
// state_bytes after the run, and how many L2 sets across all banks were
// ever filled (a 1-chip system has 12 banks of 2048 sets).
TEST(RunReportTest, PerfRunRecordsStateBytesAndL2SetsFilled) {
  ReportCapture capture("/tmp/aqua_test_report_perf_run.jsonl");
  WorkloadProfile p = npb_profile("cg");
  p.instructions_per_thread = 4000;
  CmpSystem system(CmpConfig{}, p, gigahertz(2.0));
  system.run();

  std::size_t perf_runs = 0;
  for (const JsonValue& record : capture.records()) {
    if (field(record, "kind")->string != "perf_run") continue;
    ++perf_runs;
    const JsonValue* state = field(record, "state_bytes");
    const JsonValue* sets = field(record, "l2_sets_filled");
    ASSERT_TRUE(state != nullptr && sets != nullptr);
    EXPECT_EQ(state->number, static_cast<double>(system.state_bytes()));
    EXPECT_GT(sets->number, 0.0);
    EXPECT_LE(sets->number, 12.0 * 2048);
  }
  EXPECT_EQ(perf_runs, 1u);
}

}  // namespace
}  // namespace aqua::obs
