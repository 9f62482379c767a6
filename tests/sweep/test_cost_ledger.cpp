/// The per-cell cost ledger (DESIGN.md §11) is exact at any worker count:
/// a sweep's summed work equals what the process-wide registry counters
/// saw over the run, it does not move with AQUA_SWEEP_WORKERS, and every
/// cell's `cell_cost` record carries the same work at 1 and 4 workers.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "core/experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_reader.hpp"
#include "power/chip_model.hpp"
#include "sweep/cache.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"

namespace aqua {
namespace {

GridOptions small_grid() {
  GridOptions g;
  g.nx = 16;
  g.ny = 16;
  return g;
}

/// The registry counters the ledger's work fields mirror, read as a tally.
obs::WorkTally registry_work() {
  obs::Registry& reg = obs::Registry::instance();
  obs::WorkTally t;
  t.solves = reg.counter("solver.solves").value();
  t.cg_iterations = reg.counter("solver.cg_iterations").value();
  t.precond_applies = reg.counter("solver.precond_applies").value();
  t.solver_ns = reg.counter("solver.wall_ns").value();
  t.des_events = reg.counter("perf.events").value();
  return t;
}

/// The tally without its one wall-clock field.
obs::WorkTally work_only(obs::WorkTally t) {
  t.solver_ns = 0;
  return t;
}

double number(const obs::JsonValue& record, const char* key) {
  const obs::JsonValue* v = record.find(key);
  EXPECT_NE(v, nullptr) << "cell_cost record missing '" << key << "'";
  return v != nullptr ? v->number : -1.0;
}

struct LedgerRun {
  sweep::CostBreakdown cost;
  obs::WorkTally registry;  ///< registry counter deltas over the run
  /// "sweep/cell" -> the cell_cost record's source and work fields.
  std::map<std::string, std::string> cells;
};

/// Runs one sweep on the shared engine at `workers` workers, cold, with
/// the run report captured to a temporary file.
LedgerRun run_at(std::size_t workers,
                 const std::function<sweep::CostBreakdown()>& sweep_fn) {
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  sweep::SweepCache::instance().configure("");
  // Named after the test: ctest runs the tests as parallel processes.
  const std::string path =
      std::string(::testing::TempDir()) + "aqua_cost_ledger_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_w" +
      std::to_string(workers) + ".jsonl";
  std::remove(path.c_str());
  obs::RunReport& report = obs::RunReport::instance();
  const std::string previous_path = report.path();
  const bool was_enabled = report.enabled();
  report.set_path(path);
  report.set_enabled(true);
  sweep::TaskEngine::shared().configure(workers);

  LedgerRun out;
  const obs::WorkTally before = registry_work();
  out.cost = sweep_fn();
  out.registry = registry_work() - before;

  sweep::TaskEngine::shared().configure(0);
  report.set_enabled(was_enabled);
  report.set_path(previous_path);
  for (const obs::JsonValue& record : obs::load_jsonl_file(path)) {
    const obs::JsonValue* kind = record.find("kind");
    if (kind == nullptr || kind->string != "cell_cost") continue;
    const std::string cell =
        record.find("sweep")->string + "/" + record.find("cell")->string;
    EXPECT_LE(number(record, "solve_us"), number(record, "compute_us"))
        << cell;
    std::ostringstream work;
    work << record.find("source")->string
         << " solves=" << number(record, "solves")
         << " cg_iterations=" << number(record, "cg_iterations")
         << " precond_applies=" << number(record, "precond_applies")
         << " des_events=" << number(record, "des_events");
    EXPECT_TRUE(out.cells.emplace(cell, work.str()).second)
        << "two records for " << cell;
  }
  std::remove(path.c_str());
  EXPECT_EQ(out.cells.size(), out.cost.cells);
  return out;
}

void expect_exact_at_any_worker_count(
    const std::function<sweep::CostBreakdown()>& sweep_fn) {
  const LedgerRun serial = run_at(1, sweep_fn);
  EXPECT_GT(serial.cost.cells, 0u);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const LedgerRun run = workers == 1 ? serial : run_at(workers, sweep_fn);
    // Exact: the cells' work sums to what the whole process did.
    EXPECT_EQ(run.cost.sum.work, run.registry);
    EXPECT_LE(run.cost.sum.solve_us(), run.cost.sum.compute_us);
    // Deterministic: the same work whoever computes which cell.
    EXPECT_EQ(run.cost.cells, serial.cost.cells);
    EXPECT_EQ(work_only(run.cost.sum.work), work_only(serial.cost.sum.work));
    if (workers == 4) {
      EXPECT_EQ(run.cells, serial.cells);
    }
  }
}

TEST(CostLedger, FrequencyVsChipsIsExactAtAnyWorkerCount) {
  expect_exact_at_any_worker_count([] {
    const FreqVsChipsData data =
        frequency_vs_chips(make_low_power_cmp(), 4, 80.0, small_grid());
    EXPECT_EQ(data.cost.sum.work.solves, data.cost.cells);  // one per cap
    EXPECT_EQ(data.cost.sum.work.precond_applies,
              data.cost.sum.work.cg_iterations);
    return data.cost;
  });
}

TEST(CostLedger, NpbExperimentIsExactAtAnyWorkerCount) {
  expect_exact_at_any_worker_count([] {
    const NpbData data =
        npb_experiment(make_low_power_cmp(), 6, CoolingKind::kWaterPipe,
                       80.0, /*instruction_scale=*/0.005, small_grid());
    EXPECT_EQ(data.cost.sum.work.solves, data.caps.size());
    EXPECT_GT(data.cost.sum.work.des_events, 0u);
    EXPECT_GT(data.deduped_cells, 0u);  // memo hits carry no work
    return data.cost;
  });
}

}  // namespace
}  // namespace aqua
