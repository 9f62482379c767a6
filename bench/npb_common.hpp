#pragma once

/// Shared driver for the four NPB figures (10-13): run the experiment,
/// print the paper-style table, emit the BENCH_<slug>.json perf record,
/// and register a DES micro-benchmark.

#include <chrono>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "perf/system.hpp"
#include "power/chip_model.hpp"

namespace aqua::bench {

/// Runs one NPB figure and writes `BENCH_<slug>.json`: the figure's
/// headline numbers (per-cooling frequency caps, mean relative times)
/// plus the DES perf trajectory for the sweep — wall seconds, events and
/// NoC ticks per instruction — so DES regressions show up per PR.
/// Returns false when SIGINT/SIGTERM interrupted the sweep (table and
/// BENCH json are withheld; the driver exits kInterruptedExit).
inline bool run_npb_figure(const std::string& slug, const std::string& figure,
                           const std::string& description,
                           const ChipModel& chip, std::size_t chips,
                           CoolingKind baseline) {
  install_interrupt_guard();
  banner(figure, description);

  // Snapshot the process-wide DES counters around the sweep so the JSON
  // reports this figure's simulations only.
  obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t instr0 = reg.counter("perf.instructions").value();
  const std::uint64_t events0 = reg.counter("perf.events").value();
  const std::uint64_t skipped0 = reg.counter("perf.events_skipped").value();
  const std::uint64_t ticks0 = reg.counter("perf.noc_ticks").value();
  const auto t0 = std::chrono::steady_clock::now();

  const NpbData data = npb_experiment(chip, chips, baseline, 80.0,
                                      npb_scale());
  if (interrupted_epilogue(slug)) return false;

  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t instr = reg.counter("perf.instructions").value() - instr0;
  const std::uint64_t events = reg.counter("perf.events").value() - events0;
  const std::uint64_t skipped =
      reg.counter("perf.events_skipped").value() - skipped0;
  const std::uint64_t ticks = reg.counter("perf.noc_ticks").value() - ticks0;

  npb_table(data).print(std::cout);

  std::cout << "\nrelative execution time vs. " << to_string(baseline)
            << " (lower is better; '-' = cooling cannot carry the stack)\n";
  const auto water = data.mean_relative(CoolingKind::kWaterImmersion);
  if (water.has_value()) {
    std::cout << "water mean gain vs. baseline: "
              << format_double((1.0 - *water) * 100.0, 1) << "%\n";
  }
  std::cout << "\n";

  JsonReport report(slug);
  report.add("chips", chips);
  report.add("threads", data.threads);
  report.add("npb_scale", npb_scale(), 3);
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    const std::string name = to_string(data.coolings[k]);
    report.add("ghz_" + name, data.caps[k].feasible
                                  ? data.caps[k].frequency.gigahertz()
                                  : 0.0,
               3);
    const auto rel = data.mean_relative(data.coolings[k]);
    report.add("mean_rel_" + name, rel.value_or(0.0), 4);
  }
  report.add("sweep_wall_seconds", sweep_seconds, 3);
  std::size_t feasible = 0;
  for (const FrequencyCap& cap : data.caps) feasible += cap.feasible ? 1 : 0;
  // Cells = the cap cells plus one DES slot per feasible (benchmark,
  // cooling) pair (rows carries the synthetic "avg" row, hence -1).
  report.add_sweep_provenance(
      data.coolings.size() + feasible * (data.rows.size() - 1),
      data.resumed_cells, data.cached_cells, data.deduped_cells,
      data.shard_skipped, data.failed_cells.size());
  report.add("des_instructions", static_cast<std::int64_t>(instr));
  report.add("des_events", static_cast<std::int64_t>(events));
  report.add("des_events_per_instruction",
             instr > 0 ? static_cast<double>(events) /
                             static_cast<double>(instr)
                       : 0.0,
             4);
  report.add("des_noc_ticks", static_cast<std::int64_t>(ticks));
  report.add("des_cycles_skipped", static_cast<std::int64_t>(skipped));
  report.add_cost_breakdown(data.cost);
  report.write();
  return true;
}

inline void microbench_des(benchmark::State& state, const ChipModel&,
                           std::size_t chips) {
  CmpConfig cfg;
  cfg.chips = chips;
  WorkloadProfile p = npb_profile("ft");
  p.instructions_per_thread = 3000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    CmpSystem system(cfg, p, gigahertz(1.6), seed++);
    benchmark::DoNotOptimize(system.run());
  }
}

}  // namespace aqua::bench
