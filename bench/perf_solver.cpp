/// Solver performance: multigrid-preconditioned CG vs. the Jacobi baseline
/// on the paper's stack sweeps (Figs. 7 / 8 configurations).
///
/// The headline table runs the full frequency-vs-chips sweep for the
/// low-power and high-frequency CMPs under both preconditioners and checks
/// that every max-frequency answer agrees, then compares total CG
/// iterations and wall time. The numbers also land in BENCH_solver.json
/// (format in EXPERIMENTS.md) for scripted regression tracking.

#include <chrono>

#include "bench_util.hpp"
#include "power/chip_model.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct SweepRun {
  aqua::FreqVsChipsData data;
  double seconds = 0.0;
};

SweepRun run_sweep(const aqua::ChipModel& chip, std::size_t max_chips,
                   aqua::PreconditionerKind kind) {
  aqua::GridOptions grid;
  grid.preconditioner = kind;
  const auto t0 = Clock::now();
  SweepRun run;
  run.data = aqua::frequency_vs_chips(chip, max_chips, 80.0, grid);
  run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return run;
}

/// True when both sweeps produced identical feasibility and frequencies.
bool answers_match(const aqua::FreqVsChipsData& a,
                   const aqua::FreqVsChipsData& b) {
  if (a.series.size() != b.series.size()) return false;
  for (std::size_t k = 0; k < a.series.size(); ++k) {
    if (a.series[k].ghz != b.series[k].ghz) return false;
  }
  return true;
}

void report_config(const std::string& tag, const aqua::ChipModel& chip,
                   std::size_t max_chips, aqua::Table& table,
                   aqua::bench::JsonReport& report) {
  const SweepRun jacobi =
      run_sweep(chip, max_chips, aqua::PreconditionerKind::kJacobi);
  const SweepRun mg =
      run_sweep(chip, max_chips, aqua::PreconditionerKind::kMultigrid);

  const bool agree = answers_match(jacobi.data, mg.data);
  const aqua::obs::WorkTally& jacobi_work = jacobi.data.cost.sum.work;
  const aqua::obs::WorkTally& mg_work = mg.data.cost.sum.work;
  const double iter_ratio =
      mg_work.cg_iterations > 0
          ? static_cast<double>(jacobi_work.cg_iterations) /
                static_cast<double>(mg_work.cg_iterations)
          : 0.0;

  for (const auto* run : {&jacobi, &mg}) {
    const bool is_mg = run == &mg;
    const aqua::obs::WorkTally& work = run->data.cost.sum.work;
    table.row()
        .add(tag)
        .add(is_mg ? "multigrid" : "jacobi")
        .add_int(static_cast<long long>(work.solves))
        .add_int(static_cast<long long>(work.cg_iterations))
        .add_int(static_cast<long long>(work.vcycles))
        .add(static_cast<double>(work.solver_ns) * 1e-9, 3)
        .add(run->seconds, 3);
  }

  report.add_stats(tag + "_jacobi", jacobi_work);
  report.add(tag + "_jacobi_sweep_seconds", jacobi.seconds, 3);
  report.add_stats(tag + "_multigrid", mg_work);
  report.add(tag + "_multigrid_sweep_seconds", mg.seconds, 3);
  report.add(tag + "_iteration_ratio", iter_ratio, 2);
  report.add(tag + "_answers_match", agree);

  std::cout << tag << ": " << (agree ? "answers match" : "ANSWERS DIFFER")
            << ", jacobi/multigrid iteration ratio = " << iter_ratio << "x\n";
}

// ------------------------------------------------------- micro-timings ----

struct SteadyProblem {
  // Two power maps (different VFS steps) so consecutive solves do real
  // work at the warm-start distance of a VFS step change, instead of
  // re-solving an already-converged system.
  std::vector<std::vector<double>> powers_lo;
  std::vector<std::vector<double>> powers_hi;
  aqua::StackThermalModel model;  // built in place: not movable
};

SteadyProblem make_steady(std::size_t chips, aqua::PreconditionerKind kind) {
  const aqua::ChipModel chip = aqua::make_low_power_cmp();
  const aqua::PackageConfig pkg;
  const aqua::Stack3d stack(chip.floorplan(), chips, aqua::FlipPolicy::kNone);
  aqua::GridOptions grid;
  grid.preconditioner = kind;
  std::vector<std::vector<double>> lo;
  std::vector<std::vector<double>> hi;
  for (std::size_t l = 0; l < chips; ++l) {
    lo.push_back(chip.block_powers(stack.layer(l), aqua::gigahertz(1.0)));
    hi.push_back(chip.block_powers(stack.layer(l), aqua::gigahertz(1.5)));
  }
  return {std::move(lo), std::move(hi),
          aqua::StackThermalModel(
              stack, pkg,
              aqua::CoolingOption(aqua::CoolingKind::kWaterImmersion)
                  .boundary(pkg),
              grid)};
}

void microbench_steady_jacobi(benchmark::State& state) {
  SteadyProblem p = make_steady(static_cast<std::size_t>(state.range(0)),
                                aqua::PreconditionerKind::kJacobi);
  bool hi = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.model.solve_steady(hi ? p.powers_hi : p.powers_lo));
    hi = !hi;
  }
}
BENCHMARK(microbench_steady_jacobi)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

void microbench_steady_multigrid(benchmark::State& state) {
  SteadyProblem p = make_steady(static_cast<std::size_t>(state.range(0)),
                                aqua::PreconditionerKind::kMultigrid);
  bool hi = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.model.solve_steady(hi ? p.powers_hi : p.powers_lo));
    hi = !hi;
  }
}
BENCHMARK(microbench_steady_multigrid)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Solver", "multigrid vs. Jacobi preconditioning on the "
                                "Fig. 7/8 stack sweeps");
  aqua::Table t({"config", "preconditioner", "solves", "cg_iters", "vcycles",
                 "solve_s", "sweep_s"});
  aqua::bench::JsonReport report("solver");
  report_config("fig07_lowpower", aqua::make_low_power_cmp(), 14, t, report);
  report_config("fig08_highfreq", aqua::make_high_frequency_cmp(), 15, t,
                report);
  std::cout << '\n';
  t.print(std::cout);
  report.write();
  return aqua::bench::run_microbenchmarks(argc, argv);
}
