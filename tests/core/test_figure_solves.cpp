// Every steady solve behind the thermal figures (Figs. 1, 7, 8, 14, 15
// and 17) meets the CG tolerance in exactly one iteration: the spectral
// preconditioner inverts each figure's stack operator up to rounding, at
// the default grid and at finer ones.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cooling.hpp"
#include "core/experiments.hpp"
#include "core/freq_cap.hpp"
#include "obs/metrics.hpp"
#include "power/chip_model.hpp"

namespace aqua {
namespace {

struct SolverCounts {
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t applies = 0;
};

/// The process-wide solver counters: the figures' cells run on the task
/// engine's threads, so a calling thread's tally would miss them.
SolverCounts counts() {
  obs::Registry& reg = obs::Registry::instance();
  return {reg.counter("solver.solves").value(),
          reg.counter("solver.cg_iterations").value(),
          reg.counter("solver.precond_applies").value()};
}

TEST(FigureSolves, OneCgIterationPerSolveOnEveryThermalFigure) {
  const SolverCounts before = counts();
  // Figs. 1, 7, 8 and 17.
  (void)frequency_vs_chips(make_xeon_e5_2667v4(), 4, 78.0);
  (void)frequency_vs_chips(make_low_power_cmp(), 14);
  (void)frequency_vs_chips(make_high_frequency_cmp(), 15);
  (void)frequency_vs_chips(make_xeon_phi_7290(), 4);
  // Fig. 14.
  const std::vector<double> htcs{14.0,  50.0,  100.0,  160.0,  180.0,
                                 400.0, 800.0, 1600.0, 2400.0, 3200.0};
  for (const ChipModel& chip :
       {make_low_power_cmp(), make_high_frequency_cmp(),
        make_xeon_e5_2667v4(), make_xeon_phi_7290()}) {
    (void)htc_sweep(chip, 4, htcs);
  }
  // Fig. 15.
  for (const CoolingKind kind :
       {CoolingKind::kAir, CoolingKind::kWaterImmersion}) {
    (void)rotation_sweep(make_high_frequency_cmp(), 4, CoolingOption(kind));
  }
  const SolverCounts after = counts();
  const std::uint64_t solves = after.solves - before.solves;
  EXPECT_GT(solves, 200u);
  EXPECT_EQ(after.iterations - before.iterations, solves);
  EXPECT_EQ(after.applies - before.applies, solves);
}

TEST(FigureSolves, OneCgIterationPerSolveAtFinerGrids) {
  // The Fig. 8 stack at its full 15-chip height from 32 to 128 cells per
  // side, including 48 (an odd transform base of 3) and 100 (25), and 8
  // chips at 256. Immersed, every solve takes one iteration. Air and the
  // cold plate ground the stack so weakly that, above 32 cells, the
  // rounding of one apply and one product, magnified by the stack's
  // condition number, can leave the one-step residual above the 1e-9
  // target: CG then takes a second iteration.
  struct Grid {
    std::size_t n;
    std::size_t chips;
  };
  for (const Grid g : {Grid{32, 15}, Grid{48, 15}, Grid{64, 15},
                       Grid{100, 15}, Grid{128, 15}, Grid{256, 8}}) {
    GridOptions grid;
    grid.nx = g.n;
    grid.ny = g.n;
    const MaxFrequencyFinder finder(make_high_frequency_cmp(),
                                    PackageConfig{}, 80.0, grid);
    for (const CoolingKind kind :
         {CoolingKind::kAir, CoolingKind::kWaterPipe,
          CoolingKind::kMineralOil, CoolingKind::kFluorinert,
          CoolingKind::kWaterImmersion}) {
      SCOPED_TRACE(std::to_string(g.n) + " cells, " +
                   std::to_string(g.chips) + " chips, " + to_string(kind));
      const bool immersed =
          kind != CoolingKind::kAir && kind != CoolingKind::kWaterPipe;
      const std::uint64_t most = immersed || g.n == 32 ? 1 : 2;
      const SolverCounts before = counts();
      (void)finder.temperature_at(g.chips, CoolingOption(kind),
                                  gigahertz(3.6));
      const SolverCounts after = counts();
      EXPECT_EQ(after.solves - before.solves, 1u);
      EXPECT_LE(after.iterations - before.iterations, most);
      EXPECT_EQ(after.applies - before.applies,
                after.iterations - before.iterations);
    }
  }
}

}  // namespace
}  // namespace aqua
