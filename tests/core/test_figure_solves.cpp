// Every steady solve behind the thermal figures (Figs. 1, 7, 8, 14, 15
// and 17) meets the CG tolerance in exactly one iteration: the spectral
// preconditioner inverts each figure's stack operator up to rounding.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cooling.hpp"
#include "core/experiments.hpp"
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

}  // namespace
}  // namespace aqua
