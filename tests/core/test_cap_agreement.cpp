// The Fig. 7 and Fig. 8 caps do not depend on the preconditioner: every
// cell of both sweeps (80 C, all five coolings) is recomputed from a
// reference solve — plain Jacobi-CG on the cell's conductance matrix at
// the top VFS step — walked down the ladder by the finder's
// superposition, and must land on the sweep's cap. The Jacobi solves take
// several seconds, so this suite is labelled slow.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/cooling.hpp"
#include "core/experiments.hpp"
#include "power/chip_model.hpp"

namespace aqua {
namespace {

/// The cap of one (chip, height, cooling) cell from a Jacobi-CG solve of
/// the top step; nullopt when even the lowest step exceeds the threshold.
std::optional<double> reference_cap_ghz(const ChipModel& chip,
                                        std::size_t chips,
                                        const CoolingOption& cooling,
                                        double threshold_c) {
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), chips, FlipPolicy::kNone);
  const StackThermalModel model(stack, pkg, cooling.boundary(pkg));
  const VfsLadder& ladder = chip.ladder();
  const std::size_t top = ladder.size() - 1;
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < chips; ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), ladder.step(top)));
  }
  const SolveResult jacobi =
      solve_cg(model.conductance(), model.power_vector(powers), {});
  EXPECT_TRUE(jacobi.converged);
  const double ambient_c = model.boundary().ambient_c;
  std::vector<double> temps = jacobi.x;
  for (double& t : temps) t += ambient_c;
  const double t_top =
      ThermalSolution(model.options().nx, model.options().ny, chips,
                      std::move(temps))
          .max_die_temperature_c();

  // The finder's walk: each step's peak is the top step's rise scaled by
  // the power ratio.
  const double top_power = chip.total_power(ladder.step(top)).value();
  std::size_t step = top;
  double t = t_top;
  while (t > threshold_c && step > 0) {
    --step;
    t = ambient_c + chip.total_power(ladder.step(step)).value() / top_power *
                        (t_top - ambient_c);
  }
  if (t > threshold_c) return std::nullopt;
  return ladder.step(step).gigahertz();
}

void expect_caps_agree(const ChipModel& chip, std::size_t max_chips) {
  constexpr double kThresholdC = 80.0;
  const FreqVsChipsData data = frequency_vs_chips(chip, max_chips, kThresholdC);
  EXPECT_TRUE(data.failed_cells.empty());
  for (const CoolingOption& cooling : all_cooling_options()) {
    const FreqVsChipsSeries& series = data.of(cooling.kind());
    for (std::size_t chips = 1; chips <= max_chips; ++chips) {
      SCOPED_TRACE(chip.name() + " chips=" + std::to_string(chips) + " " +
                   cooling.name());
      EXPECT_EQ(series.ghz[chips - 1],
                reference_cap_ghz(chip, chips, cooling, kThresholdC));
    }
  }
}

TEST(CapAgreement, Fig07CapsMatchTheJacobiReference) {
  expect_caps_agree(make_low_power_cmp(), 14);
}

TEST(CapAgreement, Fig08CapsMatchTheJacobiReference) {
  expect_caps_agree(make_high_frequency_cmp(), 15);
}

}  // namespace
}  // namespace aqua
