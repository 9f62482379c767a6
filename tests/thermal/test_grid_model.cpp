#include "thermal/grid_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/cooling.hpp"
#include "floorplan/builders.hpp"
#include "obs/metrics.hpp"
#include "power/chip_model.hpp"

namespace aqua {
namespace {

GridOptions coarse_grid() {
  GridOptions g;
  g.nx = 16;
  g.ny = 16;
  return g;
}

ThermalBoundary water_boundary(const PackageConfig& pkg) {
  ThermalBoundary b;
  b.ambient_c = pkg.ambient_c;
  b.top_htc = HeatTransferCoefficient(800.0);
  b.top_coolant_is_gas = false;
  b.bottom_htc = HeatTransferCoefficient(800.0);
  b.film_on_bottom = true;
  return b;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::vector<double>> uniform_powers(const ChipModel& chip,
                                                const Stack3d& stack,
                                                Hertz f) {
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), f));
  }
  return powers;
}

TEST(GridModel, TemperaturesAboveAmbient) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const ThermalSolution sol = model.solve_steady(
      uniform_powers(chip, stack, gigahertz(1.5)));
  EXPECT_GT(sol.max_die_temperature_c(), pkg.ambient_c);
  for (std::size_t l = 0; l < sol.total_layer_count(); ++l) {
    for (std::size_t iy = 0; iy < sol.ny(); ++iy) {
      for (std::size_t ix = 0; ix < sol.nx(); ++ix) {
        ASSERT_GT(sol.at(l, ix, iy), pkg.ambient_c - 1e-9);
      }
    }
  }
}

TEST(GridModel, ZeroPowerIsAmbient) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 1, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const std::vector<std::vector<double>> zero(
      1, std::vector<double>(chip.floorplan().block_count(), 0.0));
  const ThermalSolution sol = model.solve_steady(zero);
  EXPECT_NEAR(sol.max_die_temperature_c(), pkg.ambient_c, 1e-6);
}

TEST(GridModel, TemperatureLinearInPower) {
  // The model is linear: doubling every block power doubles the rise.
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());

  std::vector<std::vector<double>> powers =
      uniform_powers(chip, stack, gigahertz(1.0));
  const double rise1 =
      model.solve_steady(powers).max_die_temperature_c() - pkg.ambient_c;
  for (auto& layer : powers) {
    for (double& p : layer) p *= 2.0;
  }
  const double rise2 =
      model.solve_steady(powers).max_die_temperature_c() - pkg.ambient_c;
  EXPECT_NEAR(rise2, 2.0 * rise1, 1e-6 * rise2 + 1e-9);
}

TEST(GridModel, HigherHtcRunsCooler) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 3, FlipPolicy::kNone);
  double prev = 1e9;
  for (double h : {50.0, 200.0, 800.0, 3200.0}) {
    ThermalBoundary b = water_boundary(pkg);
    b.top_htc = HeatTransferCoefficient(h);
    b.bottom_htc = HeatTransferCoefficient(h);
    StackThermalModel model(stack, pkg, b, coarse_grid());
    const double t = model
                         .solve_steady(uniform_powers(chip, stack,
                                                      gigahertz(1.5)))
                         .max_die_temperature_c();
    EXPECT_LT(t, prev) << "h=" << h;
    prev = t;
  }
}

TEST(GridModel, MoreChipsRunHotter) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  double prev = 0.0;
  for (std::size_t chips : {1u, 2u, 4u}) {
    const Stack3d stack(chip.floorplan(), chips, FlipPolicy::kNone);
    StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
    const double t = model
                         .solve_steady(uniform_powers(chip, stack,
                                                      gigahertz(1.5)))
                         .max_die_temperature_c();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(GridModel, HotspotSitsOverCores) {
  const ChipModel chip = make_high_frequency_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 1, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const ThermalSolution sol = model.solve_steady(
      uniform_powers(chip, stack, gigahertz(3.6)));
  // Cores occupy the bottom row (small iy): the hottest cell must be there.
  double best = -1e9;
  std::size_t best_iy = 0;
  for (std::size_t iy = 0; iy < sol.ny(); ++iy) {
    for (std::size_t ix = 0; ix < sol.nx(); ++ix) {
      if (sol.at(0, ix, iy) > best) {
        best = sol.at(0, ix, iy);
        best_iy = iy;
      }
    }
  }
  EXPECT_LT(best_iy, sol.ny() / 4);
}

TEST(GridModel, UpperTierRunsCooler) {
  // Paper Fig. 9: the tier next to the spreader/heatsink is coolest... the
  // bottom (far from the sink) is hottest when the board path is weak.
  const ChipModel chip = make_high_frequency_cmp();
  PackageConfig pkg;
  ThermalBoundary b;  // default: weak air bottom, air top
  b.ambient_c = pkg.ambient_c;
  const Stack3d stack(chip.floorplan(), 4, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, b, coarse_grid());
  const ThermalSolution sol = model.solve_steady(
      uniform_powers(chip, stack, gigahertz(1.2)));
  EXPECT_GT(sol.layer_max_c(0), sol.layer_max_c(3));
}

TEST(GridModel, BlockTemperaturesMatchFieldRange) {
  const ChipModel chip = make_high_frequency_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 1, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const ThermalSolution sol = model.solve_steady(
      uniform_powers(chip, stack, gigahertz(3.6)));
  const std::vector<double> temps =
      sol.block_temperatures_c(0, stack.layer(0));
  ASSERT_EQ(temps.size(), stack.layer(0).block_count());
  const double max_cell = sol.layer_max_c(0);
  double core_t = 0.0;
  double l2_t = 0.0;
  for (std::size_t i = 0; i < temps.size(); ++i) {
    EXPECT_LE(temps[i], max_cell + 1e-9);
    EXPECT_GE(temps[i], pkg.ambient_c);
    const Block& blk = stack.layer(0).blocks()[i];
    if (blk.name == "CORE1") core_t = temps[i];
    if (blk.name == "L2_12") l2_t = temps[i];
  }
  EXPECT_GT(core_t, l2_t);  // Fig. 9: cores hotter than far L2 banks
}

TEST(GridModel, RepeatedSolveIsBitIdentical) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const auto powers = uniform_powers(chip, stack, gigahertz(1.5));
  const double t1 = model.solve_steady(powers).max_die_temperature_c();
  const double t2 = model.solve_steady(powers).max_die_temperature_c();
  // Every solve starts from zero: the second is the first, bit for bit.
  EXPECT_EQ(bits(t1), bits(t2));
}

TEST(GridModel, PowerVectorConservesTotal) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 3, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  const auto powers = uniform_powers(chip, stack, gigahertz(2.0));
  const std::vector<double> rhs = model.power_vector(powers);
  double total = 0.0;
  for (double v : rhs) total += v;
  EXPECT_NEAR(total, 3.0 * chip.total_power(gigahertz(2.0)).value(), 1e-6);
}

TEST(GridModel, ColdPlateBeatsNaturalAir) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);

  ThermalBoundary air;
  air.ambient_c = pkg.ambient_c;
  StackThermalModel air_model(stack, pkg, air, coarse_grid());

  ThermalBoundary pipe;
  pipe.ambient_c = pkg.ambient_c;
  pipe.coldplate_resistance = 0.05;
  StackThermalModel pipe_model(stack, pkg, pipe, coarse_grid());

  const auto powers = uniform_powers(chip, stack, gigahertz(1.5));
  EXPECT_LT(pipe_model.solve_steady(powers).max_die_temperature_c(),
            air_model.solve_steady(powers).max_die_temperature_c());
}

/// Largest |T_a - T_b| over every node of two solutions of one grid.
double max_abs_difference(const ThermalSolution& a, const ThermalSolution& b) {
  double worst = 0.0;
  for (std::size_t l = 0; l < a.total_layer_count(); ++l) {
    for (std::size_t iy = 0; iy < a.ny(); ++iy) {
      for (std::size_t ix = 0; ix < a.nx(); ++ix) {
        worst = std::max(worst, std::abs(a.at(l, ix, iy) - b.at(l, ix, iy)));
      }
    }
  }
  return worst;
}

/// The model's spectral solve at the default tolerance against a direct
/// Jacobi-CG solve of its conductance matrix at 1e-13, on one stack: the
/// same field, in one CG iteration.
void expect_spectral_matches_tight_jacobi(const ChipModel& chip,
                                          const Stack3d& stack,
                                          const ThermalBoundary& boundary,
                                          const GridOptions& grid, Hertz f) {
  StackThermalModel model(stack, PackageConfig{}, boundary, grid);
  const auto powers = uniform_powers(chip, stack, f);
  SolverOptions tight;
  tight.tolerance = 1e-13;
  const SolveResult jacobi =
      solve_cg(model.conductance(), model.power_vector(powers), tight);
  ASSERT_TRUE(jacobi.converged);
  std::vector<double> jacobi_c = jacobi.x;
  for (double& t : jacobi_c) t += boundary.ambient_c;
  const ThermalSolution sj(grid.nx, grid.ny, stack.layer_count(),
                           std::move(jacobi_c));

  const obs::WorkTally start = obs::thread_work();
  const ThermalSolution ss = model.solve_steady(powers);
  const obs::WorkTally work = obs::thread_work() - start;

  // 1e-8 C per 100 C of rise: the default tolerance (1e-9 on the
  // residual) buys that on the hottest, most weakly cooled figure cells.
  const double rise = ss.max_die_temperature_c() - boundary.ambient_c;
  EXPECT_LE(max_abs_difference(ss, sj), 1e-8 * std::max(1.0, rise / 100.0));
  EXPECT_EQ(model.last_solve().iterations, 1u);
  EXPECT_EQ(work.precond_applies, 1u);
  EXPECT_GT(jacobi.iterations, 100u);
}

TEST(GridModel, SpectralMatchesJacobiOnFlippedStack) {
  // Asymmetric problem: four chips with every even layer rotated 180
  // degrees, so the power map (and the field) has no symmetry the
  // transforms could accidentally depend on.
  const ChipModel chip = make_high_frequency_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 4, FlipPolicy::kFlipEven);
  expect_spectral_matches_tight_jacobi(chip, stack, water_boundary(pkg),
                                       coarse_grid(), gigahertz(3.0));
}

TEST(GridModel, SpectralMatchesTightJacobiOnFigureStacks) {
  // The figures' grid and their extremes at the top VFS step: the tallest
  // stacks (Figs. 7 and 8), the weakest boundaries (air, Fig. 14's
  // 14 W/m^2K), a cold plate, and the Xeon floorplans of Figs. 1 and 17.
  const PackageConfig pkg;
  const auto boundary = [&pkg](CoolingKind kind) {
    return CoolingOption(kind).boundary(pkg);
  };
  ThermalBoundary htc14 = water_boundary(pkg);
  htc14.top_htc = HeatTransferCoefficient(14.0);
  htc14.bottom_htc = HeatTransferCoefficient(14.0);
  struct Case {
    ChipModel chip;
    std::size_t chips;
    FlipPolicy flip;
    ThermalBoundary boundary;
  };
  const Case cases[] = {
      {make_low_power_cmp(), 14, FlipPolicy::kNone,
       boundary(CoolingKind::kWaterImmersion)},
      {make_high_frequency_cmp(), 15, FlipPolicy::kFlipEven,
       boundary(CoolingKind::kWaterImmersion)},
      {make_high_frequency_cmp(), 4, FlipPolicy::kFlipEven,
       boundary(CoolingKind::kAir)},
      {make_high_frequency_cmp(), 7, FlipPolicy::kNone,
       boundary(CoolingKind::kWaterPipe)},
      {make_low_power_cmp(), 4, FlipPolicy::kNone, htc14},
      {make_xeon_e5_2667v4(), 4, FlipPolicy::kNone,
       boundary(CoolingKind::kAir)},
      {make_xeon_phi_7290(), 4, FlipPolicy::kNone,
       boundary(CoolingKind::kFluorinert)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.chip.name() + " x" + std::to_string(c.chips));
    const Stack3d stack(c.chip.floorplan(), c.chips, c.flip);
    expect_spectral_matches_tight_jacobi(c.chip, stack, c.boundary,
                                         GridOptions{},
                                         c.chip.max_frequency());
  }
}

TEST(GridModel, ValidatesInput) {
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);
  StackThermalModel model(stack, pkg, water_boundary(pkg), coarse_grid());
  // Wrong number of layers.
  EXPECT_THROW(model.solve_steady({std::vector<double>(32, 1.0)}), Error);
  // Wrong block count on a layer.
  EXPECT_THROW(
      model.solve_steady(std::vector<std::vector<double>>(
          2, std::vector<double>(3, 1.0))),
      Error);
}

TEST(GridModel, RejectsGridsTooLargeToIndex) {
  // A node count past the stencil's 32-bit limit, or one that wraps
  // size_t, throws before any grid-sized allocation.
  const ChipModel chip = make_low_power_cmp();
  const PackageConfig pkg;
  const Stack3d stack(chip.floorplan(), 2, FlipPolicy::kNone);
  for (const std::size_t n : {SIZE_MAX, std::size_t{1} << 17}) {
    GridOptions grid;
    grid.nx = grid.ny = n;
    EXPECT_THROW(
        (void)StackThermalModel(stack, pkg, water_boundary(pkg), grid), Error);
  }
}

}  // namespace
}  // namespace aqua
