#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "power/chip_model.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/thermal_map.hpp"
#include "thermal/transient.hpp"

namespace aqua {
namespace {

GridOptions tiny_grid() {
  GridOptions g;
  g.nx = 8;
  g.ny = 8;
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

struct Fixture {
  ChipModel chip = make_low_power_cmp();
  PackageConfig pkg{};
  Stack3d stack{chip.floorplan(), 2, FlipPolicy::kNone};
  StackThermalModel model{stack, pkg, water_boundary(pkg), tiny_grid()};

  std::vector<std::vector<double>> powers(double ghz) {
    std::vector<std::vector<double>> out;
    for (std::size_t l = 0; l < stack.layer_count(); ++l) {
      out.push_back(chip.block_powers(stack.layer(l), gigahertz(ghz)));
    }
    return out;
  }
};

// ------------------------------------------------------------ transient ----

TEST(Transient, StepResponseApproachesSteadyState) {
  Fixture f;
  const auto powers = f.powers(1.5);
  const double steady = f.model.solve_steady(powers).max_die_temperature_c();

  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const std::vector<TransientSample> samples = solver.run_step(30.0, powers);
  ASSERT_FALSE(samples.empty());
  EXPECT_NEAR(samples.back().max_die_temperature_c, steady, 0.5);
}

TEST(Transient, TemperatureRisesMonotonically) {
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const auto samples = solver.run_step(2.0, f.powers(1.5));
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].max_die_temperature_c,
              samples[i - 1].max_die_temperature_c - 1e-9);
  }
}

TEST(Transient, StartsNearAmbient) {
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.001;
  TransientSolver solver(f.model, opts);
  const auto samples = solver.run_step(0.002, f.powers(2.0));
  // Two milliseconds in, the stack has barely warmed.
  EXPECT_LT(samples.front().max_die_temperature_c, f.pkg.ambient_c + 10.0);
}

TEST(Transient, TimeVaryingPowerTracksInput) {
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const auto low = f.powers(1.0);
  const auto high = f.powers(2.0);
  // High power for 15 s, then low: the peak must come in the first half.
  const auto samples = solver.run(30.0, [&](double t) {
    return t < 15.0 ? high : low;
  });
  double peak = 0.0;
  double peak_time = 0.0;
  for (const auto& s : samples) {
    if (s.max_die_temperature_c > peak) {
      peak = s.max_die_temperature_c;
      peak_time = s.time_s;
    }
  }
  EXPECT_LE(peak_time, 15.1);
  EXPECT_GT(samples.back().max_die_temperature_c, f.pkg.ambient_c);
  EXPECT_LT(samples.back().max_die_temperature_c, peak);
}

TEST(Transient, FinalStateMatchesLastSample) {
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const auto samples = solver.run_step(1.0, f.powers(1.5));
  const std::vector<double>& state = solver.final_state_c();
  double max_die = -1e9;
  const std::size_t die_nodes = 2 * 8 * 8;
  for (std::size_t i = 0; i < die_nodes; ++i) {
    max_die = std::max(max_die, state[i]);
  }
  EXPECT_NEAR(max_die, samples.back().max_die_temperature_c, 1e-9);
}

TEST(Transient, NanPowerFailsTheStepAndKeepsTheState) {
  // A NaN power poisons the step's right-hand side: the step throws, and
  // the clock and state stay where the last good step left them.
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const auto powers = f.powers(1.5);
  ASSERT_EQ(solver.continue_run(opts.dt_seconds,
                                [&](double) { return powers; })
                .size(),
            1u);
  const std::vector<double> before = solver.final_state_c();
  const double clock = solver.now_s();
  auto poisoned = powers;
  poisoned[0][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)solver.continue_run(opts.dt_seconds,
                                         [&](double) { return poisoned; }),
               Error);
  EXPECT_EQ(solver.final_state_c(), before);
  EXPECT_EQ(solver.now_s(), clock);
}

TEST(Transient, EveryStepIsOneSpectralIterationAndMatchesTightJacobi) {
  // The stepping matrix C/dt + G is layered, so the spectral solve is its
  // exact inverse: each step takes one CG iteration and one
  // preconditioner application.
  Fixture f;
  TransientOptions opts;
  opts.dt_seconds = 0.05;
  TransientSolver solver(f.model, opts);
  const auto powers = f.powers(2.0);
  constexpr std::size_t kSteps = 20;
  for (std::size_t s = 0; s < kSteps; ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const obs::WorkTally start = obs::thread_work();
    ASSERT_EQ(solver.continue_run(opts.dt_seconds,
                                  [&](double) { return powers; })
                  .size(),
              1u);
    const obs::WorkTally work = obs::thread_work() - start;
    EXPECT_EQ(work.solves, 1u);
    EXPECT_EQ(work.cg_iterations, 1u);
    EXPECT_EQ(work.precond_applies, 1u);
  }

  // Reference stepping: Jacobi-CG at 1e-13 on the same stepping matrix.
  const StencilMatrix& a = solver.stepping_matrix();
  const std::vector<double>& cap = f.model.capacities();
  const std::vector<double> p = f.model.power_vector(powers);
  SolverOptions tight;
  tight.tolerance = 1e-13;
  std::vector<double> theta(f.model.node_count(), 0.0);
  std::vector<double> rhs(theta.size());
  for (std::size_t s = 0; s < kSteps; ++s) {
    for (std::size_t i = 0; i < theta.size(); ++i) {
      rhs[i] = cap[i] / opts.dt_seconds * theta[i] + p[i];
    }
    const SolveResult ref = solve_cg(a, rhs, tight);
    ASSERT_TRUE(ref.converged);
    theta = ref.x;
  }

  // 1e-8 C per 100 C of rise, the steady path's bound.
  const double ambient = f.model.boundary().ambient_c;
  const std::vector<double> got = solver.final_state_c();
  double worst = 0.0;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    worst = std::max(worst, std::abs(got[i] - ambient - theta[i]));
  }
  const double rise = solver.max_die_temperature_c() - ambient;
  EXPECT_GT(rise, 1.0);
  EXPECT_LE(worst, 1e-8 * std::max(1.0, rise / 100.0));
}

// ---------------------------------------------------------- thermal map ----

TEST(ThermalMap, AsciiRenderHasGridShape) {
  Fixture f;
  const ThermalSolution sol = f.model.solve_steady(f.powers(1.5));
  std::ostringstream os;
  render_layer_ascii(os, sol, 0, "Layer 1");
  const std::string s = os.str();
  // Header line + 8 rows of 8 glyphs.
  std::size_t lines = 0;
  for (char c : s) lines += c == '\n';
  EXPECT_EQ(lines, 9u);
  EXPECT_NE(s.find("min"), std::string::npos);
  EXPECT_NE(s.find("max"), std::string::npos);
}

TEST(ThermalMap, StackRenderCoversAllDieLayers) {
  Fixture f;
  const ThermalSolution sol = f.model.solve_steady(f.powers(1.5));
  std::ostringstream os;
  render_stack_ascii(os, sol, "title");
  const std::string s = os.str();
  EXPECT_NE(s.find("Layer 1"), std::string::npos);
  EXPECT_NE(s.find("Layer 2"), std::string::npos);
  EXPECT_NE(s.find("(bottom)"), std::string::npos);
  EXPECT_NE(s.find("(top)"), std::string::npos);
}

TEST(ThermalMap, CsvHasNyRowsNxColumns) {
  Fixture f;
  const ThermalSolution sol = f.model.solve_steady(f.powers(1.5));
  std::ostringstream os;
  write_layer_csv(os, sol, 0);
  std::istringstream in(os.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    std::size_t commas = 0;
    for (char c : line) commas += c == ',';
    EXPECT_EQ(commas, 7u);
  }
  EXPECT_EQ(rows, 8u);
}

TEST(ThermalMap, BlockSummaryNamesAllBlocks) {
  Fixture f;
  const ThermalSolution sol = f.model.solve_steady(f.powers(1.5));
  const std::string s = block_summary(sol, 0, f.stack.layer(0));
  EXPECT_NE(s.find("CORE1"), std::string::npos);
  EXPECT_NE(s.find("L2_12"), std::string::npos);
}

}  // namespace
}  // namespace aqua
