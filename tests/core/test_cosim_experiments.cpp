#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cosim.hpp"
#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"

namespace aqua {
namespace {

GridOptions coarse_grid() {
  GridOptions g;
  g.nx = 16;
  g.ny = 16;
  return g;
}

// ---------------------------------------------------------------- cosim ----

TEST(CoSim, FeasibleConfigExecutesWorkload) {
  CoSimulator sim(make_low_power_cmp(), PackageConfig{}, 80.0, CmpConfig{},
                  coarse_grid());
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 4000;
  const CoSimResult r =
      sim.run(2, CoolingOption(CoolingKind::kWaterImmersion), p);
  ASSERT_TRUE(r.cap.feasible);
  ASSERT_TRUE(r.exec.has_value());
  EXPECT_GT(r.exec->seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.cap.frequency.gigahertz(), 2.0);
}

TEST(CoSim, InfeasibleConfigSkipsExecution) {
  CoSimulator sim(make_low_power_cmp(), PackageConfig{}, 80.0, CmpConfig{},
                  coarse_grid());
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 4000;
  const CoSimResult r = sim.run(10, CoolingOption(CoolingKind::kAir), p);
  EXPECT_FALSE(r.cap.feasible);
  EXPECT_FALSE(r.exec.has_value());
}

TEST(CoSim, BetterCoolantNeverSlower) {
  CoSimulator sim(make_low_power_cmp(), PackageConfig{}, 80.0, CmpConfig{},
                  coarse_grid());
  WorkloadProfile p = npb_profile("ft");
  p.instructions_per_thread = 4000;
  const CoSimResult pipe =
      sim.run(4, CoolingOption(CoolingKind::kWaterPipe), p);
  const CoSimResult water =
      sim.run(4, CoolingOption(CoolingKind::kWaterImmersion), p);
  ASSERT_TRUE(pipe.exec.has_value());
  ASSERT_TRUE(water.exec.has_value());
  EXPECT_LE(water.exec->seconds, pipe.exec->seconds);
}

// ---------------------------------------------------- frequency vs chips ----

TEST(Experiments, FrequencyVsChipsShapes) {
  const FreqVsChipsData data =
      frequency_vs_chips(make_low_power_cmp(), 6, 80.0, coarse_grid());
  ASSERT_EQ(data.series.size(), 5u);
  // Every feasible frequency is a ladder step within bounds, and each
  // series is non-increasing in chips.
  for (const FreqVsChipsSeries& s : data.series) {
    double prev = 1e9;
    for (const auto& g : s.ghz) {
      if (!g.has_value()) continue;
      EXPECT_GE(*g, 1.0);
      EXPECT_LE(*g, 2.0);
      EXPECT_LE(*g, prev);
      prev = *g;
    }
  }
  // Ordering at 4 chips: water at least as fast as oil, oil >= pipe >= air.
  const auto at4 = [&](CoolingKind k) { return data.of(k).ghz[3]; };
  ASSERT_TRUE(at4(CoolingKind::kWaterImmersion).has_value());
  EXPECT_GE(*at4(CoolingKind::kWaterImmersion), *at4(CoolingKind::kMineralOil));
  EXPECT_GE(*at4(CoolingKind::kMineralOil), *at4(CoolingKind::kWaterPipe));
  EXPECT_GE(*at4(CoolingKind::kWaterPipe), *at4(CoolingKind::kAir));
}

TEST(Experiments, InfeasibleSeriesHasNoHoles) {
  // Once a cooling option dies at N chips it stays dead for N+1 (frequency
  // floors are fixed): the feasible prefix is contiguous.
  const FreqVsChipsData data =
      frequency_vs_chips(make_low_power_cmp(), 8, 80.0, coarse_grid());
  for (const FreqVsChipsSeries& s : data.series) {
    bool dead = false;
    for (const auto& g : s.ghz) {
      if (!g.has_value()) dead = true;
      if (dead) {
        EXPECT_FALSE(g.has_value());
      }
    }
  }
}

TEST(Experiments, MaxFeasibleChipsHelper) {
  const FreqVsChipsData data =
      frequency_vs_chips(make_low_power_cmp(), 8, 80.0, coarse_grid());
  EXPECT_GE(data.max_feasible_chips(CoolingKind::kWaterImmersion),
            data.max_feasible_chips(CoolingKind::kWaterPipe));
  EXPECT_GE(data.max_feasible_chips(CoolingKind::kWaterPipe),
            data.max_feasible_chips(CoolingKind::kAir));
}

// The Fig. 7 sweep on a coarse grid at `workers` engine workers, cold.
FreqVsChipsData fig07_coarse(std::size_t workers) {
  sweep::SweepCache::instance().configure("");
  sweep::TaskEngine::shared().configure(workers);
  FreqVsChipsData data =
      frequency_vs_chips(make_low_power_cmp(), 6, 80.0, coarse_grid());
  sweep::TaskEngine::shared().configure(0);
  return data;
}

std::string render_series(const FreqVsChipsData& data) {
  std::ostringstream os;
  for (const FreqVsChipsSeries& s : data.series) {
    os << to_string(s.cooling);
    for (const std::optional<double>& ghz : s.ghz) {
      os << " " << (ghz ? sweep::format_double_exact(*ghz) : "-");
    }
    os << "\n";
  }
  return os.str();
}

TEST(Experiments, FrequencyVsChipsKeepsNoWorkerState) {
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  const FreqVsChipsData data = fig07_coarse(4);
  const sweep::TaskEngine::Stats engine =
      sweep::TaskEngine::shared().last_run_stats();
  // Every cell is an unpinned task that builds its own model: nothing is
  // placed, stolen or looked up in worker-local state.
  EXPECT_EQ(engine.executed, 6u * data.series.size());
  EXPECT_EQ(engine.shared_claimed, engine.executed);
  EXPECT_EQ(engine.stolen, 0u);
  EXPECT_EQ(engine.local_hits, 0u);
  EXPECT_EQ(engine.local_misses, 0u);
  EXPECT_TRUE(data.failed_cells.empty());
  EXPECT_EQ(render_series(data), render_series(fig07_coarse(1)))
      << "the 4-worker table diverged from the 1-worker one";
}

// ---------------------------------------------------------------- sweeps ----

TEST(Experiments, HtcSweepMonotoneDecreasing) {
  const std::vector<double> htcs{14.0, 100.0, 800.0, 3200.0};
  const auto points =
      htc_sweep(make_high_frequency_cmp(), 2, htcs, coarse_grid());
  ASSERT_EQ(points.size(), htcs.size());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].temperature_c, points[i - 1].temperature_c);
  }
  // Fig. 14's observation: going beyond water's coefficient still helps.
  EXPECT_GT(points[2].temperature_c - points[3].temperature_c, 0.1);
}

TEST(Experiments, HtcCellNamesKeepEveryDigit) {
  // Two coefficients that agree to six decimals are two cells: poisoning
  // one must fail only that one.
  const std::vector<double> htcs{100.0000001, 100.0000004};
  const std::string cell = "chip=high_frequency_cmp;chips=2;htc=" +
                           sweep::format_double_exact(htcs[0]);
  sweep::SweepCache::instance().configure("");
  ::setenv(sweep::SweepRunner::kPoisonEnv, ("htc_sweep:" + cell).c_str(), 1);
  const auto points =
      htc_sweep(make_high_frequency_cmp(), 2, htcs, coarse_grid());
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(points[0].failed);
  EXPECT_FALSE(points[1].failed);
  EXPECT_GT(points[1].temperature_c, 25.0);
}

TEST(Experiments, RotationSweepFlipHelps) {
  const auto points = rotation_sweep(make_high_frequency_cmp(), 4,
                                     CoolingOption(CoolingKind::kAir),
                                     coarse_grid());
  ASSERT_EQ(points.size(), 13u);  // the high-frequency ladder
  for (const RotationPoint& p : points) {
    EXPECT_LE(p.temperature_flip_c, p.temperature_no_flip_c + 1e-9);
  }
  // At the top step the gap is significant (paper: ~13 C at 3.6 GHz for
  // water; air shows a clear gap too).
  EXPECT_GT(points.back().temperature_no_flip_c -
                points.back().temperature_flip_c,
            3.0);
  // Temperatures rise with frequency.
  EXPECT_GT(points.back().temperature_no_flip_c,
            points.front().temperature_no_flip_c);
}

// ------------------------------------------------------------------ NPB ----

TEST(Experiments, NpbExperimentSmall) {
  // Tiny instruction scale keeps this integration test fast; shape checks
  // only.
  const NpbData data =
      npb_experiment(make_low_power_cmp(), 4, CoolingKind::kWaterPipe, 80.0,
                     /*instruction_scale=*/0.02, coarse_grid());
  ASSERT_EQ(data.rows.size(), 10u);  // 9 programs + avg
  ASSERT_EQ(data.coolings.size(), 4u);
  EXPECT_EQ(data.threads, 16u);

  // Baseline column is exactly 1.
  for (const NpbRow& row : data.rows) {
    if (row.benchmark == "avg") continue;
    ASSERT_TRUE(row.relative[0].has_value()) << row.benchmark;
    EXPECT_DOUBLE_EQ(*row.relative[0], 1.0);
    // Water no slower than the water-pipe baseline.
    ASSERT_TRUE(row.relative[3].has_value());
    EXPECT_LE(*row.relative[3], 1.0 + 1e-9);
  }
  const auto mean = data.mean_relative(CoolingKind::kWaterImmersion);
  ASSERT_TRUE(mean.has_value());
  EXPECT_LT(*mean, 1.0);
  EXPECT_GT(*mean, 0.5);
}

// The Fig. 10 configuration (6 low-power chips) at a tiny instruction
// scale on `workers` engine workers, cold (no content cache).
NpbData fig10_tiny(std::size_t workers) {
  sweep::SweepCache::instance().configure("");
  sweep::TaskEngine::shared().configure(workers);
  NpbData data = npb_experiment(make_low_power_cmp(), 6,
                                CoolingKind::kWaterPipe, 80.0,
                                /*instruction_scale=*/0.005, coarse_grid());
  sweep::TaskEngine::shared().configure(0);
  return data;
}

std::string render_table(const NpbData& data) {
  const auto exact = [](const std::optional<double>& d) {
    return d.has_value() ? sweep::format_double_exact(*d) : std::string("-");
  };
  std::ostringstream os;
  for (const FrequencyCap& cap : data.caps) {
    os << "cap " << sweep::format_double_exact(cap.frequency.value()) << "\n";
  }
  for (const NpbRow& row : data.rows) {
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      os << row.benchmark << " " << to_string(data.coolings[k])
         << " seconds=" << exact(row.seconds[k])
         << " rel=" << exact(row.relative[k]) << "\n";
    }
  }
  return os.str();
}

TEST(Experiments, NpbDispatchesOneTaskPerUniqueDesKey) {
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  const NpbData data = fig10_tiny(4);
  const sweep::TaskEngine::Stats engine = sweep::TaskEngine::shared()
                                              .last_run_stats();
  const std::size_t programs = data.rows.size() - 1;  // minus "avg"
  std::size_t feasible = 0;
  std::set<double> cap_hz;
  for (const FrequencyCap& cap : data.caps) {
    if (!cap.feasible) continue;
    ++feasible;
    cap_hz.insert(cap.frequency.value());
  }
  const std::size_t slots = programs * feasible;
  const std::size_t groups = programs * cap_hz.size();
  ASSERT_LT(groups, slots) << "the config must have equal-cap slots";
  EXPECT_EQ(engine.executed, groups);
  EXPECT_EQ(data.deduped_cells, slots - groups);
  EXPECT_TRUE(data.failed_cells.empty());
  // No duplicate waits for its leader: memo hits are lookups on published
  // entries (a parked waiter makes this about 30%).
  EXPECT_LT(data.cost.sum.memo_us, 0.01 * data.cost.sum.compute_us);

  EXPECT_EQ(render_table(data), render_table(fig10_tiny(1)))
      << "the 4-worker table diverged from the 1-worker one";
}

TEST(Experiments, NpbPoisonedDuplicateLeavesItsSiblingIntact) {
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  const NpbData clean = fig10_tiny(4);
  const std::size_t oil = 1;
  const std::size_t fluorinert = 2;
  ASSERT_EQ(clean.coolings[oil], CoolingKind::kMineralOil);
  ASSERT_EQ(clean.coolings[fluorinert], CoolingKind::kFluorinert);
  ASSERT_EQ(clean.caps[oil].frequency.value(),
            clean.caps[fluorinert].frequency.value())
      << "the two slots must share one DES key";
  const std::size_t program = 1;  // cg
  const std::string prefix = "chip=" + clean.chip_name + ";chips=6;bench=" +
                             clean.rows[program].benchmark + ";cooling=";

  for (const auto& [poisoned, sibling] :
       {std::pair{oil, fluorinert}, std::pair{fluorinert, oil}}) {
    const std::string cell = prefix + to_string(clean.coolings[poisoned]);
    for (const std::size_t workers : {1u, 4u}) {
      ::setenv(sweep::SweepRunner::kPoisonEnv, ("npb:" + cell).c_str(), 1);
      const NpbData data = fig10_tiny(workers);
      ::unsetenv(sweep::SweepRunner::kPoisonEnv);
      SCOPED_TRACE(cell + " at " + std::to_string(workers) + " workers");

      EXPECT_EQ(data.failed_cells, std::vector<std::string>{cell});
      EXPECT_FALSE(data.rows[program].seconds[poisoned].has_value());
      ASSERT_TRUE(data.rows[program].seconds[sibling].has_value());
      EXPECT_EQ(*data.rows[program].seconds[sibling],
                *clean.rows[program].seconds[sibling]);
      for (std::size_t b = 0; b < clean.rows.size(); ++b) {
        for (std::size_t k = 0; k < clean.coolings.size(); ++k) {
          // The poisoned slot is a hole, and so is its column's average.
          const bool hole = k == poisoned &&
                            (b == program || clean.rows[b].benchmark == "avg");
          if (hole) continue;
          EXPECT_EQ(data.rows[b].seconds[k], clean.rows[b].seconds[k])
              << clean.rows[b].benchmark << " " << k;
          EXPECT_EQ(data.rows[b].relative[k], clean.rows[b].relative[k])
              << clean.rows[b].benchmark << " " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace aqua
