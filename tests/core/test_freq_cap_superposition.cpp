/// MaxFrequencyFinder::find computes caps by superposition: one steady
/// solve at the top VFS step, every lower step scaled by its power ratio.
/// These tests pin that against a bisection oracle that does a real solve
/// per probed step, and pin the precondition that makes it exact (the
/// power map is a scalar multiple of the top step's).
///
/// The tier-1 build checks a grid of configurations; the full sweep (every
/// Fig. 7/8 cell plus every freq_cap key the sweep service is loaded with)
/// is the same file compiled with AQUA_FREQ_CAP_FULL_SWEEP=1 into the slow
/// test_freq_cap_sweep suite.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/freq_cap.hpp"
#include "obs/metrics.hpp"
#include "power/chip_model.hpp"

#ifndef AQUA_FREQ_CAP_FULL_SWEEP
#define AQUA_FREQ_CAP_FULL_SWEEP 0
#endif

namespace aqua {
namespace {

/// Reference cap search for one (chip, stack height, cooling): bisects the
/// VFS ladder with one real steady solve per probed step. Solved steps are
/// memoized, so one oracle answers several thresholds.
class BisectionOracle {
 public:
  BisectionOracle(const ChipModel& chip, std::size_t chips,
                  const CoolingOption& cooling)
      : chip_(chip),
        model_(Stack3d(chip.floorplan(), chips, FlipPolicy::kNone),
               PackageConfig{}, cooling.boundary(PackageConfig{})) {}

  double temperature_of_step(std::size_t step) {
    const auto it = temps_.find(step);
    if (it != temps_.end()) return it->second;
    const Hertz f = chip_.ladder().step(step);
    std::vector<std::vector<double>> powers;
    for (std::size_t l = 0; l < model_.stack().layer_count(); ++l) {
      powers.push_back(chip_.block_powers(model_.stack().layer(l), f));
    }
    const double t = model_.solve_steady(powers).max_die_temperature_c();
    temps_.emplace(step, t);
    return t;
  }

  FrequencyCap find(double threshold_c) {
    FrequencyCap cap;
    const double t_lo = temperature_of_step(0);
    if (t_lo > threshold_c) {
      cap.max_temperature_c = t_lo;
      return cap;
    }
    std::size_t lo = 0;
    std::size_t hi = chip_.ladder().size() - 1;
    double t_best = t_lo;
    if (lo != hi) {
      const double t_hi = temperature_of_step(hi);
      if (t_hi <= threshold_c) {
        lo = hi;
        t_best = t_hi;
      } else {
        while (hi - lo > 1) {
          const std::size_t mid = lo + (hi - lo) / 2;
          const double t_mid = temperature_of_step(mid);
          if (t_mid <= threshold_c) {
            lo = mid;
            t_best = t_mid;
          } else {
            hi = mid;
          }
        }
      }
    }
    cap.feasible = true;
    cap.step_index = lo;
    cap.frequency = chip_.ladder().step(lo);
    cap.max_temperature_c = t_best;
    cap.chip_power = chip_.total_power(cap.frequency);
    cap.total_power =
        cap.chip_power * static_cast<double>(model_.stack().layer_count());
    return cap;
  }

 private:
  const ChipModel& chip_;
  StackThermalModel model_;
  std::map<std::size_t, double> temps_;
};

void expect_matches_oracle(const FrequencyCap& got, const FrequencyCap& want,
                           const std::string& where) {
  ASSERT_EQ(got.feasible, want.feasible) << where;
  EXPECT_NEAR(got.max_temperature_c, want.max_temperature_c, 1e-6) << where;
  if (!want.feasible) return;
  EXPECT_EQ(got.step_index, want.step_index) << where;
  EXPECT_EQ(got.frequency.value(), want.frequency.value()) << where;
  EXPECT_EQ(got.chip_power.value(), want.chip_power.value()) << where;
  EXPECT_EQ(got.total_power.value(), want.total_power.value()) << where;
}

/// Checks find() against the oracle for every stack height in `heights`,
/// every cooling option and every threshold, with one finder per
/// threshold.
void check_against_oracle(const ChipModel& chip,
                          const std::vector<std::size_t>& heights,
                          const std::vector<double>& thresholds) {
  std::vector<MaxFrequencyFinder> finders;
  for (const double threshold_c : thresholds) {
    finders.emplace_back(chip, PackageConfig{}, threshold_c);
  }
  for (const std::size_t chips : heights) {
    for (const CoolingOption& cooling : all_cooling_options()) {
      BisectionOracle oracle(chip, chips, cooling);
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        const std::string where = chip.name() + " chips=" +
                                  std::to_string(chips) + " " +
                                  cooling.name() + " threshold=" +
                                  std::to_string(thresholds[t]);
        expect_matches_oracle(finders[t].find(chips, cooling),
                              oracle.find(thresholds[t]), where);
      }
    }
  }
}

#if !AQUA_FREQ_CAP_FULL_SWEEP

TEST(FreqCapSuperposition, LowPowerMatchesBisectionOracle) {
  check_against_oracle(make_low_power_cmp(), {1, 4, 7, 10}, {75, 80, 85});
}

TEST(FreqCapSuperposition, HighFrequencyMatchesBisectionOracle) {
  check_against_oracle(make_high_frequency_cmp(), {1, 4, 7, 10},
                       {75, 80, 85});
}

TEST(FreqCapSuperposition, OneSteadySolvePerFind) {
  MaxFrequencyFinder finder(make_low_power_cmp(), PackageConfig{});
  const obs::WorkTally start = obs::thread_work();
  std::size_t finds = 0;
  for (const std::size_t chips : {2u, 9u}) {
    for (const CoolingOption& cooling : all_cooling_options()) {
      (void)finder.find(chips, cooling);
      ++finds;
      EXPECT_EQ((obs::thread_work() - start).solves, finds) << cooling.name();
    }
  }
}

// The finder's precondition: the power map at any VFS step is the top
// step's map scaled by total_power(f)/total_power(f_max). A chip model
// whose power depends on temperature, or whose per-block shares move with
// frequency, breaks superposition and must fail here.
TEST(FreqCapSuperposition, BlockPowersScaleWithTotalPower) {
  for (const ChipModel& chip :
       {make_low_power_cmp(), make_high_frequency_cmp(), make_xeon_e5_2667v4(),
        make_xeon_phi_7290()}) {
    const VfsLadder& ladder = chip.ladder();
    const Hertz f_max = ladder.step(ladder.size() - 1);
    const double p_max = chip.total_power(f_max).value();
    for (const FlipPolicy flip : {FlipPolicy::kNone, FlipPolicy::kFlipEven}) {
      // Two layers: under kFlipEven one of them is rotated.
      const Stack3d stack(chip.floorplan(), 2, flip);
      for (std::size_t l = 0; l < stack.layer_count(); ++l) {
        const Floorplan& layer = stack.layer(l);
        const std::vector<double> top = chip.block_powers(layer, f_max);
        for (std::size_t s = 0; s < ladder.size(); ++s) {
          const Hertz f = ladder.step(s);
          const double r = chip.total_power(f).value() / p_max;
          const std::vector<double> got = chip.block_powers(layer, f);
          ASSERT_EQ(got.size(), top.size());
          for (std::size_t b = 0; b < got.size(); ++b) {
            EXPECT_NEAR(got[b], r * top[b], 1e-12 * std::abs(got[b]))
                << chip.name() << " layer " << l << " step " << s
                << " block " << b;
          }
        }
      }
    }
  }
}

#else

// Every Fig. 7 (low-power, 1-14 chips) and Fig. 8 (high-frequency, 1-15
// chips) cell at 80 C, plus the sweep service's freq_cap key population:
// both chips x 1-12 chips x 5 coolants x 75/80/85 C.
TEST(FreqCapSuperpositionSweep, Fig07CellsAndServiceKeys) {
  const ChipModel chip = make_low_power_cmp();
  check_against_oracle(chip, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
                       {75, 80, 85});
  check_against_oracle(chip, {13, 14}, {80});
}

TEST(FreqCapSuperpositionSweep, Fig08CellsAndServiceKeys) {
  const ChipModel chip = make_high_frequency_cmp();
  check_against_oracle(chip, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
                       {75, 80, 85});
  check_against_oracle(chip, {13, 14, 15}, {80});
}

#endif

}  // namespace
}  // namespace aqua
