#include <gtest/gtest.h>

#include <set>

#include "resilience/availability.hpp"
#include "resilience/schedule.hpp"

namespace aqua {
namespace {

// --------------------------------------------------------------- schedule --

TEST(FaultSchedule, ZeroOptionsYieldEmptyPlan) {
  const PerfFaultPlan plan = sample_fault_plan(CmpConfig{}, {}, 1234);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultSchedule, SameSeedSamePlan) {
  CmpConfig config;
  config.chips = 2;
  FaultScheduleOptions options;
  options.core_dead_prob = 0.3;
  options.core_midrun_prob = 0.4;
  options.link_fail_prob = 0.1;
  options.routers_follow_cores = true;
  const PerfFaultPlan a = sample_fault_plan(config, options, 77);
  const PerfFaultPlan b = sample_fault_plan(config, options, 77);
  ASSERT_EQ(a.core_faults.size(), b.core_faults.size());
  for (std::size_t i = 0; i < a.core_faults.size(); ++i) {
    EXPECT_EQ(a.core_faults[i].core, b.core_faults[i].core);
    EXPECT_EQ(a.core_faults[i].at_cycle, b.core_faults[i].at_cycle);
  }
  ASSERT_EQ(a.link_faults.size(), b.link_faults.size());
  for (std::size_t i = 0; i < a.link_faults.size(); ++i) {
    EXPECT_EQ(a.link_faults[i].a, b.link_faults[i].a);
    EXPECT_EQ(a.link_faults[i].b, b.link_faults[i].b);
  }
  ASSERT_EQ(a.router_faults.size(), b.router_faults.size());
  for (std::size_t i = 0; i < a.router_faults.size(); ++i) {
    EXPECT_EQ(a.router_faults[i].tile, b.router_faults[i].tile);
  }
}

TEST(FaultSchedule, DifferentSeedsDiffer) {
  CmpConfig config;
  config.chips = 4;
  FaultScheduleOptions options;
  options.core_dead_prob = 0.5;
  // With 16 cores at p=0.5, two seeds agreeing on every draw is
  // astronomically unlikely; check a handful of seed pairs.
  bool any_difference = false;
  const PerfFaultPlan base = sample_fault_plan(config, options, 0);
  for (std::uint64_t seed = 1; seed <= 4 && !any_difference; ++seed) {
    const PerfFaultPlan other = sample_fault_plan(config, options, seed);
    if (other.core_faults.size() != base.core_faults.size()) {
      any_difference = true;
      break;
    }
    for (std::size_t i = 0; i < base.core_faults.size(); ++i) {
      if (other.core_faults[i].core != base.core_faults[i].core) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultSchedule, AtLeastOneCoreSurvives) {
  CmpConfig config;  // 4 cores
  FaultScheduleOptions options;
  options.core_dead_prob = 1.0;  // would kill everything without the guard
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const PerfFaultPlan plan = sample_fault_plan(config, options, seed);
    std::set<std::size_t> dead_at_start;
    for (const CoreFault& f : plan.core_faults) {
      if (f.at_cycle == 0) dead_at_start.insert(f.core);
    }
    EXPECT_LT(dead_at_start.size(), config.cores_per_chip * config.chips)
        << "seed " << seed;
  }
}

TEST(FaultSchedule, MidrunKillsLandInWindow) {
  CmpConfig config;
  config.chips = 2;
  FaultScheduleOptions options;
  options.core_midrun_prob = 1.0;
  options.midrun_window = 5000;
  const PerfFaultPlan plan = sample_fault_plan(config, options, 3);
  ASSERT_FALSE(plan.core_faults.empty());
  for (const CoreFault& f : plan.core_faults) {
    EXPECT_GE(f.at_cycle, 1u);
    EXPECT_LE(f.at_cycle, options.midrun_window);
  }
}

TEST(FaultSchedule, LinkFailuresRespectCap) {
  CmpConfig config;
  config.chips = 2;
  FaultScheduleOptions options;
  options.link_fail_prob = 1.0;
  options.max_link_failures = 2;
  const PerfFaultPlan plan = sample_fault_plan(config, options, 5);
  EXPECT_LE(plan.link_faults.size(), options.max_link_failures);
  EXPECT_FALSE(plan.link_faults.empty());
}

TEST(FaultSchedule, RoutersOnlyFollowDeadCores) {
  CmpConfig config;
  FaultScheduleOptions options;
  options.core_dead_prob = 0.5;
  options.routers_follow_cores = true;
  const PerfFaultPlan plan = sample_fault_plan(config, options, 21);
  std::set<std::size_t> dead_at_start;
  for (const CoreFault& f : plan.core_faults) {
    if (f.at_cycle == 0) dead_at_start.insert(f.core);
  }
  // Every killed router must sit on a dead core's tile (cores occupy the
  // bottom mesh row of their chip, tile == local index in that row).
  EXPECT_EQ(plan.router_faults.size(), dead_at_start.size());
}

TEST(FaultSchedule, ImmersionDeathProbMonotoneInTime) {
  const FilmSpec film{};
  const EnvironmentInfo env = environment_info(WaterEnvironment::kTapWater);
  EXPECT_DOUBLE_EQ(immersion_core_death_prob(film, env, 0.0), 0.0);
  double prev = 0.0;
  for (double hours : {1000.0, 10000.0, 50000.0, 200000.0}) {
    const double p = immersion_core_death_prob(film, env, hours);
    EXPECT_GT(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(FaultSchedule, HarsherEnvironmentDiesFaster) {
  const FilmSpec film{};
  const EnvironmentInfo tap = environment_info(WaterEnvironment::kTapWater);
  const EnvironmentInfo sea = environment_info(WaterEnvironment::kSeaWater);
  const double hours = 20000.0;
  EXPECT_GT(immersion_core_death_prob(film, sea, hours),
            immersion_core_death_prob(film, tap, hours));
}

// ----------------------------------------------------------- availability --

AvailabilityOptions cheap_options() {
  AvailabilityOptions options;
  options.boards = 40;
  options.horizon_years = 4.0;
  options.epochs_per_year = 2;
  options.calibrate_with_des = false;  // skip the two CmpSystem runs
  return options;
}

TEST(Availability, DeterministicInSeed) {
  const AvailabilityResult a = availability_experiment(cheap_options());
  const AvailabilityResult b = availability_experiment(cheap_options());
  ASSERT_EQ(a.curves.size(), b.curves.size());
  for (std::size_t c = 0; c < a.curves.size(); ++c) {
    EXPECT_EQ(a.curves[c].variant, b.curves[c].variant);
    EXPECT_EQ(a.curves[c].boards_offline, b.curves[c].boards_offline);
    EXPECT_EQ(a.curves[c].component_failures, b.curves[c].component_failures);
    ASSERT_EQ(a.curves[c].epochs.size(), b.curves[c].epochs.size());
    for (std::size_t e = 0; e < a.curves[c].epochs.size(); ++e) {
      EXPECT_DOUBLE_EQ(a.curves[c].epochs[e].effective_throughput,
                       b.curves[c].epochs[e].effective_throughput);
    }
  }
}

TEST(Availability, StartsHealthyAndOnlyDecays) {
  const AvailabilityResult r = availability_experiment(cheap_options());
  ASSERT_EQ(r.curves.size(), 3u);
  for (const AvailabilityCurve& curve : r.curves) {
    ASSERT_FALSE(curve.epochs.empty());
    EXPECT_DOUBLE_EQ(curve.epochs.front().years, 0.0);
    EXPECT_DOUBLE_EQ(curve.epochs.front().alive_fraction, 1.0);
    double prev = 2.0;
    for (const AvailabilityEpoch& e : curve.epochs) {
      EXPECT_LE(e.effective_throughput, prev + 1e-12) << curve.variant;
      EXPECT_GE(e.effective_throughput, 0.0);
      prev = e.effective_throughput;
    }
  }
}

TEST(Availability, MaskedConnectorsOutlastFullImmersion) {
  AvailabilityOptions options = cheap_options();
  options.boards = 120;  // enough boards to make the ordering stable
  const AvailabilityResult r = availability_experiment(options);
  const AvailabilityCurve* wet = nullptr;
  const AvailabilityCurve* masked = nullptr;
  for (const AvailabilityCurve& c : r.curves) {
    if (c.variant == "tap_water") wet = &c;
    if (c.variant == "tap_water_masked") masked = &c;
  }
  ASSERT_NE(wet, nullptr);
  ASSERT_NE(masked, nullptr);
  // The paper's recommendation: keeping connectors dry preserves cluster
  // goodput over the horizon.
  EXPECT_GE(masked->epochs.back().effective_throughput,
            wet->epochs.back().effective_throughput);
  EXPECT_LE(masked->boards_offline, wet->boards_offline);
}

TEST(Availability, ImmersedPueBeatsAir) {
  const AvailabilityResult r = availability_experiment(cheap_options());
  const AvailabilityCurve* air = nullptr;
  const AvailabilityCurve* wet = nullptr;
  for (const AvailabilityCurve& c : r.curves) {
    if (c.variant == "air") air = &c;
    if (c.variant == "tap_water") wet = &c;
  }
  ASSERT_NE(air, nullptr);
  ASSERT_NE(wet, nullptr);
  EXPECT_LT(wet->pue, air->pue);
  // Per-watt normalisation: a new air cluster is the 1/PUE_air reference.
  EXPECT_NEAR(air->epochs.front().throughput_per_watt, 1.0, 1e-12);
  EXPECT_GT(wet->epochs.front().throughput_per_watt, 1.0);
}

TEST(Availability, FallbackRatioUsedWhenCalibrationOff) {
  AvailabilityOptions options = cheap_options();
  options.fallback_link_ratio = 0.75;
  const AvailabilityResult r = availability_experiment(options);
  EXPECT_FALSE(r.des_calibrated);
  EXPECT_DOUBLE_EQ(r.link_fault_throughput_ratio, 0.75);
}

}  // namespace
}  // namespace aqua
