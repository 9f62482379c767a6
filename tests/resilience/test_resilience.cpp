#include <gtest/gtest.h>

#include "resilience/availability.hpp"

namespace aqua {
namespace {

// ----------------------------------------------------------- availability --

AvailabilityOptions cheap_options() {
  AvailabilityOptions options;
  options.boards = 40;
  options.horizon_years = 4.0;
  options.epochs_per_year = 2;
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

}  // namespace
}  // namespace aqua
