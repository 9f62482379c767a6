/// Request → cell translation: every digit of a numeric param reaches the
/// cell's compute and its name.

#include "service/evaluator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace aqua::service {
namespace {

// Step 7's peak die temperature for the low-power CMP, 6 chips, water, on
// the default 32x32 grid. Thresholds 3e-8 either side of it straddle the
// step, yet agree to six decimals.
constexpr const char* kAbove = "76.961176586";
constexpr const char* kBelow = "76.961176526";

std::map<std::string, double> cap_at(const char* threshold_c) {
  return make_cell_job("freq_cap", {{"chip", "low_power_cmp"},
                                    {"chips", "6"},
                                    {"cooling", "water"},
                                    {"threshold_c", threshold_c}})
      .compute();
}

// Both computes run on this thread, so the second would reuse the first's
// finder if the finder map keyed the threshold with fewer digits than the
// cell key does — and return step 7 under a key whose answer is step 6.
TEST(Evaluator, FinderReuseKeepsEveryThresholdDigit) {
  const std::map<std::string, double> above = cap_at(kAbove);
  ASSERT_EQ(above.at("step"), 7.0);
  ASSERT_LT(above.at("max_temperature_c"), std::stod(kAbove));
  ASSERT_GT(above.at("max_temperature_c"), std::stod(kBelow));

  const std::map<std::string, double> below = cap_at(kBelow);
  EXPECT_EQ(below.at("step"), 6.0);
  EXPECT_LT(below.at("max_temperature_c"), std::stod(kBelow));
}

TEST(Evaluator, HtcCellNamesKeepEveryDigit) {
  const auto cell = [](const char* htc) {
    return make_cell_job("htc", {{"chip", "low_power_cmp"},
                                 {"chips", "2"},
                                 {"htc", htc}})
        .cell;
  };
  EXPECT_EQ(cell("100.0000001"), "chip=low_power_cmp;chips=2;htc=100.0000001");
  EXPECT_NE(cell("100.0000001"), cell("100.0000004"));
}

}  // namespace
}  // namespace aqua::service
