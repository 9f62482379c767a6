/// Every frequency cap is a pure function of its key: a finder that has
/// already solved other stack heights and coolings returns bit-identical
/// `find` and `temperature_at` results to a freshly built one. The content
/// cache shares these cells across figures and the sweep service, so a
/// value that depended on what the computing worker solved before would
/// make a cached table depend on which figure filled the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/freq_cap.hpp"
#include "power/chip_model.hpp"

namespace aqua {
namespace {

GridOptions coarse_grid() {
  GridOptions g;
  g.nx = 16;
  g.ny = 16;
  return g;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

const char* flip_name(FlipPolicy flip) {
  return flip == FlipPolicy::kNone ? "none" : "flip_even";
}

TEST(FreqCapPurity, HistoryNeverChangesACap) {
  const std::vector<ChipModel> chips = {
      make_low_power_cmp(), make_high_frequency_cmp(), make_xeon_e5_2667v4(),
      make_xeon_phi_7290()};
  const std::vector<CoolingOption> coolings = all_cooling_options();
  Xoshiro256 rng(16);

  for (const ChipModel& chip : chips) {
    const Hertz probe = chip.ladder().step(chip.ladder().size() / 2);
    for (FlipPolicy flip : {FlipPolicy::kNone, FlipPolicy::kFlipEven}) {
      // Every (height, cooling) pair once, in a shuffled order, so each
      // query lands on a model whose last solve was some other boundary
      // (or some other height's model entirely).
      std::vector<std::pair<std::size_t, std::size_t>> history;
      for (std::size_t height = 1; height <= 3; ++height) {
        for (std::size_t k = 0; k < coolings.size(); ++k) {
          history.emplace_back(height, k);
        }
      }
      std::shuffle(history.begin(), history.end(), rng);

      MaxFrequencyFinder warm(chip, PackageConfig{}, 80.0, coarse_grid());
      for (const auto& [height, k] : history) {
        const FrequencyCap cap = warm.find(height, coolings[k], flip);
        const double t = warm.temperature_at(height, coolings[k], probe, flip);

        MaxFrequencyFinder fresh(chip, PackageConfig{}, 80.0, coarse_grid());
        const FrequencyCap ref = fresh.find(height, coolings[k], flip);
        MaxFrequencyFinder fresh_t(chip, PackageConfig{}, 80.0,
                                   coarse_grid());
        const double t_ref =
            fresh_t.temperature_at(height, coolings[k], probe, flip);

        SCOPED_TRACE(chip.name() + " chips=" + std::to_string(height) +
                     " cooling=" + coolings[k].name() +
                     " flip=" + flip_name(flip));
        EXPECT_EQ(cap.feasible, ref.feasible);
        EXPECT_EQ(cap.step_index, ref.step_index);
        EXPECT_EQ(bits(cap.max_temperature_c), bits(ref.max_temperature_c));
        EXPECT_EQ(bits(t), bits(t_ref));
      }
    }
  }
}

}  // namespace
}  // namespace aqua
