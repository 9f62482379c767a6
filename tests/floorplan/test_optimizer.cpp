#include "floorplan/optimizer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/cooling.hpp"
#include "floorplan/builders.hpp"
#include "power/chip_model.hpp"
#include "thermal/grid_model.hpp"

namespace aqua {
namespace {

TEST(Orientation, CodesMapToTransforms) {
  const Floorplan fp = make_baseline_cmp_floorplan();
  // Code 0 is the identity.
  const Floorplan id = oriented(fp, 0);
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    EXPECT_DOUBLE_EQ(id.blocks()[i].rect.x, fp.blocks()[i].rect.x);
  }
  // Code 2 is a 180-degree rotation: cores move to the top.
  const Floorplan flip = oriented(fp, 2);
  for (const Block& b : flip.blocks()) {
    if (b.kind == UnitKind::kCore) {
      EXPECT_GT(b.rect.y, fp.height() * 0.7);
    }
  }
  // Code 4 is mirror-x only: y unchanged.
  const Floorplan mirror = oriented(fp, 4);
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    EXPECT_DOUBLE_EQ(mirror.blocks()[i].rect.y, fp.blocks()[i].rect.y);
  }
  EXPECT_THROW(oriented(fp, 8), Error);
}

TEST(Orientation, QuarterTurnsLegalOnlyOnSquareDies) {
  const Floorplan square = make_baseline_cmp_floorplan();
  const Floorplan rect = make_xeon_e5_floorplan();
  for (OrientationCode c = 0; c < 8; ++c) {
    EXPECT_TRUE(orientation_legal(square, c));
    const bool quarter = (c & 1) != 0;
    EXPECT_EQ(orientation_legal(rect, c), !quarter);
  }
}

/// Cheap analytic objective for fast optimizer tests: penalize vertical
/// core-column overlap between adjacent layers (the physical mechanism the
/// thermal solver resolves, in closed form).
double overlap_objective(const std::vector<Floorplan>& layers) {
  double cost = 0.0;
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    for (const Block& a : layers[l].blocks()) {
      if (a.kind != UnitKind::kCore) continue;
      for (const Block& b : layers[l + 1].blocks()) {
        if (b.kind != UnitKind::kCore) continue;
        cost += a.rect.overlap_area(b.rect);
      }
    }
  }
  return cost * 1e6;  // mm^2 of stacked core area
}

TEST(Optimizer, FindsNonOverlappingLayout) {
  const Floorplan die = make_baseline_cmp_floorplan();
  LayoutSearchOptions opts;
  opts.iterations = 120;
  opts.seed = 5;
  const LayoutSearchResult r =
      optimize_layout(die, 4, overlap_objective, opts);
  // The flip layout fully de-stacks the bottom-row cores: optimal cost 0.
  EXPECT_NEAR(r.peak_c, 0.0, 1e-9);
  EXPECT_GT(r.baseline_peak_c, 0.0);
  EXPECT_NEAR(r.flip_even_peak_c, 0.0, 1e-9);
  EXPECT_EQ(r.orientations.size(), 4u);
}

TEST(Optimizer, NeverWorseThanBaselineOrFlip) {
  const Floorplan die = make_baseline_cmp_floorplan();
  LayoutSearchOptions opts;
  opts.iterations = 60;
  opts.seed = 9;
  const LayoutSearchResult r =
      optimize_layout(die, 3, overlap_objective, opts);
  EXPECT_LE(r.peak_c, r.baseline_peak_c + 1e-12);
  EXPECT_LE(r.peak_c, r.flip_even_peak_c + 1e-12);
  // History is the best-so-far trace: non-increasing.
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i], r.history[i - 1] + 1e-12);
  }
}

TEST(Optimizer, RespectsOrientationRestrictions) {
  const Floorplan die = make_xeon_e5_floorplan();  // rectangular
  LayoutSearchOptions opts;
  opts.iterations = 40;
  opts.seed = 3;
  const LayoutSearchResult r =
      optimize_layout(die, 3, overlap_objective, opts);
  for (OrientationCode c : r.orientations) {
    EXPECT_TRUE(orientation_legal(die, c));
  }
}

TEST(Optimizer, DeterministicPerSeed) {
  const Floorplan die = make_baseline_cmp_floorplan();
  LayoutSearchOptions opts;
  opts.iterations = 50;
  opts.seed = 77;
  const LayoutSearchResult a = optimize_layout(die, 4, overlap_objective, opts);
  const LayoutSearchResult b = optimize_layout(die, 4, overlap_objective, opts);
  EXPECT_EQ(a.orientations, b.orientations);
  EXPECT_DOUBLE_EQ(a.peak_c, b.peak_c);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Codes 2 and 6 (a half turn, without and with the mirror) lift the core
// row equally high, and every other code leaves a core lower: the objective
// below ties them exactly. Whichever the walk meets first, the search must report
// the smaller code.
TEST(Optimizer, ExactTieKeepsTheSmallerOrientations) {
  const Floorplan die = make_baseline_cmp_floorplan();
  const LayoutObjective lowest_core =
      [](const std::vector<Floorplan>& layers) {
        double bottom = layers[0].height();
        for (const Block& b : layers[0].blocks()) {
          if (b.kind == UnitKind::kCore) bottom = std::min(bottom, b.rect.y);
        }
        return -bottom * 1e3;  // mm: higher cores cost less
      };
  const double best = lowest_core({oriented(die, 2)});
  ASSERT_EQ(lowest_core({oriented(die, 6)}), best);
  for (const OrientationCode c : {0, 1, 3, 4, 5, 7}) {
    ASSERT_GT(lowest_core({oriented(die, c)}), best + 1.0) << int{c};
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LayoutSearchOptions opts;
    opts.iterations = 100;
    opts.seed = seed;
    const LayoutSearchResult r =
        optimize_layout(die, 1, lowest_core, opts);
    EXPECT_EQ(r.orientations, std::vector<OrientationCode>{2})
        << "seed " << seed;
    EXPECT_EQ(r.peak_c, best);
  }
}

TEST(Optimizer, ThermalObjectiveMatchesFlipStudy) {
  // End-to-end: optimize the real thermal objective on a small grid and
  // confirm the optimizer at least matches the paper's flip layout.
  const ChipModel chip = make_high_frequency_cmp();
  const PackageConfig pkg;
  const CoolingOption water(CoolingKind::kWaterImmersion);
  const GridOptions grid{12, 12, {}};

  const LayoutObjective objective = [&](const std::vector<Floorplan>& layers) {
    const Stack3d stack{std::vector<Floorplan>(layers)};
    StackThermalModel model(stack, pkg, water.boundary(pkg), grid);
    std::vector<std::vector<double>> powers;
    for (std::size_t l = 0; l < stack.layer_count(); ++l) {
      powers.push_back(
          chip.block_powers(stack.layer(l), chip.max_frequency()));
    }
    return model.solve_steady(powers).max_die_temperature_c();
  };

  LayoutSearchOptions opts;
  opts.iterations = 25;
  opts.seed = 1;
  const LayoutSearchResult r =
      optimize_layout(chip.floorplan(), 4, objective, opts);
  EXPECT_LE(r.peak_c, r.flip_even_peak_c + 1e-9);
  EXPECT_LT(r.peak_c, r.baseline_peak_c - 3.0);  // flip buys >= several C
}

}  // namespace
}  // namespace aqua
