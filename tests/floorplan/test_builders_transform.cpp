#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/error.hpp"
#include "floorplan/builders.hpp"
#include "floorplan/stack.hpp"
#include "floorplan/transform.hpp"

namespace aqua {
namespace {

// ------------------------------------------------------------- builders ----

TEST(Builders, BaselineCmpMatchesTable1) {
  const Floorplan fp = make_baseline_cmp_floorplan();
  // Table 1: 169 mm^2.
  EXPECT_NEAR(fp.area() * 1e6, 169.0, 1e-9);
  // 16 tiles, each with a router block.
  EXPECT_EQ(fp.block_count(), 32u);

  std::size_t cores = 0;
  std::size_t l2 = 0;
  std::size_t routers = 0;
  for (const Block& b : fp.blocks()) {
    if (b.kind == UnitKind::kCore) {
      ++cores;
      // All cores live in the bottom tile row (paper Section 4.2).
      EXPECT_LT(b.rect.y, fp.height() / 4.0);
    }
    if (b.kind == UnitKind::kL2Cache) ++l2;
    if (b.kind == UnitKind::kNocRouter) ++routers;
  }
  EXPECT_EQ(cores, 4u);
  EXPECT_EQ(l2, 12u);
  EXPECT_EQ(routers, 16u);
}

TEST(Builders, XeonE5HasEightCores) {
  const Floorplan fp = make_xeon_e5_floorplan();
  std::size_t cores = 0;
  for (const Block& b : fp.blocks()) cores += b.kind == UnitKind::kCore;
  EXPECT_EQ(cores, 8u);
  EXPECT_TRUE(fp.find("LLC").has_value());
  // Broadwell-EP-class die area.
  EXPECT_NEAR(fp.area() * 1e6, 246.6, 1.0);
}

TEST(Builders, XeonPhiHas36Tiles) {
  const Floorplan fp = make_xeon_phi_floorplan();
  std::size_t core_blocks = 0;
  for (const Block& b : fp.blocks()) core_blocks += b.kind == UnitKind::kCore;
  EXPECT_EQ(core_blocks, 36u);  // 36 dual-core tiles
  // KNL-class die area.
  EXPECT_NEAR(fp.area() * 1e6, 682.0, 2.0);
}

TEST(Builders, PhiCoreAreaSpreadsAcrossDie) {
  // The Phi's cores cover the die interior (the paper's explanation of its
  // uniform thermal map); the baseline concentrates cores in one row.
  const Floorplan phi = make_xeon_phi_floorplan();
  double min_y = 1e9;
  double max_y = -1e9;
  for (const Block& b : phi.blocks()) {
    if (b.kind != UnitKind::kCore) continue;
    min_y = std::min(min_y, b.rect.y);
    max_y = std::max(max_y, b.rect.top());
  }
  EXPECT_GT((max_y - min_y) / phi.height(), 0.7);
}

// ------------------------------------------------------------ transform ----

TEST(Transform, Rotate180TwiceIsIdentity) {
  const Floorplan fp = make_baseline_cmp_floorplan();
  const Floorplan twice = rotated(rotated(fp, Rotation::k180), Rotation::k180);
  ASSERT_EQ(twice.block_count(), fp.block_count());
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    EXPECT_NEAR(twice.blocks()[i].rect.x, fp.blocks()[i].rect.x, 1e-12);
    EXPECT_NEAR(twice.blocks()[i].rect.y, fp.blocks()[i].rect.y, 1e-12);
  }
}

TEST(Transform, Rotate180MovesCoresToTop) {
  const Floorplan fp = make_baseline_cmp_floorplan();
  const Floorplan flipped = rotated(fp, Rotation::k180);
  for (const Block& b : flipped.blocks()) {
    if (b.kind == UnitKind::kCore) {
      EXPECT_GT(b.rect.y, flipped.height() * 0.7);
    }
  }
}

TEST(Transform, Rotate90SwapsDimensions) {
  const Floorplan fp = make_xeon_e5_floorplan();  // rectangular
  const Floorplan r = rotated(fp, Rotation::kCw90);
  EXPECT_DOUBLE_EQ(r.width(), fp.height());
  EXPECT_DOUBLE_EQ(r.height(), fp.width());
  EXPECT_NEAR(r.area(), fp.area(), 1e-15);
}

TEST(Transform, RotationPreservesBlockAreas) {
  const Floorplan fp = make_xeon_phi_floorplan();
  for (Rotation rot : {Rotation::kCw90, Rotation::k180, Rotation::kCw270}) {
    const Floorplan r = rotated(fp, rot);
    double before = 0.0;
    double after = 0.0;
    for (const Block& b : fp.blocks()) before += b.rect.area();
    for (const Block& b : r.blocks()) after += b.rect.area();
    EXPECT_NEAR(before, after, 1e-12);
  }
}

TEST(Transform, MirrorPreservesY) {
  const Floorplan fp = make_baseline_cmp_floorplan();
  const Floorplan m = mirrored_x(fp);
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    EXPECT_DOUBLE_EQ(m.blocks()[i].rect.y, fp.blocks()[i].rect.y);
  }
  // Mirroring twice restores x.
  const Floorplan mm = mirrored_x(m);
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    EXPECT_NEAR(mm.blocks()[i].rect.x, fp.blocks()[i].rect.x, 1e-12);
  }
}

// ---------------------------------------------------------------- stack ----

TEST(Stack, HomogeneousStackLayout) {
  const Floorplan die = make_baseline_cmp_floorplan();
  const Stack3d stack(die, 4, FlipPolicy::kNone);
  EXPECT_EQ(stack.layer_count(), 4u);
  EXPECT_DOUBLE_EQ(stack.width(), die.width());
  EXPECT_NEAR(stack.footprint_area() * 1e6, 169.0, 1e-9);
}

TEST(Stack, FlipEvenRotatesAlternateLayers) {
  const Floorplan die = make_baseline_cmp_floorplan();
  const Stack3d stack(die, 4, FlipPolicy::kFlipEven);
  // Layers 1 and 3 (0-indexed) are flipped: their cores sit high.
  for (std::size_t l : {1u, 3u}) {
    for (const Block& b : stack.layer(l).blocks()) {
      if (b.kind == UnitKind::kCore) {
        EXPECT_GT(b.rect.y, die.height() * 0.7);
      }
    }
  }
  // Layers 0 and 2 keep cores at the bottom.
  for (std::size_t l : {0u, 2u}) {
    for (const Block& b : stack.layer(l).blocks()) {
      if (b.kind == UnitKind::kCore) {
        EXPECT_LT(b.rect.y, die.height() * 0.3);
      }
    }
  }
}

TEST(Stack, RejectsMismatchedFootprints) {
  // A 90-degree rotated rectangular die cannot join the unrotated stack —
  // the paper's Section 4.2 observation.
  const Floorplan die = make_xeon_e5_floorplan();
  std::vector<Floorplan> layers{die, rotated(die, Rotation::kCw90)};
  EXPECT_THROW(Stack3d{std::move(layers)}, Error);
}

TEST(Stack, RejectsEmpty) {
  EXPECT_THROW(Stack3d{std::vector<Floorplan>{}}, Error);
  const Floorplan die = make_baseline_cmp_floorplan();
  for (const std::size_t layers :
       {std::size_t{0}, kMaxStackChips + 1, SIZE_MAX}) {
    EXPECT_THROW(Stack3d(die, layers, FlipPolicy::kNone), Error) << layers;
  }
}

TEST(Stack, SquareDieAllows90Rotation) {
  const Floorplan die = make_baseline_cmp_floorplan();  // square
  std::vector<Floorplan> layers{die, rotated(die, Rotation::kCw90)};
  const Stack3d stack(std::move(layers));
  EXPECT_EQ(stack.layer_count(), 2u);
}

}  // namespace
}  // namespace aqua
