#include "floorplan/stack.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace aqua {

const char* to_string(FlipPolicy p) {
  switch (p) {
    case FlipPolicy::kNone:
      return "none";
    case FlipPolicy::kFlipEven:
      return "flip-even";
  }
  return "?";
}

namespace {

std::vector<Floorplan> replicate(const Floorplan& die, std::size_t layers,
                                 FlipPolicy policy) {
  require(layers > 0, "stack needs at least one layer");
  require(layers <= kMaxStackChips,
          "stack of " + std::to_string(layers) + " layers exceeds the " +
              std::to_string(kMaxStackChips) + "-chip limit");
  std::vector<Floorplan> out;
  out.reserve(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    // Layers count from 1 in the paper's figures; "even layers" there are
    // odd indices here (layer 2 == index 1).
    const bool flip = policy == FlipPolicy::kFlipEven && (i % 2 == 1);
    out.push_back(flip ? rotated(die, Rotation::k180) : die);
  }
  return out;
}

}  // namespace

Stack3d::Stack3d(const Floorplan& die, std::size_t layers, FlipPolicy policy)
    : Stack3d(replicate(die, layers, policy)) {}

Stack3d::Stack3d(std::vector<Floorplan> layers) : layers_(std::move(layers)) {
  require(!layers_.empty(), "stack needs at least one layer");
  const double w = layers_.front().width();
  const double h = layers_.front().height();
  const double eps = 1e-9;
  for (const Floorplan& fp : layers_) {
    require(std::fabs(fp.width() - w) < eps && std::fabs(fp.height() - h) < eps,
            "all stack layers must share one footprint (rectangular dies "
            "cannot be stacked with 90-degree rotation)");
  }
}

}  // namespace aqua
