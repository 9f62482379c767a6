#pragma once

/// 3-D die stacks: an ordered list of die layers (bottom first) with
/// per-layer in-plane rotation — the geometry half of the paper's 3-D CMP
/// model (Fig. 5) and its rotation extension (Section 4.2).

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "floorplan/transform.hpp"

namespace aqua {

/// How layer orientations are assigned when replicating one die N times.
enum class FlipPolicy {
  kNone,      ///< all layers as drawn (the Fig. 5 stack)
  kFlipEven,  ///< 180-degree rotation on even layers (the Fig. 15 "flip")
};

const char* to_string(FlipPolicy p);

/// Tallest homogeneous stack a caller may ask for: twice the paper's
/// largest (Fig. 8 goes to 15 chips), and the service's `chips` limit.
inline constexpr std::size_t kMaxStackChips = 32;

/// A validated 3-D stack of dies sharing one footprint. Layer 0 is the
/// bottom of the stack; the heat spreader and heatsink sit on top of the
/// last layer (matching the paper's Fig. 9 observation that the upper tier
/// runs cooler).
class Stack3d {
 public:
  /// Builds a homogeneous stack of `layers` copies of `die`, oriented per
  /// the flip policy. Throws unless 1 <= layers <= kMaxStackChips.
  Stack3d(const Floorplan& die, std::size_t layers, FlipPolicy policy);

  /// Builds a heterogeneous stack from explicit layers (bottom first).
  /// All layers must share the same footprint (width and height) — this is
  /// what forbids 90-degree rotation of rectangular dies.
  explicit Stack3d(std::vector<Floorplan> layers);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const Floorplan& layer(std::size_t i) const { return layers_.at(i); }
  [[nodiscard]] double width() const { return layers_.front().width(); }
  [[nodiscard]] double height() const { return layers_.front().height(); }
  [[nodiscard]] double footprint_area() const { return width() * height(); }

 private:
  std::vector<Floorplan> layers_;
};

}  // namespace aqua
