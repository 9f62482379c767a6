#pragma once

/// Thermal-aware 3-D layout optimization — the paper's future work ("a
/// more thorough exploration of the 3-D chip integration layout design",
/// Section 6), generalizing the Fig. 15 flip study.
///
/// Each layer of a homogeneous stack may be placed in one of up to eight
/// orientations (four rotations x optional mirror; 90/270-degree codes are
/// only legal on square dies). A simulated-annealing search minimizes the
/// steady-state peak temperature at a fixed operating point.

#include <cstdint>
#include <functional>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "floorplan/transform.hpp"

namespace aqua {

/// Orientation code: bits 0-1 rotation (0/90/180/270 CW), bit 2 mirror-x
/// (applied after the rotation).
using OrientationCode = std::uint8_t;

/// Applies an orientation code to a floorplan.
Floorplan oriented(const Floorplan& plan, OrientationCode code);

/// True if the code keeps the stack footprint (90/270 need a square die).
bool orientation_legal(const Floorplan& plan, OrientationCode code);

/// Search options.
struct LayoutSearchOptions {
  std::size_t iterations = 150;
  double initial_temperature_c = 4.0;  ///< SA acceptance scale [deg C]
  double cooling_rate = 0.97;          ///< geometric schedule
  std::uint64_t seed = 1;
  bool allow_mirror = true;
  bool allow_quarter_turns = true;     ///< only effective on square dies
};

/// Peaks closer than this are a tie [deg C]. Solver rounding moves a peak
/// by about 1e-11 C, so a tie broken by the lower peak would follow the
/// last bits of the solve; the search breaks it by the layout instead.
inline constexpr double kLayoutPeakTieC = 1e-6;

/// Search outcome.
struct LayoutSearchResult {
  /// Bottom layer first. The best layout found: a new layout replaces it
  /// when its peak is lower by more than kLayoutPeakTieC, or when the
  /// peaks tie and its code vector is lexicographically smaller.
  std::vector<OrientationCode> orientations;
  double peak_c = 0.0;                        ///< peak of `orientations`
  double baseline_peak_c = 0.0;               ///< all-layers-unrotated peak
  double flip_even_peak_c = 0.0;              ///< the paper's Fig. 15 layout
  std::size_t evaluations = 0;
  /// Best-so-far peak per iteration. A broken tie may raise it, by at most
  /// kLayoutPeakTieC.
  std::vector<double> history;
};

/// Objective callback: peak temperature of a candidate stack layout.
using LayoutObjective =
    std::function<double(const std::vector<Floorplan>& layers)>;

/// Simulated-annealing search over per-layer orientations of `layers`
/// copies of `die`, minimizing `objective` (typically a thermal solve at
/// the chip's maximum frequency — see core/freq_cap.hpp users).
LayoutSearchResult optimize_layout(const Floorplan& die, std::size_t layers,
                                   const LayoutObjective& objective,
                                   const LayoutSearchOptions& options = {});

}  // namespace aqua
