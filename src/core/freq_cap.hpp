#pragma once

/// Thermal frequency capping: given a chip model, a stack height, a cooling
/// option and a temperature threshold, find the highest VFS step whose
/// steady-state peak die temperature stays under the threshold — the
/// computation behind the paper's Figs. 1, 7, 8, 15 and 17.

#include "core/cooling.hpp"
#include "power/chip_model.hpp"
#include "thermal/grid_model.hpp"

namespace aqua {

/// Result of a frequency-cap search for one configuration.
struct FrequencyCap {
  bool feasible = false;       ///< some VFS step satisfies the threshold
  std::size_t step_index = 0;  ///< ladder index of the chosen step
  Hertz frequency{0.0};        ///< the chosen step
  double max_temperature_c = 0.0;  ///< peak die temperature at that step
  Watts chip_power{0.0};       ///< per-chip power at that step
  Watts total_power{0.0};      ///< stack power at that step
};

/// Searches maximum feasible frequencies over (chips, cooling) configs.
///
/// The finder holds only the chip, package, threshold and grid: every call
/// builds its own StackThermalModel, solves it and frees it, so a call's
/// answer depends on its arguments alone and the finder keeps no memory
/// between calls.
///
/// find() does one steady solve from zero at the top VFS step and gets
/// every lower step by superposition: the steady system G·(T−T_amb)=P is
/// linear, so T(f) = T_amb + r(f)·(T(f_max) − T_amb) with
/// r(f) = total_power(f)/total_power(f_max). Precondition: the power map
/// is temperature-independent and a scalar multiple of the top step's —
/// ChipModel::block_powers(layer, f) equals r(f)·block_powers(layer, f_max)
/// for every layer (tests/core/test_freq_cap_superposition.cpp checks it).
/// Temperature-dependent power breaks that, so the leakage loop
/// (core/coupled) and DTM (core/dtm) keep real solves and must not call
/// this finder.
class MaxFrequencyFinder {
 public:
  MaxFrequencyFinder(ChipModel chip, PackageConfig package,
                     double threshold_c = 80.0, GridOptions grid = {});

  /// Highest feasible VFS step for a stack of `chips` dies.
  [[nodiscard]] FrequencyCap find(std::size_t chips,
                                  const CoolingOption& cooling,
                                  FlipPolicy flip = FlipPolicy::kNone) const;

  /// Peak die temperature when the whole stack runs at `f`.
  [[nodiscard]] double temperature_at(
      std::size_t chips, const CoolingOption& cooling, Hertz f,
      FlipPolicy flip = FlipPolicy::kNone) const;

  /// Full thermal field when the whole stack runs at `f` (for maps).
  [[nodiscard]] ThermalSolution solve_at(
      std::size_t chips, const CoolingOption& cooling, Hertz f,
      FlipPolicy flip = FlipPolicy::kNone) const;

  [[nodiscard]] const ChipModel& chip() const { return chip_; }
  [[nodiscard]] double threshold_c() const { return threshold_c_; }
  [[nodiscard]] const PackageConfig& package() const { return package_; }

 private:
  /// A fresh model of the `chips`-high stack under `cooling`.
  [[nodiscard]] StackThermalModel build_model(std::size_t chips,
                                              const CoolingOption& cooling,
                                              FlipPolicy flip) const;

  ChipModel chip_;
  PackageConfig package_;
  double threshold_c_;
  GridOptions grid_;
};

}  // namespace aqua
