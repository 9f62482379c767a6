#pragma once

/// Transient thermal integration on the stacked-die grid.
///
/// The paper evaluates the worst-case steady state only, but names transient
/// analysis as the natural extension (Sections 3.2 / 4.3); this module
/// provides it: implicit (backward Euler) integration of
///     C dT/dt = -G T + P(t)
/// reusing the steady model's conductance matrix and per-node capacities.
/// Each step is the steady path's solve on the stepping matrix C/dt + G:
/// spectral-preconditioned CG from zero under the model's solver options.
/// C is uniform within a layer, so C/dt + G is layered and the spectral
/// solve is exact: one CG iteration per step.

#include <functional>
#include <vector>

#include "common/spectral.hpp"
#include "thermal/grid_model.hpp"

namespace aqua {

/// Options for the transient integrator.
struct TransientOptions {
  double dt_seconds = 0.01;  ///< fixed implicit step
};

/// One recorded instant of a transient run.
struct TransientSample {
  double time_s = 0.0;
  double max_die_temperature_c = 0.0;
};

/// Backward-Euler integrator over a StackThermalModel. The solver carries
/// its temperature field between calls: `run` restarts from ambient,
/// `continue_run` integrates onward from the current state (used by the
/// DTM controller in dtm.hpp).
class TransientSolver {
 public:
  TransientSolver(StackThermalModel& model, TransientOptions options = {});

  /// Integrates from the ambient-temperature initial condition for
  /// `duration_s`, with the power map supplied per step by `power_at`
  /// (absolute time [s] -> per-layer block powers). Records max die
  /// temperature after each step.
  std::vector<TransientSample> run(
      double duration_s,
      const std::function<std::vector<std::vector<double>>(double)>&
          power_at);

  /// Continues from the current field for another `duration_s`.
  std::vector<TransientSample> continue_run(
      double duration_s,
      const std::function<std::vector<std::vector<double>>(double)>&
          power_at);

  /// Convenience: constant power step response from ambient.
  std::vector<TransientSample> run_step(
      double duration_s,
      const std::vector<std::vector<double>>& layer_block_powers);

  /// Resets the field to ambient and the clock to zero.
  void reset();

  /// Simulated time integrated so far [s].
  [[nodiscard]] double now_s() const { return now_s_; }

  /// The current temperature field (deg C).
  [[nodiscard]] std::vector<double> final_state_c() const;

  /// Current peak temperature over the die layers (deg C).
  [[nodiscard]] double max_die_temperature_c() const;

  /// The implicit-Euler system matrix C/dt + G (for tests / diagnostics).
  [[nodiscard]] const StencilMatrix& stepping_matrix() const {
    return stepping_matrix_;
  }

 private:
  StackThermalModel& model_;
  TransientOptions options_;
  StencilMatrix stepping_matrix_;  // C/dt + G
  SpectralPreconditioner spectral_;  // exact inverse of stepping_matrix_
  std::vector<double> theta_;     // field relative to ambient
  double now_s_ = 0.0;
};

}  // namespace aqua
