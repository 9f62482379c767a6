#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua {

namespace {

/// Builds C/dt + G from the steady conductance matrix by adding the
/// capacity term to each diagonal-band entry.
StencilMatrix build_stepping_matrix(const StencilMatrix& g,
                                    const std::vector<double>& capacities,
                                    double dt) {
  require(dt > 0.0, "transient dt must be positive");
  StencilMatrix a = g;
  const auto diag = a.band(StencilMatrix::kDiag);
  for (std::size_t r = 0; r < diag.size(); ++r) {
    diag[r] = diag[r] + capacities[r] / dt;
  }
  return a;
}

}  // namespace

TransientSolver::TransientSolver(StackThermalModel& model,
                                 TransientOptions options)
    : model_(model),
      options_(options),
      stepping_matrix_(build_stepping_matrix(
          model.conductance(), model.capacities(), options.dt_seconds)),
      spectral_(stepping_matrix_),
      theta_(model.node_count(), 0.0) {}

void TransientSolver::reset() {
  theta_.assign(model_.node_count(), 0.0);
  now_s_ = 0.0;
}

std::vector<double> TransientSolver::final_state_c() const {
  std::vector<double> out = theta_;
  for (double& v : out) v += model_.boundary().ambient_c;
  return out;
}

double TransientSolver::max_die_temperature_c() const {
  const std::size_t die_nodes =
      model_.stack().layer_count() * model_.options().nx * model_.options().ny;
  double best = 0.0;
  for (std::size_t i = 0; i < die_nodes; ++i) {
    best = std::max(best, theta_[i]);
  }
  return best + model_.boundary().ambient_c;
}

std::vector<TransientSample> TransientSolver::run(
    double duration_s,
    const std::function<std::vector<std::vector<double>>(double)>& power_at) {
  reset();
  return continue_run(duration_s, power_at);
}

std::vector<TransientSample> TransientSolver::continue_run(
    double duration_s,
    const std::function<std::vector<std::vector<double>>(double)>& power_at) {
  require(duration_s > 0.0, "transient duration must be positive");
  const std::size_t n = model_.node_count();
  const double dt = options_.dt_seconds;

  std::vector<TransientSample> samples;
  const auto steps = static_cast<std::size_t>(std::ceil(duration_s / dt));
  samples.reserve(steps);

  std::vector<double> rhs(n);
  const std::vector<double>& cap = model_.capacities();
  for (std::size_t s = 0; s < steps; ++s) {
    const double t_now = now_s_ + dt;
    const std::vector<double> p = model_.power_vector(power_at(t_now));
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = cap[i] / dt * theta_[i] + p[i];
    }
    // One spectral CG per step; a breakdown or a missed tolerance throws.
    SolveResult result =
        solve_cg(stepping_matrix_, rhs, model_.options().solver, &spectral_);
    ensure(result.converged, "transient step solve did not converge");
    theta_ = std::move(result.x);
    now_s_ = t_now;
    samples.push_back({t_now, max_die_temperature_c()});
  }
  return samples;
}

std::vector<TransientSample> TransientSolver::run_step(
    double duration_s,
    const std::vector<std::vector<double>>& layer_block_powers) {
  return run(duration_s,
             [&layer_block_powers](double) { return layer_block_powers; });
}

}  // namespace aqua
