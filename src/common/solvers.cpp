#include "common/solvers.hpp"

#include <chrono>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua {

namespace {

/// Cached references into the metrics registry (lookup once, atomic adds
/// afterwards). Wall time is carried in nanoseconds so a plain counter
/// suffices.
struct GlobalSolverCounters {
  obs::Counter& solves = obs::Registry::instance().counter("solver.solves");
  obs::Counter& iterations =
      obs::Registry::instance().counter("solver.cg_iterations");
  obs::Counter& precond_applies =
      obs::Registry::instance().counter("solver.precond_applies");
  obs::Counter& wall_ns = obs::Registry::instance().counter("solver.wall_ns");
};

GlobalSolverCounters& global_solver_counters() {
  static GlobalSolverCounters counters;
  return counters;
}

/// Divergence detector: CG throws once ||r||^2 exceeds this factor times
/// the best ||r||^2 seen so far. Converging solves never trip it, so it
/// costs nothing on the healthy path.
constexpr double kDivergenceFactor = 1e8;

}  // namespace

double norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

JacobiPreconditioner::JacobiPreconditioner(const StencilMatrix& a)
    : inv_diag_(a.diagonal()) {
  for (double& d : inv_diag_) {
    ensure(d > 0.0, "jacobi: non-positive diagonal (matrix not SPD?)");
    d = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(std::span<const double> r,
                                 std::span<double> z) const {
  // Hot path (per CG iteration): build the error string only on failure.
  if (r.size() != inv_diag_.size() || z.size() != inv_diag_.size()) {
    require(false, "jacobi: dimension mismatch");
  }
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
}

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// r = b - A x into a caller-provided scratch buffer (no allocation).
void residual_into(const StencilMatrix& a, const std::vector<double>& b,
                   const std::vector<double>& x, std::vector<double>& r) {
  r.resize(b.size());
  a.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

}  // namespace

SolveResult solve_cg(const StencilMatrix& a, const std::vector<double>& b,
                     const SolverOptions& options,
                     const Preconditioner* preconditioner) {
  AQUA_TRACE_SCOPE_C("solver.cg", "solver");
  require(b.size() == a.rows(), "solve_cg: rhs dimension mismatch");
  const std::size_t n = b.size();
  const auto start = std::chrono::steady_clock::now();
  obs::WorkTally& work = obs::thread_work();
  std::uint64_t applies = 0;

  SolveResult out;
  out.x.assign(n, 0.0);

  const auto finish = [&](SolveResult&& result) {
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    work.solves += 1;
    work.cg_iterations += result.iterations;
    work.precond_applies += applies;
    work.solver_ns += wall_ns;
    GlobalSolverCounters& global = global_solver_counters();
    global.solves.add(1);
    global.iterations.add(result.iterations);
    global.precond_applies.add(applies);
    global.wall_ns.add(wall_ns);
    obs::Registry& registry = obs::Registry::instance();
    if (registry.enabled()) {
      static obs::Histogram& iteration_histogram = registry.histogram(
          "solver.cg_iterations_per_solve", obs::exponential_bounds(1, 2, 12));
      iteration_histogram.observe(static_cast<double>(result.iterations));
    }
    return std::move(result);
  };

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.converged = true;
    return finish(std::move(out));
  }

  // Default to Jacobi when the caller supplies no preconditioner.
  std::optional<JacobiPreconditioner> jacobi_storage;
  if (!preconditioner) {
    jacobi_storage.emplace(a);
    preconditioner = &*jacobi_storage;
  }

  std::vector<double> r;
  residual_into(a, b, out.x, r);
  std::vector<double> z(n);
  std::vector<double> p(n);
  std::vector<double> ap(n);
  double rz = 0.0;
  // ||r||^2 is maintained from the update recurrence below instead of an
  // extra O(n) norm pass per iteration.
  double rr = dot(r, r);

  const double target = options.tolerance * bnorm;
  const double target_sq = target * target;
  // Breakdown and divergence checks are comparisons only, and each builds
  // its message only on failure: a healthy solve runs arithmetic
  // bit-identical to the unguarded loop.
  double best_rr = rr;
  if (!std::isfinite(rr)) {
    ensure(false, "solve_cg: non-finite initial residual");
  }
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (rr <= target_sq) {
      out.residual_norm = std::sqrt(rr);
      out.converged = true;
      out.iterations = it;
      return finish(std::move(out));
    }
    // The search direction is built only once the residual misses the
    // target, so a converged solve applies the preconditioner exactly
    // once per iteration.
    preconditioner->apply(r, z);
    ++applies;
    const double rz_next = dot(r, z);
    if (it == 0) {
      p = z;
    } else {
      const double beta = rz_next / rz;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    rz = rz_next;
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {  // negated compare also catches NaN curvature
      ensure(false, "solve_cg: curvature non-positive (matrix not SPD?)");
    }
    const double alpha = rz / pap;
    double rr_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr_next += r[i] * r[i];
    }
    rr = rr_next;
    if (!std::isfinite(rr)) {
      ensure(false, "solve_cg: residual became non-finite");
    }
    if (rr < best_rr) {
      best_rr = rr;
    } else if (rr > kDivergenceFactor * best_rr) {
      ensure(false, "solve_cg: divergence detected");
    }
  }

  out.iterations = options.max_iterations;
  out.residual_norm = std::sqrt(rr);
  out.converged = out.residual_norm <= target;
  return finish(std::move(out));
}

}  // namespace aqua
