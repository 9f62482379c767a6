#pragma once

/// Iterative linear solvers for the thermal grid systems.
///
/// The steady-state heat equation on the finite-volume grid yields a
/// symmetric positive-definite conductance matrix, so preconditioned
/// conjugate gradients is the workhorse. Every solver runs on the thermal
/// path's StencilMatrix; CG uses only its product and diagonal.
/// Preconditioning is pluggable through the `Preconditioner` interface:
/// every thermal solve, steady and transient, runs the exact layered DCT
/// solve (common/spectral.hpp); Jacobi (diagonal scaling) is the reference
/// that abl_solver, CapAgreement and the tests use. A solve either meets
/// its tolerance or fails: breakdown and divergence throw aqua::Error, and
/// callers `ensure(converged)` (DESIGN.md §8).

#include <cstddef>
#include <span>
#include <vector>

#include "common/stencil.hpp"

namespace aqua {

/// Applies an SPD approximation of A^{-1}: z = M^{-1} r. Implementations
/// must be symmetric positive-definite operators or CG loses its
/// convergence guarantee.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M^{-1} r. `z` must already have the system dimension; `r` and `z`
  /// never alias.
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
};

/// Diagonal (Jacobi) scaling: z_i = r_i / a_ii.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const StencilMatrix& a);

  void apply(std::span<const double> r, std::span<double> z) const override;

 private:
  std::vector<double> inv_diag_;
};

/// Outcome of an iterative solve.
struct SolveResult {
  std::vector<double> x;        ///< solution vector
  std::size_t iterations = 0;   ///< iterations actually used
  double residual_norm = 0.0;   ///< final ||b - Ax||_2
  bool converged = false;       ///< true if tolerance was reached
};

/// Options shared by the iterative solvers.
struct SolverOptions {
  double tolerance = 1e-9;      ///< relative residual target ||r||/||b||
  std::size_t max_iterations = 20000;
};

/// Preconditioned conjugate gradients for SPD systems, from x = 0.
/// `preconditioner` defaults to Jacobi when null. The preconditioner is
/// applied once per iteration and never after the residual meets the
/// target, so a converged solve applies it `iterations` times. Breakdown
/// (non-positive curvature: matrix or preconditioner not SPD), a
/// non-finite residual and detected divergence throw aqua::Error; running
/// out of iterations returns with `converged` false. Every solve adds its
/// count, iterations, preconditioner applications and wall time to the
/// process-wide `solver.*` registry counters and to the calling thread's
/// obs::WorkTally.
SolveResult solve_cg(const StencilMatrix& a, const std::vector<double>& b,
                     const SolverOptions& options = {},
                     const Preconditioner* preconditioner = nullptr);

/// Euclidean norm helper shared by solvers and tests.
double norm2(const std::vector<double>& v);

}  // namespace aqua
