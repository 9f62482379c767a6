#pragma once

/// Iterative linear solvers for the thermal grid systems.
///
/// The steady-state heat equation on the finite-volume grid yields a
/// symmetric positive-definite conductance matrix, so preconditioned
/// conjugate gradients is the workhorse. Every solver runs on the thermal
/// path's StencilMatrix; CG uses only its product and diagonal.
/// Preconditioning is pluggable through the `Preconditioner` interface:
/// every thermal solve, steady and transient, runs the exact layered DCT
/// solve (common/spectral.hpp); Jacobi (diagonal scaling) is the fallback
/// of solve_cg_resilient and the tests' reference.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
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
  /// CG breakdown: non-positive curvature (matrix or preconditioner not
  /// SPD), a non-finite residual, or detected divergence. Only reported
  /// when SolverOptions::throw_on_breakdown is false.
  bool breakdown = false;
  /// True when the solution only met a relaxed tolerance on the final
  /// fallback attempt (solve_cg_resilient): usable but degraded.
  bool degraded = false;
  /// Solve attempts consumed (1 unless a fallback chain ran).
  std::uint32_t attempts = 1;
  /// Human-readable attempt chain, e.g. "spectral>jacobi" (the resilient
  /// path fills this; a plain solve_cg leaves it empty).
  std::string attempt_chain;
};

/// Options shared by the iterative solvers.
struct SolverOptions {
  double tolerance = 1e-9;      ///< relative residual target ||r||/||b||
  std::size_t max_iterations = 20000;
  /// When true (default), CG breakdown raises aqua::Error as before; when
  /// false, the solve returns with SolveResult::breakdown set so callers
  /// (solve_cg_resilient) can fall back instead of dying.
  bool throw_on_breakdown = true;
};

/// Preconditioned conjugate gradients for SPD systems, from x = 0.
/// `preconditioner` defaults to Jacobi when null. The preconditioner is
/// applied once per iteration and never after the residual meets the
/// target, so a converged solve applies it `iterations` times. Every solve
/// adds its count, iterations, preconditioner applications and wall time
/// to the process-wide `solver.*` registry counters and to the calling
/// thread's obs::WorkTally.
SolveResult solve_cg(const StencilMatrix& a, const std::vector<double>& b,
                     const SolverOptions& options = {},
                     const Preconditioner* preconditioner = nullptr);

/// Degradation wrapper around solve_cg (DESIGN.md §8): attempt 1 runs
/// exactly as asked (bit-identical to a plain solve_cg when it succeeds);
/// on breakdown, divergence or non-convergence it falls back to plain
/// Jacobi-CG when the caller gave a preconditioner (it may be the
/// poison), and finally to a relaxed-tolerance Jacobi-CG retry with a 4x
/// iteration budget whose success is flagged as degraded. The
/// attempt chain is recorded in SolveResult::attempt_chain, fallback and
/// breakdown counts in the `solver.*` counters and the thread's
/// obs::WorkTally, and a "fault_absorbed"/"degraded_result" run-report
/// record is emitted per fallback. `label` names attempt 1 in the chain
/// (e.g. "spectral").
SolveResult solve_cg_resilient(const StencilMatrix& a,
                               const std::vector<double>& b,
                               const SolverOptions& options = {},
                               const Preconditioner* preconditioner = nullptr,
                               const char* label = nullptr);

/// Euclidean norm helper shared by solvers and tests.
double norm2(const std::vector<double>& v);

}  // namespace aqua
