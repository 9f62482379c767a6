#pragma once

// The tests' Gauss-Seidel reference solver: a fixed-point iteration that
// converges for the diagonally dominant thermal systems, much slower than
// CG but independent of it, so CG's answers can be held to it.

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua::oracle {

/// One Gauss-Seidel forward sweep in place on x for A x = b: each row
/// subtracts its on-grid neighbour terms from b in band order, the CSR
/// column order, then divides by the diagonal.
inline void gauss_seidel_sweep(const StencilMatrix& a,
                               const std::vector<double>& b,
                               std::vector<double>& x) {
  using Band = StencilMatrix::Band;
  const GridShape& g = a.shape();
  const std::size_t plane = g.plane();
  const auto down = a.band(Band::kMinusPlane);
  const auto south = a.band(Band::kMinusRow);
  const auto west = a.band(Band::kMinusOne);
  const auto diag = a.band(Band::kDiag);
  const auto east = a.band(Band::kPlusOne);
  const auto north = a.band(Band::kPlusRow);
  const auto up = a.band(Band::kPlusPlane);
  std::size_t r = 0;
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix, ++r) {
        double acc = b[r];
        if (layer > 0) acc -= down[r] * x[r - plane];
        if (iy > 0) acc -= south[r] * x[r - g.nx];
        if (ix > 0) acc -= west[r] * x[r - 1];
        if (ix + 1 < g.nx) acc -= east[r] * x[r + 1];
        if (iy + 1 < g.ny) acc -= north[r] * x[r + g.nx];
        if (layer + 1 < g.layers) acc -= up[r] * x[r + plane];
        if (diag[r] == 0.0) ensure(false, "gauss_seidel: zero diagonal");
        x[r] = acc / diag[r];
      }
    }
  }
}

/// ||b - A x||_2.
inline double residual_norm(const StencilMatrix& a,
                            const std::vector<double>& b,
                            const std::vector<double>& x) {
  std::vector<double> r(b.size());
  a.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r);
}

/// Gauss-Seidel from x = 0 until ||b - A x|| <= tolerance * ||b|| or
/// max_iterations sweeps; the residual is checked every 8th sweep and
/// after the last.
inline SolveResult solve_gauss_seidel(const StencilMatrix& a,
                                      const std::vector<double>& b,
                                      const SolverOptions& options = {}) {
  require(b.size() == a.rows(), "solve_gauss_seidel: rhs mismatch");
  SolveResult out;
  out.x.assign(b.size(), 0.0);
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.converged = true;
    return out;
  }
  const double target = options.tolerance * bnorm;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    gauss_seidel_sweep(a, b, out.x);
    if (it % 8 == 7 || it + 1 == options.max_iterations) {
      out.residual_norm = residual_norm(a, b, out.x);
      if (out.residual_norm <= target) {
        out.converged = true;
        out.iterations = it + 1;
        return out;
      }
    }
  }
  out.iterations = options.max_iterations;
  out.residual_norm = residual_norm(a, b, out.x);
  return out;
}

}  // namespace aqua::oracle
