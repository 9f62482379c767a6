#pragma once

/// Exact fast solver for the layered stack operator, used as CG's
/// preconditioner (common/solvers.hpp `Preconditioner` interface).
///
/// The stack thermal matrix lives on an nx x ny x layers box grid, and it
/// is separable: within a layer every lateral conductance is the same
/// (gx along x, gy along y), every column has the same vertical
/// conductance to the next layer, the layer's ground term (the convective
/// boundary on the outer layers, zero inside) is the same in every cell,
/// and the die sides are adiabatic. Layer l's block is then
/// gx_l Lx (x) I + gy_l I (x) Ly plus a multiple of the identity, where
/// Lx and Ly are 1-D Neumann Laplacians, and the orthonormal DCT-II
/// diagonalizes both: mode k of an n-cell Laplacian has eigenvalue
/// 2 - 2 cos(pi k / n). In DCT space the operator falls apart into one
/// symmetric tridiagonal system across the layers per in-plane mode
/// (kx, ky) — the Fourier-analysis fast Poisson solver (Swarztrauber,
/// SIAM Review 19, 1977). apply() transforms each layer, runs one Thomas
/// solve per mode and transforms back: A^{-1} r up to rounding, in
/// O(layers * (nx^2 ny + nx ny^2)) work with dense transform matrices.

#include <cstddef>
#include <span>
#include <vector>

#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua {

/// z = A^{-1} r for a layered 7-point operator A, by DCT in the plane and
/// a tridiagonal solve across the layers.
///
/// Not thread-safe: apply() uses a scratch plane. Each thread must own its
/// preconditioner (the repo convention — thermal models are never shared
/// across threads).
class SpectralPreconditioner final : public Preconditioner {
 public:
  /// Reads each layer's conductances from `a` and factors every mode's
  /// tridiagonal system. Throws unless `a` is layered: in each layer the
  /// lateral and vertical bands are constant with zeros off the grid, the
  /// vertical bands are symmetric, and the row sum (the layer's ground
  /// term) is constant, all to rounding; and every mode's system must be
  /// positive definite. Keeps no reference to `a`.
  explicit SpectralPreconditioner(const StencilMatrix& a);

  /// z = M^{-1} r, M = A up to rounding.
  void apply(std::span<const double> r, std::span<double> z) const override;

 private:
  GridShape shape_;
  std::vector<double> dct_x_;    ///< nx x nx orthonormal DCT-II, row = mode
  std::vector<double> dct_x_t_;  ///< its transpose
  std::vector<double> dct_y_;    ///< ny x ny
  /// Per layer interface l | l+1: the (negative) vertical off-diagonal.
  std::vector<double> vertical_;
  /// Thomas factors, one per (layer, mode) in node order: the reciprocal
  /// pivot, and the pivot-scaled coupling to the layer above.
  std::vector<double> inv_pivot_;
  std::vector<double> upper_;
  mutable std::vector<double> plane_;  ///< one transformed layer
};

}  // namespace aqua
