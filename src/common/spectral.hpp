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
/// solve per mode and transforms back: A^{-1} r up to rounding. The
/// transforms are Lee's fast DCT (FastDct), so an apply costs
/// O(layers * nx * ny * (log n + m)) work, where m is the odd part of the
/// grid's extents (1 at the default 32, 3 at 12, 24 and 48).

#include <cstddef>
#include <span>
#include <vector>

#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua {

/// The orthonormal length-n DCT-II, X_k = s_k sum_i x_i cos(pi k (2i + 1)
/// / 2n) with s_0 = sqrt(1/n) and s_k = sqrt(2/n), and its transpose (the
/// DCT-III, its inverse), applied down the columns of an n x width
/// row-major block: every step is an element-wise loop over whole rows.
///
/// The transform is B. G. Lee's decimation ("A new algorithm to compute
/// the discrete cosine transform", IEEE TASSP 32(6), 1984). For even n,
/// a_i = x_i + x_{n-1-i} and b_i = (x_i - x_{n-1-i}) / (2 cos(pi (2i + 1)
/// / 2n)) for i < n/2; with A and B their length-n/2 transforms, X_{2k} =
/// A_k and X_{2k+1} = B_k + B_{k+1} (B_{n/2} = 0). Writing n = 2^a m with
/// m odd, it recurses a levels and ends in a dense m x m product; the
/// orthonormal scale is folded into the outermost step. backward() runs
/// the transposed steps in reverse order, so it is forward()'s exact
/// transpose: the preconditioner that wraps a diagonal between the two
/// stays symmetric to rounding, as CG needs. Memory: O(n) twiddles and
/// the m x m base.
class FastDct {
 public:
  /// Throws unless n > 0.
  explicit FastDct(std::size_t n);

  /// out = C in, column by column (C the n x n orthonormal DCT-II). All
  /// three spans hold n x width doubles for the same width; `out` may be
  /// `in`, and `scratch` overlaps neither.
  void forward(std::span<const double> in, std::span<double> out,
               std::span<double> scratch) const;
  /// out = C^T in (the DCT-III), under forward()'s conditions.
  void backward(std::span<const double> in, std::span<double> out,
                std::span<double> scratch) const;

 private:
  void forward_block(const double* in, double* out, std::size_t len,
                     std::size_t width, double* scratch, double s0,
                     double s) const;
  void backward_block(const double* in, double* out, std::size_t len,
                      std::size_t width, double* scratch, double s0,
                      double s) const;
  void base(const double* in, double* out, std::size_t width,
            double* scratch, double s0, double s, bool transpose) const;

  std::size_t n_;
  std::size_t m_;  ///< odd part of n: the base size
  /// 1 / (2 cos(pi (2i + 1) / 2len)) for i < len/2, one run per level
  /// len = n, n/2, ..., 2m, the run of `len` starting at n - len.
  std::vector<double> twiddle_;
  std::vector<double> base_;  ///< m x m cos(pi k (2i + 1) / 2m), row = k
};

/// z = A^{-1} r for a layered 7-point operator A, by DCT in the plane and
/// a tridiagonal solve across the layers.
///
/// Not thread-safe: apply() uses two scratch planes. Each thread must own
/// its preconditioner (the repo convention — thermal models are never
/// shared across threads).
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
  FastDct along_x_;
  FastDct along_y_;
  /// Per layer interface l | l+1: the (negative) vertical off-diagonal.
  std::vector<double> vertical_;
  /// Thomas factors, one per (layer, mode), modes kx-major: the
  /// reciprocal pivot, and the pivot-scaled coupling to the layer above.
  std::vector<double> inv_pivot_;
  std::vector<double> upper_;
  mutable std::vector<double> scratch_;  ///< two planes
};

}  // namespace aqua
