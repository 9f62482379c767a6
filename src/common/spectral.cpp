#include "common/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace aqua {

namespace {

/// Relative agreement the layered checks accept, against the row's
/// diagonal: a few roundings of a seven-term row sum, far below any real
/// difference between two cells' coefficients.
constexpr double kLayeredTolerance = 1e-12;

using Band = StencilMatrix::Band;

/// `a`'s shape, once it is known to hold a node: runs in the member-init
/// list ahead of every allocation.
GridShape checked(const StencilMatrix& a) {
  require(a.rows() > 0, "spectral: empty operator");
  return a.shape();
}

/// Eigenvalues of the n-cell 1-D Neumann Laplacian (1 -1; -1 2 -1; ...;
/// -1 1), mode by mode: 2 - 2 cos(pi k / n), written without the
/// cancellation.
std::vector<double> laplacian_eigenvalues(std::size_t n) {
  std::vector<double> lambda(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double s = std::sin(std::numbers::pi * static_cast<double>(k) /
                              (2.0 * static_cast<double>(n)));
    lambda[k] = 4.0 * s * s;
  }
  return lambda;
}

/// cos(pi k (2i + 1) / 2n): entry (k, i) of the unscaled DCT-II.
double dct_cos(std::size_t k, std::size_t i, std::size_t n) {
  return std::cos(std::numbers::pi * static_cast<double>(k) *
                  (2.0 * static_cast<double>(i) + 1.0) /
                  (2.0 * static_cast<double>(n)));
}

// The transform kernels: element-wise loops over one row of `w` values,
// written on restrict pointers so GCC vectorizes them.

/// y += a * x.
void axpy(double a, const double* __restrict x, double* __restrict y,
          std::size_t w) {
  for (std::size_t e = 0; e < w; ++e) y[e] += a * x[e];
}

/// y = a * x.
void scale(double a, const double* __restrict x, double* __restrict y,
           std::size_t w) {
  for (std::size_t e = 0; e < w; ++e) y[e] = a * x[e];
}

/// sum = lo + hi, diff = t * (lo - hi): Lee's split.
void split(const double* __restrict lo, const double* __restrict hi,
           double t, double* __restrict sum, double* __restrict diff,
           std::size_t w) {
  for (std::size_t e = 0; e < w; ++e) {
    sum[e] = lo[e] + hi[e];
    diff[e] = (lo[e] - hi[e]) * t;
  }
}

/// lo = a + t * b, hi = a - t * b: the split's transpose.
void unsplit(const double* __restrict a, const double* __restrict b,
             double t, double* __restrict lo, double* __restrict hi,
             std::size_t w) {
  for (std::size_t e = 0; e < w; ++e) {
    const double tb = b[e] * t;
    lo[e] = a[e] + tb;
    hi[e] = a[e] - tb;
  }
}

/// y = s * (x0 + x1).
void scaled_sum(double s, const double* __restrict x0,
                const double* __restrict x1, double* __restrict y,
                std::size_t w) {
  for (std::size_t e = 0; e < w; ++e) y[e] = s * (x0[e] + x1[e]);
}

/// dst (cols x rows) = src (rows x cols) transposed, both row-major, in
/// tiles that stay in cache at 256 x 256.
void transpose(const double* __restrict src, double* __restrict dst,
               std::size_t rows, std::size_t cols) {
  constexpr std::size_t kTile = 16;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(rows, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(cols, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

/// The width of the n x width blocks `in`, `out` and `scratch`; throws
/// unless all three are one such block.
std::size_t block_width(std::size_t n, std::span<const double> in,
                        std::span<double> out, std::span<double> scratch) {
  if (in.size() % n != 0 || out.size() != in.size() ||
      scratch.size() != in.size()) {
    require(false, "fast DCT: block is not n x width");
  }
  return in.size() / n;
}

}  // namespace

FastDct::FastDct(std::size_t n) : n_(n), m_(n) {
  require(n > 0, "fast DCT: empty transform");
  while (m_ % 2 == 0) m_ /= 2;
  twiddle_.reserve(n_ - m_);
  for (std::size_t len = n_; len > m_; len /= 2) {
    for (std::size_t i = 0; i < len / 2; ++i) {
      twiddle_.push_back(0.5 / dct_cos(1, i, len));
    }
  }
  base_.resize(m_ * m_);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t i = 0; i < m_; ++i) base_[k * m_ + i] = dct_cos(k, i, m_);
  }
}

void FastDct::forward(std::span<const double> in, std::span<double> out,
                      std::span<double> scratch) const {
  const std::size_t width = block_width(n_, in, out, scratch);
  const double size = static_cast<double>(n_);
  forward_block(in.data(), out.data(), n_, width, scratch.data(),
                std::sqrt(1.0 / size), std::sqrt(2.0 / size));
}

void FastDct::backward(std::span<const double> in, std::span<double> out,
                       std::span<double> scratch) const {
  const std::size_t width = block_width(n_, in, out, scratch);
  const double size = static_cast<double>(n_);
  backward_block(in.data(), out.data(), n_, width, scratch.data(),
                 std::sqrt(1.0 / size), std::sqrt(2.0 / size));
}

// Both recursions take `len` rows of `w` values from `in` to `out`, scale
// output row 0 by s0 and every other row by s, and may use `scratch`
// (len x w, overlapping neither) freely. `in` may be `out`: it is read
// in full before `out` is first written. The halves run in place in
// `scratch`, with `out`'s halves as their scratch.

void FastDct::forward_block(const double* in, double* out, std::size_t len,
                            std::size_t w, double* scratch, double s0,
                            double s) const {
  if (len == m_) {
    base(in, out, w, scratch, s0, s, false);
    return;
  }
  const std::size_t half = len / 2;
  const double* twiddle = twiddle_.data() + (n_ - len);
  double* a = scratch;
  double* b = scratch + half * w;
  for (std::size_t i = 0; i < half; ++i) {
    split(in + i * w, in + (len - 1 - i) * w, twiddle[i], a + i * w,
          b + i * w, w);
  }
  forward_block(a, a, half, w, out, 1.0, 1.0);
  forward_block(b, b, half, w, out + half * w, 1.0, 1.0);
  // X_{2k} = A_k, X_{2k+1} = B_k + B_{k+1}, with B_half = 0.
  for (std::size_t k = 0; k < half; ++k) {
    double* even = out + 2 * k * w;
    scale(k == 0 ? s0 : s, a + k * w, even, w);
    if (k + 1 < half) {
      scaled_sum(s, b + k * w, b + (k + 1) * w, even + w, w);
    } else {
      scale(s, b + k * w, even + w, w);
    }
  }
}

void FastDct::backward_block(const double* in, double* out, std::size_t len,
                             std::size_t w, double* scratch, double s0,
                             double s) const {
  if (len == m_) {
    base(in, out, w, scratch, s0, s, true);
    return;
  }
  const std::size_t half = len / 2;
  const double* twiddle = twiddle_.data() + (n_ - len);
  double* a = scratch;
  double* b = scratch + half * w;
  // The merge's transpose: A_k = X_{2k}, B_k = X_{2k+1} + X_{2k-1}.
  for (std::size_t k = 0; k < half; ++k) {
    const double* even = in + 2 * k * w;
    scale(k == 0 ? s0 : s, even, a + k * w, w);
    if (k > 0) {
      scaled_sum(s, even + w, even - w, b + k * w, w);
    } else {
      scale(s, even + w, b, w);
    }
  }
  backward_block(a, a, half, w, out, 1.0, 1.0);
  backward_block(b, b, half, w, out + half * w, 1.0, 1.0);
  for (std::size_t i = 0; i < half; ++i) {
    unsplit(a + i * w, b + i * w, twiddle[i], out + i * w,
            out + (len - 1 - i) * w, w);
  }
}

/// The dense m x m step, out = S C in (or C^T S in when `transpose`),
/// where C is base_ and S scales row 0 by s0 and the rest by s. At
/// m = 1 it is a copy: s0 is 1 there (the top of a length-1 transform,
/// or a level inside a longer one).
void FastDct::base(const double* in, double* out, std::size_t w,
                   double* scratch, double s0, double s,
                   bool transpose) const {
  if (m_ == 1) {
    if (out != in) std::copy(in, in + w, out);
    return;
  }
  double* dst = out == in ? scratch : out;
  for (std::size_t k = 0; k < m_; ++k) {
    double* row = dst + k * w;
    std::fill(row, row + w, 0.0);
    for (std::size_t j = 0; j < m_; ++j) {
      const double c = transpose ? (j == 0 ? s0 : s) * base_[j * m_ + k]
                                 : (k == 0 ? s0 : s) * base_[k * m_ + j];
      axpy(c, in + j * w, row, w);
    }
  }
  if (dst != out) std::copy(dst, dst + m_ * w, out);
}

SpectralPreconditioner::SpectralPreconditioner(const StencilMatrix& a)
    : shape_(checked(a)),
      along_x_(shape_.nx),
      along_y_(shape_.ny),
      vertical_(shape_.layers - 1),
      inv_pivot_(shape_.nodes()),
      upper_(shape_.nodes()),
      scratch_(2 * shape_.plane()) {
  AQUA_TRACE_SCOPE_C("spectral.build", "solver");
  const std::size_t nx = shape_.nx;
  const std::size_t ny = shape_.ny;
  const std::size_t layers = shape_.layers;
  const std::size_t plane = shape_.plane();

  const auto down = a.band(Band::kMinusPlane);
  const auto south = a.band(Band::kMinusRow);
  const auto west = a.band(Band::kMinusOne);
  const auto diag = a.band(Band::kDiag);
  const auto east = a.band(Band::kPlusOne);
  const auto north = a.band(Band::kPlusRow);
  const auto up = a.band(Band::kPlusPlane);
  const std::vector<double> lambda_x = laplacian_eigenvalues(nx);
  const std::vector<double> lambda_y = laplacian_eigenvalues(ny);
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t base = l * plane;
    // The layer's coefficients, read where the neighbour exists.
    const double gx = nx > 1 ? west[base + 1] : 0.0;
    const double gy = ny > 1 ? south[base + nx] : 0.0;
    const double gdown = l > 0 ? down[base] : 0.0;
    const double gup = l + 1 < layers ? up[base] : 0.0;
    const double ground =
        diag[base] + down[base] + south[base] + west[base] + east[base] +
        north[base] + up[base];
    const auto not_layered = [l](std::size_t node) {
      require(false, "spectral: operator is not layered at node " +
                         std::to_string(node) + " (layer " +
                         std::to_string(l) +
                         "): a coefficient differs from its layer's");
    };
    // The coupling down to layer l - 1 must equal that layer's coupling
    // up: the operator is symmetric.
    if (l > 0 && std::abs(gdown - vertical_[l - 1]) >
                     kLayeredTolerance * std::abs(diag[base])) {
      not_layered(base);
    }
    double ground_sum = 0.0;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = base + iy * nx + ix;
        const double tol = kLayeredTolerance * std::abs(diag[i]);
        const auto is = [tol](double value, double want) {
          return std::abs(value - want) <= tol;
        };
        const double row_ground = diag[i] + down[i] + south[i] + west[i] +
                                  east[i] + north[i] + up[i];
        const bool layered =
            is(down[i], gdown) && is(south[i], iy > 0 ? gy : 0.0) &&
            is(west[i], ix > 0 ? gx : 0.0) &&
            is(east[i], ix + 1 < nx ? gx : 0.0) &&
            is(north[i], iy + 1 < ny ? gy : 0.0) && is(up[i], gup) &&
            is(row_ground, ground);
        if (!layered) not_layered(i);
        ground_sum += row_ground;
      }
    }
    if (l + 1 < layers) vertical_[l] = gup;

    // Mode (kx, ky) of layer l has diagonal gx lambda_kx + gy lambda_ky
    // plus the layer's vertical and ground terms; eliminate the coupling
    // to the layer below (Thomas, forward sweep).
    const double self =
        ground_sum / static_cast<double>(plane) - gdown - gup;
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double lateral_x = -gx * lambda_x[kx];
      for (std::size_t ky = 0; ky < ny; ++ky) {
        const std::size_t i = base + kx * ny + ky;
        double pivot = self + lateral_x - gy * lambda_y[ky];
        if (l > 0) {
          pivot -= vertical_[l - 1] * vertical_[l - 1] * inv_pivot_[i - plane];
        }
        if (!(pivot > 0.0) || !std::isfinite(pivot)) {
          require(false, "spectral: operator is not positive definite");
        }
        inv_pivot_[i] = 1.0 / pivot;
        upper_[i] = gup * inv_pivot_[i];
      }
    }
  }
}

void SpectralPreconditioner::apply(std::span<const double> r,
                                   std::span<double> z) const {
  const std::size_t n = shape_.nodes();
  // Hot path (per CG iteration): build the error string only on failure.
  if (r.size() != n || z.size() != n) {
    require(false, "spectral apply: dimension mismatch");
  }
  const std::size_t nx = shape_.nx;
  const std::size_t ny = shape_.ny;
  const std::size_t layers = shape_.layers;
  const std::size_t plane = shape_.plane();
  const std::span<double> t(scratch_.data(), plane);
  const std::span<double> spare(scratch_.data() + plane, plane);

  // Into DCT space, layer by layer: the y transform on the ny x nx plane,
  // then the x transform on its transpose, leaving the modes kx-major.
  for (std::size_t l = 0; l < layers; ++l) {
    const std::span<double> layer = z.subspan(l * plane, plane);
    along_y_.forward(r.subspan(l * plane, plane), layer, t);
    transpose(layer.data(), t.data(), ny, nx);
    along_x_.forward(t, layer, spare);
  }

  // One tridiagonal solve across the layers per mode, all modes at once.
  for (std::size_t m = 0; m < plane; ++m) z[m] *= inv_pivot_[m];
  for (std::size_t l = 1; l < layers; ++l) {
    const double e = vertical_[l - 1];
    double* here = z.data() + l * plane;
    const double* below = here - plane;
    const double* inv = inv_pivot_.data() + l * plane;
    for (std::size_t m = 0; m < plane; ++m) {
      here[m] = (here[m] - e * below[m]) * inv[m];
    }
  }
  for (std::size_t l = layers - 1; l-- > 0;) {
    double* here = z.data() + l * plane;
    const double* above = here + plane;
    const double* u = upper_.data() + l * plane;
    for (std::size_t m = 0; m < plane; ++m) here[m] -= u[m] * above[m];
  }

  // Back to the grid: the transposed steps in reverse order.
  for (std::size_t l = 0; l < layers; ++l) {
    const std::span<double> layer = z.subspan(l * plane, plane);
    along_x_.backward(layer, t, spare);
    transpose(t.data(), layer.data(), nx, ny);
    along_y_.backward(layer, layer, t);
  }
}

}  // namespace aqua
