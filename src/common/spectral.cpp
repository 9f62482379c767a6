#include "common/spectral.hpp"

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

/// The n x n orthonormal DCT-II, row k holding mode k.
std::vector<double> dct_matrix(std::size_t n) {
  std::vector<double> c(n * n);
  const double size = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double scale = std::sqrt((k == 0 ? 1.0 : 2.0) / size);
    for (std::size_t i = 0; i < n; ++i) {
      c[k * n + i] =
          scale * std::cos(std::numbers::pi * static_cast<double>(k) *
                           (2.0 * static_cast<double>(i) + 1.0) / (2.0 * size));
    }
  }
  return c;
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

/// y[0, n) += a * x[0, n): the one kernel of the transforms.
void axpy(double a, const double* __restrict x, double* __restrict y,
          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// Mixes the rows of an ny x nx row-major plane: out row k is the sum
/// over j of c(k, j) times in row j, where c(k, j) = c[k * k_step +
/// j * j_step] (an ny x ny matrix, or its transpose).
void mix_rows(const double* c, std::size_t k_step, std::size_t j_step,
              const double* in, double* out, std::size_t nx, std::size_t ny) {
  for (std::size_t k = 0; k < ny; ++k) {
    double* row = out + k * nx;
    for (std::size_t i = 0; i < nx; ++i) row[i] = 0.0;
    for (std::size_t j = 0; j < ny; ++j) {
      axpy(c[k * k_step + j * j_step], in + j * nx, row, nx);
    }
  }
}

/// Mixes the columns of an ny x nx row-major plane: out = in * c for the
/// nx x nx matrix c, each out row the sum over j of in[j] times c row j.
void mix_columns(const double* c, const double* in, double* out,
                 std::size_t nx, std::size_t ny) {
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const double* src = in + iy * nx;
    double* row = out + iy * nx;
    for (std::size_t i = 0; i < nx; ++i) row[i] = 0.0;
    for (std::size_t j = 0; j < nx; ++j) axpy(src[j], c + j * nx, row, nx);
  }
}

}  // namespace

SpectralPreconditioner::SpectralPreconditioner(const StencilMatrix& a)
    : shape_(checked(a)),
      dct_x_(dct_matrix(shape_.nx)),
      dct_x_t_(shape_.nx * shape_.nx),
      dct_y_(dct_matrix(shape_.ny)),
      vertical_(shape_.layers - 1),
      inv_pivot_(shape_.nodes()),
      upper_(shape_.nodes()),
      plane_(shape_.plane()) {
  AQUA_TRACE_SCOPE_C("spectral.build", "solver");
  const std::size_t nx = shape_.nx;
  const std::size_t ny = shape_.ny;
  const std::size_t layers = shape_.layers;
  const std::size_t plane = shape_.plane();
  for (std::size_t k = 0; k < nx; ++k) {
    for (std::size_t i = 0; i < nx; ++i) {
      dct_x_t_[i * nx + k] = dct_x_[k * nx + i];
    }
  }

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
    for (std::size_t ky = 0; ky < ny; ++ky) {
      const double lateral_y = -gy * lambda_y[ky];
      for (std::size_t kx = 0; kx < nx; ++kx) {
        const std::size_t i = base + ky * nx + kx;
        double pivot = self + lateral_y - gx * lambda_x[kx];
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
  double* t = plane_.data();

  // Into DCT space, layer by layer: z_l = Cy r_l Cx^T.
  for (std::size_t l = 0; l < layers; ++l) {
    mix_columns(dct_x_t_.data(), r.data() + l * plane, t, nx, ny);
    mix_rows(dct_y_.data(), ny, 1, t, z.data() + l * plane, nx, ny);
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

  // Back to the grid: z_l = Cy^T z_l Cx.
  for (std::size_t l = 0; l < layers; ++l) {
    double* layer = z.data() + l * plane;
    mix_rows(dct_y_.data(), 1, ny, layer, t, nx, ny);
    mix_columns(dct_x_.data(), t, layer, nx, ny);
  }
}

}  // namespace aqua
