#include "common/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua {

namespace {

/// Damping of the Jacobi smoother.
constexpr double kJacobiWeight = 0.7;
/// Coarsening stops once both plane extents are at most this.
constexpr std::size_t kCoarsestExtent = 4;
/// Hierarchy depth cap, coarsest level included.
constexpr std::size_t kMaxLevels = 10;

using Band = StencilMatrix::Band;

/// The 2x2x1 coarsening of `shape`.
GridShape coarsen(const GridShape& shape) {
  return {(shape.nx + 1) / 2, (shape.ny + 1) / 2, shape.layers};
}

/// Writes coarse node `node`'s row of the Galerkin product R A R^T with
/// piecewise-constant restriction: A_c[I, J] is the sum of A[i, j] over
/// children i of I and j of J. The children of I are its 2x2 block
/// (clipped at odd edges) in ascending fine index; each child's neighbours
/// are visited in CSR column order, and each coarse band sums its terms
/// from 0.0 in that visiting order. A neighbour that is a sibling lands on
/// the coarse diagonal, any other on the coarse band of the same direction.
void galerkin_row(const StencilMatrix& fine, StencilMatrix& coarse,
                  std::size_t node) {
  const GridShape& f = fine.shape();
  const GridShape& c = coarse.shape();
  const std::size_t cx = node % c.nx;
  const std::size_t cy = (node / c.nx) % c.ny;
  const std::size_t layer = node / c.plane();
  const auto down = fine.band(Band::kMinusPlane);
  const auto south = fine.band(Band::kMinusRow);
  const auto west = fine.band(Band::kMinusOne);
  const auto diag = fine.band(Band::kDiag);
  const auto east = fine.band(Band::kPlusOne);
  const auto north = fine.band(Band::kPlusRow);
  const auto up = fine.band(Band::kPlusPlane);
  double sum[StencilMatrix::kBands] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const std::size_t iy_end = std::min(2 * cy + 2, f.ny);
  const std::size_t ix_end = std::min(2 * cx + 2, f.nx);
  for (std::size_t iy = 2 * cy; iy < iy_end; ++iy) {
    for (std::size_t ix = 2 * cx; ix < ix_end; ++ix) {
      const std::size_t i = layer * f.plane() + iy * f.nx + ix;
      const bool low_y = iy == 2 * cy;  // else the block's upper row
      const bool low_x = ix == 2 * cx;  // else the block's right column
      if (layer > 0) sum[Band::kMinusPlane] += down[i];
      if (iy > 0) sum[low_y ? Band::kMinusRow : Band::kDiag] += south[i];
      if (ix > 0) sum[low_x ? Band::kMinusOne : Band::kDiag] += west[i];
      sum[Band::kDiag] += diag[i];
      if (ix + 1 < f.nx) sum[low_x ? Band::kDiag : Band::kPlusOne] += east[i];
      if (iy + 1 < f.ny) sum[low_y ? Band::kDiag : Band::kPlusRow] += north[i];
      if (layer + 1 < f.layers) sum[Band::kPlusPlane] += up[i];
    }
  }
  for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
    coarse.band(b)[node] = sum[b];
  }
}

/// Jacobi weight / a_rr for the smoother; every level's diagonal must be
/// positive.
double scaled_inverse_diagonal(const StencilMatrix& a, std::size_t r) {
  const double d = a.band(Band::kDiag)[r];
  // Hot path (per row): build the error string only on failure.
  if (!(d > 0.0)) ensure(false, "multigrid: non-positive diagonal on a level");
  return kJacobiWeight * (1.0 / d);
}

/// Largest stencil offset on `shape`: the band LU's lower and upper
/// bandwidth.
std::size_t stencil_bandwidth(const GridShape& shape) {
  if (shape.layers > 1) return shape.plane();
  if (shape.ny > 1) return shape.nx;
  return shape.nx > 1 ? 1 : 0;
}

}  // namespace

void BandLu::factor(const StencilMatrix& a) {
  n_ = a.rows();
  bandwidth_ = stencil_bandwidth(a.shape());
  width_ = 3 * bandwidth_ + 1;
  lu_.assign(n_ * width_, 0.0);
  pivots_.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
      if (!a.has_neighbour(r, b)) continue;
      const auto c = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(r) + a.offset(b));
      at(r, c) = a.band(b)[r];
    }
  }
  // Partial pivoting as a dense LU does it: the same pivot choice (rows
  // below the band hold exact zeros in column c) and the same updates
  // (columns right of the band hold exact zeros in both rows). Rows are
  // swapped from column c on; the multipliers left of it stay in place.
  for (std::size_t c = 0; c < n_; ++c) {
    const std::size_t last_row = std::min(n_ - 1, c + bandwidth_);
    const std::size_t last_col = std::min(n_ - 1, c + 2 * bandwidth_);
    std::size_t pivot = c;
    double best = std::abs(at(c, c));
    for (std::size_t r = c + 1; r <= last_row; ++r) {
      const double mag = std::abs(at(r, c));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (!(best > 0.0)) ensure(false, "multigrid: singular coarsest operator");
    pivots_[c] = pivot;
    if (pivot != c) {
      for (std::size_t j = c; j <= last_col; ++j) {
        std::swap(at(c, j), at(pivot, j));
      }
    }
    const double inv_pivot = 1.0 / at(c, c);
    for (std::size_t r = c + 1; r <= last_row; ++r) {
      const double factor = at(r, c) * inv_pivot;
      at(r, c) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = c + 1; j <= last_col; ++j) {
        at(r, j) -= factor * at(c, j);
      }
    }
  }
}

void BandLu::solve(std::span<double> b) const {
  if (b.size() != n_) require(false, "band LU: dimension mismatch");
  // Forward elimination with the interchanges interleaved: each equation
  // subtracts its multipliers' terms in ascending column order, as the
  // dense row-oriented forward substitution does.
  for (std::size_t c = 0; c < n_; ++c) {
    if (pivots_[c] != c) std::swap(b[c], b[pivots_[c]]);
    const double bc = b[c];
    const std::size_t last_row = std::min(n_ - 1, c + bandwidth_);
    for (std::size_t r = c + 1; r <= last_row; ++r) b[r] -= at(r, c) * bc;
  }
  for (std::size_t r = n_; r-- > 0;) {
    double acc = b[r];
    const std::size_t last_col = std::min(n_ - 1, r + 2 * bandwidth_);
    for (std::size_t j = r + 1; j <= last_col; ++j) acc -= at(r, j) * b[j];
    b[r] = acc / at(r, r);
  }
}

MultigridPreconditioner::MultigridPreconditioner(const StencilMatrix& fine) {
  AQUA_TRACE_SCOPE_C("multigrid.build", "solver");
  require(fine.rows() > 0, "multigrid: empty operator");
  coarse_.reserve(kMaxLevels - 1);  // levels_ points into it
  levels_.push_back(Level{&fine, {}, {}, {}, {}});
  while (levels_.size() < kMaxLevels) {
    const StencilMatrix& top = *levels_.back().a;
    if (top.shape().nx <= kCoarsestExtent &&
        top.shape().ny <= kCoarsestExtent) {
      break;
    }
    StencilMatrix& coarse = coarse_.emplace_back(coarsen(top.shape()));
    for (std::size_t node = 0; node < coarse.rows(); ++node) {
      galerkin_row(top, coarse, node);
    }
    levels_.push_back(Level{&coarse, {}, {}, {}, {}});
  }

  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& level = levels_[l];
    const std::size_t n = level.a->rows();
    level.scaled_inv_diag.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      level.scaled_inv_diag[r] = scaled_inverse_diagonal(*level.a, r);
    }
    if (l + 1 < levels_.size()) level.t.resize(n);
    if (l > 0) {
      level.rhs.resize(n);
      level.x.resize(n);
    }
  }
  row_.resize(fine.shape().nx);
  coarsest_lu_.factor(*levels_.back().a);
}

void MultigridPreconditioner::cycle(std::size_t depth,
                                    std::span<const double> rhs,
                                    std::span<double> out) const {
  const Level& level = levels_[depth];
  if (depth + 1 == levels_.size()) {
    std::copy(rhs.begin(), rhs.end(), out.begin());
    coarsest_lu_.solve(out);
    return;
  }
  const GridShape& f = level.a->shape();
  const Level& coarse = levels_[depth + 1];
  const GridShape& c = coarse.a->shape();
  const std::size_t n = f.nodes();
  double* t = level.t.data();
  double* row = row_.data();
  const double* winv = level.scaled_inv_diag.data();

  // Pre-smooth: one damped Jacobi sweep from a zero guess is a diagonal
  // scale.
  for (std::size_t i = 0; i < n; ++i) t[i] = winv[i] * rhs[i];

  // Residual, restricted by summing children into parents in ascending
  // fine index — one pass, row by row.
  std::fill(coarse.rhs.begin(), coarse.rhs.end(), 0.0);
  for (std::size_t layer = 0; layer < f.layers; ++layer) {
    for (std::size_t iy = 0; iy < f.ny; ++iy) {
      const std::size_t base = layer * f.plane() + iy * f.nx;
      level.a->multiply_row(layer, iy, t, row);
      double* parent = coarse.rhs.data() + layer * c.plane() + (iy / 2) * c.nx;
      for (std::size_t ix = 0; ix < f.nx; ++ix) {
        parent[ix / 2] += rhs[base + ix] - row[ix];
      }
    }
  }

  cycle(depth + 1, coarse.rhs, coarse.x);

  // Prolong: inject the parent correction into each child.
  for (std::size_t layer = 0; layer < f.layers; ++layer) {
    for (std::size_t iy = 0; iy < f.ny; ++iy) {
      double* child = t + layer * f.plane() + iy * f.nx;
      const double* parent =
          coarse.x.data() + layer * c.plane() + (iy / 2) * c.nx;
      for (std::size_t ix = 0; ix < f.nx; ++ix) child[ix] += parent[ix / 2];
    }
  }

  // Post-smooth: one damped Jacobi sweep reading only the prolonged t and
  // writing `out`.
  for (std::size_t layer = 0; layer < f.layers; ++layer) {
    for (std::size_t iy = 0; iy < f.ny; ++iy) {
      const std::size_t base = layer * f.plane() + iy * f.nx;
      level.a->multiply_row(layer, iy, t, row);
      for (std::size_t ix = 0; ix < f.nx; ++ix) {
        const std::size_t i = base + ix;
        out[i] = t[i] + winv[i] * (rhs[i] - row[ix]);
      }
    }
  }
}

void MultigridPreconditioner::apply(std::span<const double> r,
                                    std::span<double> z) const {
  const std::size_t n = levels_.front().a->rows();
  // Hot path (per V-cycle): build the error string only on failure.
  if (r.size() != n || z.size() != n) {
    require(false, "multigrid apply: dimension mismatch");
  }
  cycle(0, r, z);
  ++obs::thread_work().vcycles;
}

}  // namespace aqua
