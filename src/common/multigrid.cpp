#include "common/multigrid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace aqua {

namespace {

/// 2x2x1 coarsening of `shape`. Fills the parent of every fine node and its
/// inverse: coarse node c owns children[child_ptr[c] .. child_ptr[c + 1]),
/// in ascending fine index (the 2x2 block, clipped at odd edges). Returns
/// the coarse-grid shape.
GridShape coarsen(const GridShape& shape, std::vector<std::uint32_t>& parent,
                  std::vector<std::size_t>& child_ptr,
                  std::vector<std::uint32_t>& children) {
  const GridShape coarse{(shape.nx + 1) / 2, (shape.ny + 1) / 2, shape.layers};
  parent.assign(shape.nodes(), 0);
  child_ptr.assign(1, 0);
  child_ptr.reserve(coarse.nodes() + 1);
  children.clear();
  children.reserve(shape.nodes());
  for (std::size_t l = 0; l < shape.layers; ++l) {
    for (std::size_t cy = 0; cy < coarse.ny; ++cy) {
      for (std::size_t cx = 0; cx < coarse.nx; ++cx) {
        const auto coarse_node =
            static_cast<std::uint32_t>(child_ptr.size() - 1);
        const std::size_t iy_end = std::min(2 * cy + 2, shape.ny);
        const std::size_t ix_end = std::min(2 * cx + 2, shape.nx);
        for (std::size_t iy = 2 * cy; iy < iy_end; ++iy) {
          for (std::size_t ix = 2 * cx; ix < ix_end; ++ix) {
            const std::size_t fine_node =
                l * shape.nx * shape.ny + iy * shape.nx + ix;
            parent[fine_node] = coarse_node;
            children.push_back(static_cast<std::uint32_t>(fine_node));
          }
        }
        child_ptr.push_back(children.size());
      }
    }
  }
  return coarse;
}

/// Galerkin triple product R A R^T with piecewise-constant restriction:
/// A_c[I, J] = sum of A[i, j] over children i of I, j of J. Written row by
/// row: coarse row I visits its children in ascending fine index and each
/// child's entries in CSR order, so every coarse entry sums its terms from
/// 0.0 in the order SparseBuilder's stable sort would. Any fine sparsity
/// works; `entry_map` receives the coarse position of every fine nonzero.
SparseMatrix galerkin_coarse(const SparseMatrix& fine,
                             const std::vector<std::uint32_t>& parent,
                             const std::vector<std::size_t>& child_ptr,
                             const std::vector<std::uint32_t>& children,
                             std::vector<std::size_t>& entry_map) {
  const std::size_t n = child_ptr.size() - 1;
  const auto fine_rows = fine.row_ptr();
  const auto fine_cols = fine.col_idx();
  const auto fine_values = fine.values();
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  row_ptr.reserve(n + 1);
  col_idx.reserve(fine.nonzeros());
  values.reserve(fine.nonzeros());
  entry_map.resize(fine.nonzeros());

  // Per-row accumulator: slot_of[J] is coarse column J's slot in the row
  // being written (kNoSlot when J has none yet); slots are created in
  // first-touch order and emitted in column order.
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_of(n, kNoSlot);
  std::vector<std::uint32_t> slot_col;
  std::vector<double> slot_sum;
  std::vector<std::size_t> by_col;
  std::vector<std::size_t> slot_pos;
  for (std::size_t c = 0; c < n; ++c) {
    slot_col.clear();
    slot_sum.clear();
    for (std::size_t i = child_ptr[c]; i < child_ptr[c + 1]; ++i) {
      const std::size_t r = children[i];
      for (std::size_t k = fine_rows[r]; k < fine_rows[r + 1]; ++k) {
        const std::uint32_t col = parent[fine_cols[k]];
        if (slot_of[col] == kNoSlot) {
          slot_of[col] = slot_col.size();
          slot_col.push_back(col);
          slot_sum.push_back(0.0);
        }
        slot_sum[slot_of[col]] += fine_values[k];
        entry_map[k] = slot_of[col];
      }
    }
    by_col.resize(slot_col.size());
    std::iota(by_col.begin(), by_col.end(), std::size_t{0});
    std::sort(by_col.begin(), by_col.end(), [&](std::size_t a, std::size_t b) {
      return slot_col[a] < slot_col[b];
    });
    slot_pos.resize(slot_col.size());
    for (const std::size_t s : by_col) {
      slot_pos[s] = col_idx.size();
      col_idx.push_back(slot_col[s]);
      values.push_back(slot_sum[s]);
      slot_of[slot_col[s]] = kNoSlot;
    }
    for (std::size_t i = child_ptr[c]; i < child_ptr[c + 1]; ++i) {
      const std::size_t r = children[i];
      for (std::size_t k = fine_rows[r]; k < fine_rows[r + 1]; ++k) {
        entry_map[k] = slot_pos[entry_map[k]];
      }
    }
    row_ptr.push_back(col_idx.size());
  }
  return SparseMatrix::from_csr(n, std::move(row_ptr), std::move(col_idx),
                                std::move(values));
}

/// 1/a_rr for the smoother; every level's diagonal must be positive.
double inverse_diagonal(const SparseMatrix& a, std::size_t r) {
  double d = 0.0;
  for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
    if (a.col_idx()[k] == r) d = a.values()[k];
  }
  // Hot path (per row): build the error string only on failure.
  if (!(d > 0.0)) ensure(false, "multigrid: non-positive diagonal on a level");
  return 1.0 / d;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

MultigridPreconditioner::MultigridPreconditioner(const SparseMatrix& fine,
                                                 GridShape shape,
                                                 MultigridOptions options)
    : shape_(shape), options_(options) {
  AQUA_TRACE_SCOPE_C("multigrid.build", "solver");
  require(shape_.nodes() == fine.rows(),
          "multigrid: shape does not match matrix dimension");
  require(shape_.nx >= 1 && shape_.ny >= 1 && shape_.layers >= 1,
          "multigrid: degenerate grid shape");
  require(options_.smooth_sweeps >= 1, "multigrid: need >= 1 smoothing sweep");

  Level finest;
  finest.a = fine;  // copy: levels own their operators
  finest.shape = shape_;
  levels_.push_back(std::move(finest));

  while (levels_.size() < options_.max_levels) {
    Level& top = levels_.back();
    if (top.shape.nx <= options_.coarsest_extent &&
        top.shape.ny <= options_.coarsest_extent) {
      break;
    }
    Level next;
    next.shape = coarsen(top.shape, top.parent, top.child_ptr, top.children);
    next.a = galerkin_coarse(top.a, top.parent, top.child_ptr, top.children,
                             top.entry_map);
    levels_.push_back(std::move(next));
  }

  for (Level& level : levels_) {
    const std::size_t n = level.shape.nodes();
    level.inv_diag.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      level.inv_diag[r] = inverse_diagonal(level.a, r);
    }
    level.x.resize(n);
    level.rhs.resize(n);
    level.res.resize(n);
  }
  factor_coarsest();
}

void MultigridPreconditioner::refresh_values(const SparseMatrix& fine) {
  AQUA_TRACE_SCOPE_C("multigrid.refresh_values", "solver");
  Level& finest = levels_.front();
  require(fine.rows() == shape_.nodes() &&
              std::ranges::equal(fine.row_ptr(), finest.a.row_ptr()) &&
              std::ranges::equal(fine.col_idx(), finest.a.col_idx()),
          "multigrid refresh: structure mismatch");
  // Copy the fine rows whose values changed (bitwise), then re-accumulate
  // level by level only the coarse rows with a changed child. A coarse row
  // is re-summed from 0.0 in the construction order, so the refreshed
  // hierarchy is bit-identical to one built from `fine`.
  std::vector<std::uint8_t> dirty(fine.rows(), 0);
  for (std::size_t r = 0; r < fine.rows(); ++r) {
    for (std::size_t k = fine.row_ptr()[r]; k < fine.row_ptr()[r + 1]; ++k) {
      if (bits(fine.values()[k]) != bits(finest.a.values()[k])) {
        finest.a.set_value(k, fine.values()[k]);
        dirty[r] = 1;
      }
    }
  }
  for (std::size_t l = 0;; ++l) {
    Level& level = levels_[l];
    for (std::size_t r = 0; r < dirty.size(); ++r) {
      if (dirty[r] != 0) level.inv_diag[r] = inverse_diagonal(level.a, r);
    }
    if (l + 1 == levels_.size()) break;
    Level& coarse = levels_[l + 1];
    const auto rows = level.a.row_ptr();
    const auto coarse_rows = coarse.a.row_ptr();
    std::vector<std::uint8_t> coarse_dirty(coarse.shape.nodes(), 0);
    for (std::size_t c = 0; c < coarse_dirty.size(); ++c) {
      const auto first = level.children.begin() +
                         static_cast<std::ptrdiff_t>(level.child_ptr[c]);
      const auto last = level.children.begin() +
                        static_cast<std::ptrdiff_t>(level.child_ptr[c + 1]);
      if (std::none_of(first, last,
                       [&](std::uint32_t r) { return dirty[r] != 0; })) {
        continue;
      }
      coarse_dirty[c] = 1;
      for (std::size_t m = coarse_rows[c]; m < coarse_rows[c + 1]; ++m) {
        coarse.a.set_value(m, 0.0);
      }
      for (auto it = first; it != last; ++it) {
        for (std::size_t k = rows[*it]; k < rows[*it + 1]; ++k) {
          const std::size_t m = level.entry_map[k];
          coarse.a.set_value(m, coarse.a.values()[m] + level.a.values()[k]);
        }
      }
    }
    dirty = std::move(coarse_dirty);
  }
  factor_coarsest();
}

void MultigridPreconditioner::factor_coarsest() {
  const SparseMatrix& a = levels_.back().a;
  const std::size_t n = a.rows();
  lu_.assign(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      lu_[r * n + a.col_idx()[k]] = a.values()[k];
    }
  }
  // In-place LU with partial pivoting.
  pivots_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t pivot = c;
    double best = std::abs(lu_[c * n + c]);
    for (std::size_t r = c + 1; r < n; ++r) {
      const double mag = std::abs(lu_[r * n + c]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    ensure(best > 0.0, "multigrid: singular coarsest operator");
    pivots_[c] = pivot;
    if (pivot != c) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu_[c * n + j], lu_[pivot * n + j]);
      }
    }
    const double inv_pivot = 1.0 / lu_[c * n + c];
    for (std::size_t r = c + 1; r < n; ++r) {
      const double factor = lu_[r * n + c] * inv_pivot;
      lu_[r * n + c] = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = c + 1; j < n; ++j) {
        lu_[r * n + j] -= factor * lu_[c * n + j];
      }
    }
  }
}

void MultigridPreconditioner::smooth(const Level& level,
                                     const std::vector<double>& rhs,
                                     std::vector<double>& x,
                                     bool x_is_zero) const {
  const double w = options_.jacobi_weight;
  const std::size_t n = level.shape.nodes();
  std::size_t sweeps = options_.smooth_sweeps;
  if (x_is_zero) {
    // First sweep from a zero guess collapses to a diagonal scale.
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = w * level.inv_diag[i] * rhs[i];
    }
    --sweeps;
  }
  for (std::size_t s = 0; s < sweeps; ++s) {
    level.a.multiply(x, level.res);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += w * level.inv_diag[i] * (rhs[i] - level.res[i]);
    }
  }
}

void MultigridPreconditioner::cycle(std::size_t depth,
                                    const std::vector<double>& rhs,
                                    std::vector<double>& x) const {
  const Level& level = levels_[depth];
  const std::size_t n = level.shape.nodes();

  if (depth + 1 == levels_.size()) {
    // Coarsest: direct solve through the cached LU.
    x = rhs;
    for (std::size_t c = 0; c < n; ++c) {
      if (pivots_[c] != c) std::swap(x[c], x[pivots_[c]]);
    }
    for (std::size_t r = 1; r < n; ++r) {
      double acc = x[r];
      for (std::size_t c = 0; c < r; ++c) acc -= lu_[r * n + c] * x[c];
      x[r] = acc;
    }
    for (std::size_t r = n; r-- > 0;) {
      double acc = x[r];
      for (std::size_t c = r + 1; c < n; ++c) acc -= lu_[r * n + c] * x[c];
      x[r] = acc / lu_[r * n + r];
    }
    return;
  }

  smooth(level, rhs, x, /*x_is_zero=*/true);

  // Residual, restricted by summing children into parents.
  level.a.multiply(x, level.res);
  const Level& coarse = levels_[depth + 1];
  std::fill(coarse.rhs.begin(), coarse.rhs.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    coarse.rhs[level.parent[i]] += rhs[i] - level.res[i];
  }

  cycle(depth + 1, coarse.rhs, coarse.x);

  // Prolong (inject the parent correction into each child) and correct.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += coarse.x[level.parent[i]];
  }

  smooth(level, rhs, x, /*x_is_zero=*/false);
}

void MultigridPreconditioner::apply(std::span<const double> r,
                                    std::span<double> z) const {
  require(r.size() == shape_.nodes() && z.size() == shape_.nodes(),
          "multigrid apply: dimension mismatch");
  const Level& finest = levels_.front();
  std::copy(r.begin(), r.end(), finest.rhs.begin());
  cycle(0, finest.rhs, finest.x);
  std::copy(finest.x.begin(), finest.x.end(), z.begin());
  ++vcycles_;
}

}  // namespace aqua
