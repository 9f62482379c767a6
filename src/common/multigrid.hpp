#pragma once

/// Geometric multigrid V-cycle preconditioner for the structured thermal
/// grids (common/solvers.hpp `Preconditioner` interface).
///
/// The stack thermal matrix lives on an nx x ny x layers box grid. Levels
/// are built by 2x2x1 structured coarsening (the die plane is coarsened,
/// the layer axis is kept — stacks are at most ~17 layers tall and the
/// weak glue interfaces make vertical coupling the *weaker* direction, so
/// plane coarsening follows the strong couplings). Each coarse operator is
/// the Galerkin triple product R A R^T with piecewise-constant restriction
/// R (children sum into their parent cell), which keeps every level
/// symmetric positive-definite. Smoothing is damped (weighted) Jacobi with
/// equal pre-/post-counts so the V-cycle is a symmetric operator — a
/// requirement for use inside CG. The coarsest level is solved directly by
/// a cached dense LU factorization.
///
/// Each coarse operator is written row by row: a coarse row visits its
/// children in ascending fine index, so every entry sums in the order
/// SparseBuilder's stable sort would, and the same pass records where each
/// fine nonzero lands. The hierarchy's *structure* depends only on the grid
/// shape and matrix sparsity; `refresh_values` takes the fine rows whose
/// values changed in place (the thermal model's boundary swap), re-sums
/// only the coarse rows above them and re-factors the coarse LU, without
/// rebuilding any index arrays.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/solvers.hpp"
#include "common/sparse.hpp"

namespace aqua {

/// Shape of a structured box grid: nodes are indexed
/// layer * nx * ny + iy * nx + ix.
struct GridShape {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t layers = 0;

  [[nodiscard]] std::size_t nodes() const { return nx * ny * layers; }
};

/// Tuning knobs for the V-cycle.
struct MultigridOptions {
  std::size_t smooth_sweeps = 1;   ///< pre == post sweeps (symmetry)
  double jacobi_weight = 0.7;      ///< damping for the Jacobi smoother
  std::size_t coarsest_extent = 4; ///< stop coarsening at nx,ny <= this
  std::size_t max_levels = 10;     ///< hierarchy depth cap
};

/// V-cycle preconditioner over a cached grid hierarchy.
///
/// Not thread-safe: apply() uses per-level scratch buffers. Each thread
/// must own its preconditioner (the repo convention — thermal models are
/// never shared across threads).
class MultigridPreconditioner final : public Preconditioner {
 public:
  /// Builds the hierarchy for `fine`, whose rows must be laid out on
  /// `shape` (shape.nodes() == fine.rows()).
  MultigridPreconditioner(const SparseMatrix& fine, GridShape shape,
                          MultigridOptions options = {});

  /// z = V-cycle(r): one V-cycle on A z = r from a zero initial guess.
  void apply(std::span<const double> r, std::span<double> z) const override;

  /// Takes the current values of `fine` and recomputes the coarse rows
  /// they reach and the coarsest LU. `fine` must have the same row_ptr and
  /// col_idx as the matrix the hierarchy was built from (throws
  /// otherwise). Bit-identical to a hierarchy built from `fine`: both sum
  /// fine entries in fine CSR order.
  void refresh_values(const SparseMatrix& fine);

  /// Number of levels including the coarsest (>= 1).
  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }

  /// Operator of level `l` (0 is the fine matrix; for tests / diagnostics).
  [[nodiscard]] const SparseMatrix& level_operator(std::size_t l) const {
    require(l < levels_.size(), "multigrid: level out of range");
    return levels_[l].a;
  }

  /// Total V-cycles applied since construction (for SolverStats).
  [[nodiscard]] std::size_t vcycles() const { return vcycles_; }

  [[nodiscard]] const GridShape& fine_shape() const { return shape_; }

 private:
  struct Level {
    SparseMatrix a;
    GridShape shape;
    std::vector<double> inv_diag;        ///< 1/a_ii for the smoother
    // Coarsening to the next level (empty on the coarsest):
    std::vector<std::uint32_t> parent;   ///< node -> coarse node
    std::vector<std::size_t> child_ptr;  ///< coarse node c's children are
    std::vector<std::uint32_t> children; ///<   children[child_ptr[c]..[c+1])
    std::vector<std::size_t> entry_map;  ///< own nnz k -> coarse entry index
    // V-cycle scratch (apply() is const but stateful; see class comment).
    mutable std::vector<double> x, rhs, res;
  };

  void smooth(const Level& level, const std::vector<double>& rhs,
              std::vector<double>& x, bool x_is_zero) const;
  void cycle(std::size_t depth, const std::vector<double>& rhs,
             std::vector<double>& x) const;
  void factor_coarsest();

  GridShape shape_;
  MultigridOptions options_;
  std::vector<Level> levels_;
  // Dense LU of the coarsest operator (row-major, pivoted in place).
  std::vector<double> lu_;
  std::vector<std::size_t> pivots_;
  mutable std::size_t vcycles_ = 0;
};

}  // namespace aqua
