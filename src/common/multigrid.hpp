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
/// symmetric positive-definite and a 7-point stencil. Smoothing is damped
/// (weighted) Jacobi with one pre- and one post-sweep, so the V-cycle is a
/// symmetric operator — a requirement for use inside CG. The coarsest
/// level is solved directly by a band LU factorization.
///
/// Every level is a StencilMatrix. A coarse band entry sums its terms from
/// 0.0 with the children in ascending fine index and each child's bands in
/// CSR column order — the order a stable sort of the COO Galerkin product
/// gives — so the hierarchy is bit-identical to that product (the tests'
/// oracle, tests/support/csr_oracle.hpp).

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua {

/// LU factorization with partial pivoting of a 7-point stencil operator,
/// held in band storage (LAPACK dgbtrf layout ideas: the row interchanges
/// stay inside the band, the multipliers are not swapped afterwards, and
/// the solve interleaves the interchanges with forward elimination).
/// Lower and upper bandwidths are the largest stencil offset (one plane on
/// a layered grid); pivoting widens U to twice that. Its factors and
/// solutions equal, bit for bit, those of a dense n x n LU with the same
/// partial pivoting: every entry outside the band is an exact +0.0 there,
/// and each operation inside the band is the same.
class BandLu {
 public:
  BandLu() = default;
  explicit BandLu(const StencilMatrix& a) { factor(a); }

  /// Factors `a`, reusing the storage. Throws on a singular operator.
  void factor(const StencilMatrix& a);

  /// Solves A x = b in place (`b` becomes x).
  void solve(std::span<double> b) const;

 private:
  /// Entry (r, c) of the working band: row r holds columns
  /// [r - bandwidth, r + 2 * bandwidth].
  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return lu_[r * width_ + c + bandwidth_ - r];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return lu_[r * width_ + c + bandwidth_ - r];
  }

  std::size_t n_ = 0;
  std::size_t bandwidth_ = 0;
  std::size_t width_ = 0;
  std::vector<double> lu_;
  std::vector<std::size_t> pivots_;
};

/// V-cycle preconditioner over a cached grid hierarchy.
///
/// Not thread-safe: apply() uses per-level scratch buffers. Each thread
/// must own its preconditioner (the repo convention — thermal models are
/// never shared across threads).
class MultigridPreconditioner final : public Preconditioner {
 public:
  /// Builds the hierarchy for `fine` on its own grid shape. Level 0 reads
  /// `fine` in place, so it must outlive the preconditioner; only the
  /// coarse levels are owned.
  explicit MultigridPreconditioner(const StencilMatrix& fine);
  explicit MultigridPreconditioner(StencilMatrix&&) = delete;
  MultigridPreconditioner(const MultigridPreconditioner&) = delete;
  MultigridPreconditioner& operator=(const MultigridPreconditioner&) = delete;

  /// z = V-cycle(r): one V-cycle on A z = r from a zero initial guess.
  /// Counts the V-cycle in the calling thread's obs::WorkTally.
  void apply(std::span<const double> r, std::span<double> z) const override;

  /// Number of levels including the coarsest (>= 1).
  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }

  /// Operator of level `l` (0 is the caller's fine matrix; for tests /
  /// diagnostics).
  [[nodiscard]] const StencilMatrix& level_operator(std::size_t l) const {
    require(l < levels_.size(), "multigrid: level out of range");
    return *levels_[l].a;
  }

  [[nodiscard]] const GridShape& fine_shape() const {
    return levels_.front().a->shape();
  }

 private:
  struct Level {
    const StencilMatrix* a;  ///< the caller's operator, or one of coarse_
    std::vector<double> scaled_inv_diag;  ///< jacobi weight / a_ii
    // V-cycle scratch (apply() is const but stateful; see class comment):
    // the smoothed iterate on every level but the coarsest, and the
    // right-hand side and solution on every level but the finest.
    mutable std::vector<double> t, rhs, x;
  };

  void cycle(std::size_t depth, std::span<const double> rhs,
             std::span<double> out) const;

  std::vector<StencilMatrix> coarse_;  ///< operators of levels 1, 2, ...
  std::vector<Level> levels_;
  mutable std::vector<double> row_;  ///< one grid row of A * t
  BandLu coarsest_lu_;
};

}  // namespace aqua
