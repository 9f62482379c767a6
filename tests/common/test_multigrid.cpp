#include "common/multigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"
#include "obs/metrics.hpp"
#include "support/csr_oracle.hpp"

namespace aqua {
namespace {

/// Anisotropic 3-D box-grid conductance matrix shaped like the thermal
/// stack: strong lateral coupling inside each layer, weak vertical coupling
/// across layers (the glue interfaces), and a ground term on the top and
/// bottom layer diagonals (the convective boundaries). SPD by construction.
oracle::Csr stack_like_csr(const GridShape& g, double lateral = 1.0,
                           double vertical = 0.01, double ground = 0.1) {
  oracle::Coo b(g.nodes());
  auto idx = [&](std::size_t l, std::size_t ix, std::size_t iy) {
    return l * g.nx * g.ny + iy * g.nx + ix;
  };
  auto couple = [&](std::size_t p, std::size_t q, double gpq) {
    b.add(p, p, gpq);
    b.add(q, q, gpq);
    b.add(p, q, -gpq);
    b.add(q, p, -gpq);
  };
  for (std::size_t l = 0; l < g.layers; ++l) {
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        const std::size_t p = idx(l, ix, iy);
        if (ix + 1 < g.nx) couple(p, idx(l, ix + 1, iy), lateral);
        if (iy + 1 < g.ny) couple(p, idx(l, ix, iy + 1), lateral);
        if (l + 1 < g.layers) couple(p, idx(l + 1, ix, iy), vertical);
        if (l == 0 || l + 1 == g.layers) b.add(p, p, ground);
      }
    }
  }
  return b.build();
}

StencilMatrix stack_like_matrix(const GridShape& g) {
  return oracle::to_stencil(stack_like_csr(g), g);
}

std::vector<double> manufactured_rhs(const StencilMatrix& a,
                                     std::vector<double>* x_star) {
  // Smooth manufactured solution x*(i) so b = A x* has a known answer.
  x_star->resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    (*x_star)[i] = std::sin(0.05 * static_cast<double>(i)) +
                   0.3 * std::cos(0.017 * static_cast<double>(i));
  }
  std::vector<double> b(a.rows());
  a.multiply(*x_star, b);
  return b;
}

TEST(Multigrid, BuildsMultipleLevels) {
  const GridShape g{32, 32, 6};
  const StencilMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a);
  EXPECT_GE(mg.level_count(), 3u);
  EXPECT_EQ(mg.fine_shape().nx, 32u);
}

TEST(Multigrid, FineLevelIsTheCallersOperator) {
  // Level 0 reads the caller's operator in place; no copy is made.
  const GridShape g{16, 16, 3};
  const StencilMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a);
  EXPECT_EQ(&mg.level_operator(0), &a);
  EXPECT_NE(&mg.level_operator(1), &a);
}

TEST(Multigrid, RejectsShapeMismatch) {
  // The operator carries its grid: a CSR matrix does not fit another
  // shape.
  const GridShape g{8, 8, 2};
  EXPECT_THROW(
      (void)oracle::to_stencil(stack_like_csr(g), GridShape{8, 8, 3}), Error);
}

TEST(Multigrid, MgCgMatchesJacobiCgOnManufacturedSolution) {
  const GridShape g{32, 32, 6};
  const StencilMatrix a = stack_like_matrix(g);
  std::vector<double> x_star;
  const std::vector<double> b = manufactured_rhs(a, &x_star);

  SolverOptions opts;
  opts.tolerance = 1e-11;
  const SolveResult jacobi = solve_cg(a, b, opts);
  const MultigridPreconditioner mg(a);
  const SolveResult mgcg = solve_cg(a, b, opts, {}, &mg);

  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(mgcg.converged);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(mgcg.x[i], jacobi.x[i], 1e-8);
    EXPECT_NEAR(mgcg.x[i], x_star[i], 1e-6);
  }
}

TEST(Multigrid, CutsIterationsVsJacobi) {
  const GridShape g{32, 32, 6};
  const StencilMatrix a = stack_like_matrix(g);
  std::vector<double> x_star;
  const std::vector<double> b = manufactured_rhs(a, &x_star);

  const SolveResult jacobi = solve_cg(a, b);
  const MultigridPreconditioner mg(a);
  const SolveResult mgcg = solve_cg(a, b, {}, {}, &mg);

  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(mgcg.converged);
  // The acceptance bar for the thermal grids; the synthetic stack behaves
  // the same way.
  EXPECT_GE(jacobi.iterations, 3 * mgcg.iterations);
}

TEST(Multigrid, ApplyIsSymmetric) {
  // CG requires a symmetric preconditioner: <M r, s> == <r, M s>.
  const GridShape g{16, 16, 4};
  const StencilMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a);

  Xoshiro256 rng(7);
  std::vector<double> r(g.nodes());
  std::vector<double> s(g.nodes());
  for (double& v : r) v = rng.uniform(-1.0, 1.0);
  for (double& v : s) v = rng.uniform(-1.0, 1.0);

  std::vector<double> mr(g.nodes());
  std::vector<double> ms(g.nodes());
  mg.apply(r, mr);
  mg.apply(s, ms);

  double mr_s = 0.0;
  double r_ms = 0.0;
  for (std::size_t i = 0; i < g.nodes(); ++i) {
    mr_s += mr[i] * s[i];
    r_ms += r[i] * ms[i];
  }
  EXPECT_NEAR(mr_s, r_ms, 1e-9 * std::abs(mr_s));
}

TEST(Multigrid, RefreshRejectsMovedColumn) {
  // Same size and nonzero count, but row 0's +x neighbour (column 1) moved
  // to column 2: the matrix is no longer the stencil on its grid, so it
  // cannot become a hierarchy's operator.
  const GridShape g{8, 8, 2};
  oracle::Csr moved = stack_like_csr(g);
  ASSERT_EQ(moved.col_idx[1], 1u);
  moved.col_idx[1] = 2;
  EXPECT_THROW((void)oracle::to_stencil(moved, g), Error);
}

/// The dense n x n LU with partial pivoting the coarsest level used before
/// the band LU, kept as its oracle: row-major, whole rows swapped, solved
/// by permuting the right-hand side first and substituting row by row.
struct DenseLu {
  std::size_t n = 0;
  std::vector<double> lu;
  std::vector<std::size_t> pivots;
  bool swapped = false;

  explicit DenseLu(const StencilMatrix& a) : n(a.rows()), lu(n * n, 0.0) {
    const oracle::Csr csr = oracle::to_csr(a);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
        lu[r * n + csr.col_idx[k]] = csr.values[k];
      }
    }
    pivots.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      std::size_t pivot = c;
      double best = std::abs(lu[c * n + c]);
      for (std::size_t r = c + 1; r < n; ++r) {
        const double mag = std::abs(lu[r * n + c]);
        if (mag > best) {
          best = mag;
          pivot = r;
        }
      }
      pivots[c] = pivot;
      if (pivot != c) {
        swapped = true;
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(lu[c * n + j], lu[pivot * n + j]);
        }
      }
      const double inv_pivot = 1.0 / lu[c * n + c];
      for (std::size_t r = c + 1; r < n; ++r) {
        const double factor = lu[r * n + c] * inv_pivot;
        lu[r * n + c] = factor;
        if (factor == 0.0) continue;
        for (std::size_t j = c + 1; j < n; ++j) {
          lu[r * n + j] -= factor * lu[c * n + j];
        }
      }
    }
  }

  [[nodiscard]] std::vector<double> solve(std::vector<double> x) const {
    for (std::size_t c = 0; c < n; ++c) {
      if (pivots[c] != c) std::swap(x[c], x[pivots[c]]);
    }
    for (std::size_t r = 1; r < n; ++r) {
      double acc = x[r];
      for (std::size_t c = 0; c < r; ++c) acc -= lu[r * n + c] * x[c];
      x[r] = acc;
    }
    for (std::size_t r = n; r-- > 0;) {
      double acc = x[r];
      for (std::size_t c = r + 1; c < n; ++c) acc -= lu[r * n + c] * x[c];
      x[r] = acc / lu[r * n + r];
    }
    return x;
  }
};

/// A stencil on `g` with random coefficients: diagonally dominant (no row
/// swap), or with weak diagonals that force partial pivoting to swap.
StencilMatrix random_stencil(const GridShape& g, std::uint64_t seed,
                             bool weak_diagonal) {
  StencilMatrix a(g);
  Xoshiro256 rng(seed);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t band = 0; band < StencilMatrix::kBands; ++band) {
      if (band == StencilMatrix::kDiag || !a.has_neighbour(r, band)) continue;
      a.band(band)[r] = rng.uniform(-1.0, 1.0);
    }
    a.band(StencilMatrix::kDiag)[r] =
        weak_diagonal ? rng.uniform(0.01, 0.2) : rng.uniform(7.0, 9.0);
  }
  return a;
}

TEST(Multigrid, BandLuMatchesDensePivotedLu) {
  // Layered (bandwidth one plane), single-layer and single-row shapes, the
  // largest coarsest level a 15-chip stack reaches (4x4x17), with and
  // without row swaps.
  const GridShape shapes[] = {{3, 2, 4}, {4, 4, 17}, {4, 3, 1}, {5, 1, 1},
                              {1, 1, 6}, {2, 2, 2}};
  for (const GridShape& g : shapes) {
    for (const bool weak : {false, true}) {
      SCOPED_TRACE(std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
                   std::to_string(g.layers) + (weak ? " weak" : " dominant"));
      const StencilMatrix a = random_stencil(g, 11 + g.nodes(), weak);
      const DenseLu dense(a);
      EXPECT_EQ(dense.swapped, weak && g.nodes() > 1);
      const BandLu band(a);
      Xoshiro256 rng(5);
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<double> b(a.rows());
        for (double& v : b) v = rng.uniform(-10.0, 10.0);
        const std::vector<double> want = dense.solve(b);
        band.solve(b);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(b[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "node " << i;
        }
      }
    }
  }
}

TEST(Multigrid, BandLuRejectsSingularOperator) {
  const GridShape g{2, 2, 2};
  EXPECT_THROW((void)BandLu(StencilMatrix(g)), Error);
}

TEST(Multigrid, CountsVcycles) {
  const GridShape g{8, 8, 2};
  const StencilMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a);
  std::vector<double> b(g.nodes(), 1.0);
  const obs::WorkTally start = obs::thread_work();
  const SolveResult r = solve_cg(a, b, {}, {}, &mg);
  ASSERT_TRUE(r.converged);
  // One V-cycle per CG iteration plus one for the initial residual.
  EXPECT_EQ((obs::thread_work() - start).vcycles, r.iterations + 1);
}

TEST(Multigrid, SolverStatsAccumulate) {
  const GridShape g{8, 8, 2};
  const StencilMatrix a = stack_like_matrix(g);
  std::vector<double> b(g.nodes(), 1.0);
  const obs::WorkTally start = obs::thread_work();
  const SolveResult r1 = solve_cg(a, b);
  const SolveResult r2 = solve_cg(a, b);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  const obs::WorkTally work = obs::thread_work() - start;
  EXPECT_EQ(work.solves, 2u);
  EXPECT_EQ(work.cg_iterations, r1.iterations + r2.iterations);
  EXPECT_EQ(work.vcycles, 0u);  // Jacobi
  EXPECT_EQ(work.breakdowns, 0u);
}

}  // namespace
}  // namespace aqua
