#include "common/multigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solvers.hpp"
#include "common/sparse.hpp"

namespace aqua {
namespace {

/// Anisotropic 3-D box-grid conductance matrix shaped like the thermal
/// stack: strong lateral coupling inside each layer, weak vertical coupling
/// across layers (the glue interfaces), and a ground term on the top and
/// bottom layer diagonals (the convective boundaries). SPD by construction.
SparseMatrix stack_like_matrix(const GridShape& g, double lateral = 1.0,
                               double vertical = 0.01, double ground = 0.1) {
  SparseBuilder b(g.nodes(), g.nodes());
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

std::vector<double> manufactured_rhs(const SparseMatrix& a,
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
  const SparseMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a, g);
  EXPECT_GE(mg.level_count(), 3u);
  EXPECT_EQ(mg.fine_shape().nx, 32u);
}

TEST(Multigrid, RejectsShapeMismatch) {
  const GridShape g{8, 8, 2};
  const SparseMatrix a = stack_like_matrix(g);
  EXPECT_THROW(MultigridPreconditioner(a, GridShape{8, 8, 3}), Error);
}

TEST(Multigrid, MgCgMatchesJacobiCgOnManufacturedSolution) {
  const GridShape g{32, 32, 6};
  const SparseMatrix a = stack_like_matrix(g);
  std::vector<double> x_star;
  const std::vector<double> b = manufactured_rhs(a, &x_star);

  SolverOptions opts;
  opts.tolerance = 1e-11;
  const SolveResult jacobi = solve_cg(a, b, opts);
  const MultigridPreconditioner mg(a, g);
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
  const SparseMatrix a = stack_like_matrix(g);
  std::vector<double> x_star;
  const std::vector<double> b = manufactured_rhs(a, &x_star);

  const SolveResult jacobi = solve_cg(a, b);
  const MultigridPreconditioner mg(a, g);
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
  const SparseMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a, g);

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

TEST(Multigrid, RefreshValuesTracksInPlaceEdits) {
  const GridShape g{16, 16, 4};
  SparseMatrix a = stack_like_matrix(g);
  MultigridPreconditioner mg(a, g);

  // Bump every boundary-layer diagonal in place (what set_boundary does)
  // and one interior diagonal, and refresh; the hierarchy must now
  // precondition the *new* matrix exactly as one built from scratch does.
  for (std::size_t iy = 0; iy < g.ny; ++iy) {
    for (std::size_t ix = 0; ix < g.nx; ++ix) {
      const std::size_t top = (g.layers - 1) * g.nx * g.ny + iy * g.nx + ix;
      const std::size_t k = a.entry_index(top, top);
      a.set_value(k, a.values()[k] + 25.0);
    }
  }
  const std::size_t interior = g.nx * g.ny + 5 * g.nx + 9;
  const std::size_t k = a.entry_index(interior, interior);
  a.set_value(k, a.values()[k] + 3.0);
  mg.refresh_values(a);

  std::vector<double> x_star;
  const std::vector<double> b = manufactured_rhs(a, &x_star);
  const SolveResult refreshed = solve_cg(a, b, {}, {}, &mg);
  const MultigridPreconditioner fresh(a, g);
  const SolveResult rebuilt = solve_cg(a, b, {}, {}, &fresh);

  // Every level's operator is the fresh one, bit for bit.
  ASSERT_EQ(mg.level_count(), fresh.level_count());
  for (std::size_t l = 0; l < fresh.level_count(); ++l) {
    const SparseMatrix& got = mg.level_operator(l);
    const SparseMatrix& want = fresh.level_operator(l);
    ASSERT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
    ASSERT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()));
    for (std::size_t e = 0; e < want.nonzeros(); ++e) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.values()[e]),
                std::bit_cast<std::uint64_t>(want.values()[e]))
          << "level " << l << " entry " << e;
    }
  }

  ASSERT_TRUE(refreshed.converged);
  ASSERT_TRUE(rebuilt.converged);
  EXPECT_EQ(refreshed.iterations, rebuilt.iterations);
  // Bitwise: the refresh accumulates in the builder's order, so the
  // refreshed hierarchy is the rebuilt one, not merely close to it.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(refreshed.x[i]),
              std::bit_cast<std::uint64_t>(rebuilt.x[i]))
        << "node " << i;
  }
}

TEST(Multigrid, RefreshRejectsMovedColumn) {
  // Same size and nonzero count, but row 0's +x neighbour (column 1) moved
  // to column 2: the cached entry maps no longer fit, so refresh throws.
  const GridShape g{8, 8, 2};
  const SparseMatrix a = stack_like_matrix(g);
  MultigridPreconditioner mg(a, g);
  std::vector<std::uint32_t> cols(a.col_idx().begin(), a.col_idx().end());
  ASSERT_EQ(cols[1], 1u);
  cols[1] = 2;
  const SparseMatrix moved = SparseMatrix::from_csr(
      a.cols(), {a.row_ptr().begin(), a.row_ptr().end()}, std::move(cols),
      {a.values().begin(), a.values().end()});
  ASSERT_EQ(moved.nonzeros(), a.nonzeros());
  EXPECT_THROW(mg.refresh_values(moved), Error);
}

TEST(Multigrid, CountsVcycles) {
  const GridShape g{8, 8, 2};
  const SparseMatrix a = stack_like_matrix(g);
  const MultigridPreconditioner mg(a, g);
  std::vector<double> b(g.nodes(), 1.0);
  const SolveResult r = solve_cg(a, b, {}, {}, &mg);
  ASSERT_TRUE(r.converged);
  // One V-cycle per CG iteration plus one for the initial residual.
  EXPECT_EQ(mg.vcycles(), r.iterations + 1);
}

TEST(Multigrid, SolverStatsAccumulate) {
  const GridShape g{8, 8, 2};
  const SparseMatrix a = stack_like_matrix(g);
  std::vector<double> b(g.nodes(), 1.0);
  SolverStats stats;
  const SolveResult r1 = solve_cg(a, b, {}, {}, nullptr, &stats);
  const SolveResult r2 = solve_cg(a, b, {}, {}, nullptr, &stats);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.iterations, r1.iterations + r2.iterations);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

}  // namespace
}  // namespace aqua
