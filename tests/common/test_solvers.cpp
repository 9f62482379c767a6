#include "common/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "support/csr_oracle.hpp"
#include "support/gauss_seidel.hpp"

namespace aqua {
namespace {

/// 2-D grounded grid Laplacian of size n x n (SPD), as the CSR oracle
/// stamps it.
oracle::Csr grid_laplacian_csr(std::size_t n, double ground) {
  oracle::Coo b(n * n);
  auto idx = [n](std::size_t i, std::size_t j) { return i * n + j; };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b.add(idx(i, j), idx(i, j), ground);
      if (i + 1 < n) {
        b.add(idx(i, j), idx(i, j), 1.0);
        b.add(idx(i + 1, j), idx(i + 1, j), 1.0);
        b.add(idx(i, j), idx(i + 1, j), -1.0);
        b.add(idx(i + 1, j), idx(i, j), -1.0);
      }
      if (j + 1 < n) {
        b.add(idx(i, j), idx(i, j), 1.0);
        b.add(idx(i, j + 1), idx(i, j + 1), 1.0);
        b.add(idx(i, j), idx(i, j + 1), -1.0);
        b.add(idx(i, j + 1), idx(i, j), -1.0);
      }
    }
  }
  return b.build();
}

/// The same Laplacian as an n x n x 1 stencil.
StencilMatrix grid_laplacian(std::size_t n, double ground = 0.5) {
  return oracle::to_stencil(grid_laplacian_csr(n, ground), GridShape{n, n, 1});
}

/// The 2 x 2 matrix [[d0, off], [off, d1]] as a 2 x 1 x 1 stencil.
StencilMatrix two_by_two(double d0, double d1, double off) {
  StencilMatrix a(GridShape{2, 1, 1});
  a.band(StencilMatrix::kDiag)[0] = d0;
  a.band(StencilMatrix::kDiag)[1] = d1;
  a.band(StencilMatrix::kPlusOne)[0] = off;
  a.band(StencilMatrix::kMinusOne)[1] = off;
  return a;
}

/// A preconditioner that writes NaN: poisons the solve it drives.
class NanPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double>, std::span<double> z) const override {
    std::fill(z.begin(), z.end(), std::numeric_limits<double>::quiet_NaN());
  }
};

TEST(Solvers, CgMatchesDenseSolve) {
  const std::size_t n = 6;
  const oracle::Csr csr = grid_laplacian_csr(n, 0.5);
  Matrix dense(n * n, n * n);
  for (std::size_t r = 0; r < n * n; ++r) {
    for (std::size_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      dense(r, csr.col_idx[k]) = csr.values[k];
    }
  }
  const StencilMatrix a = oracle::to_stencil(csr, GridShape{n, n, 1});
  Xoshiro256 rng(4);
  std::vector<double> b(n * n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  const std::vector<double> ref = solve_dense(dense, b);
  const SolveResult cg = solve_cg(a, b);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(cg.x[i], ref[i], 1e-6);
}

TEST(Solvers, CgZeroRhsGivesZero) {
  const StencilMatrix a = grid_laplacian(4);
  const SolveResult r = solve_cg(a, std::vector<double>(16, 0.0));
  EXPECT_TRUE(r.converged);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Solvers, GaussSeidelMatchesCg) {
  const StencilMatrix a = grid_laplacian(5);
  std::vector<double> b(25);
  Xoshiro256 rng(8);
  for (double& v : b) v = rng.uniform(0.0, 2.0);
  const SolveResult cg = solve_cg(a, b);
  SolverOptions gs_opts;
  gs_opts.max_iterations = 100000;
  gs_opts.tolerance = 1e-10;
  const SolveResult gs = oracle::solve_gauss_seidel(a, b, gs_opts);
  ASSERT_TRUE(cg.converged);
  ASSERT_TRUE(gs.converged);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_NEAR(gs.x[i], cg.x[i], 1e-6);
}

TEST(Solvers, CgRespectsIterationBudget) {
  const StencilMatrix a = grid_laplacian(16, 1e-4);
  std::vector<double> b(256, 1.0);
  SolverOptions opts;
  opts.max_iterations = 2;
  const SolveResult r = solve_cg(a, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
}

TEST(Solvers, CgRejectsNonPositiveDiagonal) {
  EXPECT_THROW(solve_cg(two_by_two(1.0, -1.0, 0.0), {1.0, 1.0}), Error);
}

// ------------------------------------------------------ checked solve ----

TEST(Solvers, BreakdownThrowsByDefault) {
  const StencilMatrix a = grid_laplacian(4);
  std::vector<double> b(16, 1.0);
  b[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)solve_cg(a, b, SolverOptions{}), Error);
}

TEST(Solvers, PoisonedPreconditionerThrows) {
  // NaN curvature from the caller's preconditioner fails the solve; no
  // retry drops the preconditioner.
  const StencilMatrix a = grid_laplacian(4);
  const std::vector<double> b(16, 1.0);
  const NanPreconditioner poison;
  EXPECT_THROW((void)solve_cg(a, b, SolverOptions{}, &poison), Error);
}

TEST(Solvers, IndefiniteMatrixThrows) {
  // Positive diagonal (so Jacobi setup passes) but indefinite: eigenvalues
  // 3 and -1, so the first search direction has negative curvature.
  EXPECT_THROW((void)solve_cg(two_by_two(1.0, 1.0, 2.0), {1.0, -1.0}), Error);
}

TEST(Solvers, CountsPreconditionerApplies) {
  // The preconditioner runs once per iteration and not again once the
  // updated residual meets the target: a converged solve applies it
  // exactly `iterations` times, whatever the preconditioner.
  const StencilMatrix a = grid_laplacian(12);
  const std::vector<double> b(a.rows(), 1.0);
  const JacobiPreconditioner jacobi(a);
  for (const Preconditioner* precond :
       {static_cast<const Preconditioner*>(nullptr),
        static_cast<const Preconditioner*>(&jacobi)}) {
    const obs::WorkTally start = obs::thread_work();
    const SolveResult r = solve_cg(a, b, {}, precond);
    ASSERT_TRUE(r.converged);
    ASSERT_GT(r.iterations, 1u);
    EXPECT_EQ((obs::thread_work() - start).precond_applies, r.iterations);
  }
  // A zero right-hand side is met by the zero start: nothing is applied.
  const obs::WorkTally start = obs::thread_work();
  const SolveResult zero =
      solve_cg(a, std::vector<double>(a.rows(), 0.0), {}, &jacobi);
  EXPECT_EQ(zero.iterations, 0u);
  EXPECT_EQ((obs::thread_work() - start).precond_applies, 0u);
}

TEST(Solvers, WorkTallyAccumulates) {
  const StencilMatrix a = grid_laplacian(8);
  const std::vector<double> b(a.rows(), 1.0);
  const obs::WorkTally start = obs::thread_work();
  const SolveResult r1 = solve_cg(a, b);
  const SolveResult r2 = solve_cg(a, b);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  const obs::WorkTally work = obs::thread_work() - start;
  EXPECT_EQ(work.solves, 2u);
  EXPECT_EQ(work.cg_iterations, r1.iterations + r2.iterations);
  EXPECT_EQ(work.precond_applies, work.cg_iterations);
}

TEST(Solvers, Norm2) {
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm2({}), 0.0);
}

}  // namespace
}  // namespace aqua
