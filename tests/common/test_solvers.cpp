#include "common/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "support/csr_oracle.hpp"

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

TEST(Solvers, CgWarmStartConvergesFaster) {
  const StencilMatrix a = grid_laplacian(12);
  std::vector<double> b(144, 1.0);
  const SolveResult cold = solve_cg(a, b);
  ASSERT_TRUE(cold.converged);
  const SolveResult warm = solve_cg(a, b, {}, cold.x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold.iterations);
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
  const SolveResult gs = solve_gauss_seidel(a, b, gs_opts);
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

// ------------------------------------------------------ resilient solve ----

TEST(Solvers, BreakdownReturnsInsteadOfThrowing) {
  // A NaN warm start poisons the first residual; with throw_on_breakdown
  // off the solver must report the breakdown instead of iterating on NaN.
  const StencilMatrix a = grid_laplacian(4);
  std::vector<double> b(16, 1.0);
  std::vector<double> x0(16, std::numeric_limits<double>::quiet_NaN());
  SolverOptions options;
  options.throw_on_breakdown = false;
  const SolveResult r = solve_cg(a, b, options, x0);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
}

TEST(Solvers, BreakdownThrowsByDefault) {
  const StencilMatrix a = grid_laplacian(4);
  std::vector<double> b(16, 1.0);
  std::vector<double> x0(16, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)solve_cg(a, b, SolverOptions{}, x0), Error);
}

TEST(Solvers, ResilientSuccessIsBitIdenticalToPlainCg) {
  // The fallback chain must not perturb the healthy path: attempt 1 is the
  // exact computation solve_cg performs.
  const StencilMatrix a = grid_laplacian(5);
  Xoshiro256 rng(9);
  std::vector<double> b(25);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const SolveResult plain = solve_cg(a, b);
  const SolveResult res = solve_cg_resilient(a, b, SolverOptions{});
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.iterations, plain.iterations);
  EXPECT_EQ(res.x, plain.x);  // bit-identical, not just close
}

TEST(Solvers, ResilientRecoversFromPoisonedWarmStart) {
  // The caller's preconditioner is the poison: attempt 1 breaks down and
  // the plain Jacobi restart drops it.
  const StencilMatrix a = grid_laplacian(4);
  std::vector<double> b(16, 1.0);
  const NanPreconditioner poison;
  const obs::WorkTally start = obs::thread_work();
  const SolveResult r =
      solve_cg_resilient(a, b, SolverOptions{}, &poison, "poisoned");
  const obs::WorkTally work = obs::thread_work() - start;
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.degraded);  // the restart met the *original* tolerance
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.attempt_chain, "poisoned>jacobi");
  EXPECT_EQ(work.solves, 2u);
  EXPECT_EQ(work.fallbacks, 1u);
  EXPECT_EQ(work.breakdowns, 1u);
  const SolveResult ref = solve_cg(a, b);
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    EXPECT_NEAR(r.x[i], ref.x[i], 1e-6);
  }
}

TEST(Solvers, ResilientRelaxedRetryIsFlaggedDegraded) {
  // Starve the iteration budget so both strict attempts stagnate; the
  // relaxed attempt (100x tolerance, 4x budget) converges and must carry
  // the degraded flag.
  const StencilMatrix a = grid_laplacian(8, 1e-3);
  Xoshiro256 rng(3);
  std::vector<double> b(64);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  SolverOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 4;
  // A caller-given preconditioner enables attempt 2.
  const JacobiPreconditioner jacobi(a);
  const obs::WorkTally start = obs::thread_work();
  const SolveResult r = solve_cg_resilient(a, b, options, &jacobi, "jacobi");
  if (r.converged) {
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.attempts, 3);
  }
  EXPECT_EQ(r.attempt_chain, "jacobi>jacobi>jacobi-relaxed");
  EXPECT_EQ((obs::thread_work() - start).fallbacks, 2u);
}

TEST(Solvers, ResilientDivergenceIsCaught) {
  // An indefinite matrix breaks CG's positive-curvature assumption; the
  // resilient wrapper must come back with a verdict (no NaN iterates, no
  // exception) even though no attempt can converge.
  // Positive diagonal (so Jacobi setup passes) but indefinite: eigenvalues
  // 3 and -1 — CG's curvature assumption fails mid-iteration.
  std::vector<double> b{1.0, -1.0};
  SolverOptions options;
  options.max_iterations = 50;
  const SolveResult r =
      solve_cg_resilient(two_by_two(1.0, 1.0, 2.0), b, options);
  EXPECT_FALSE(r.converged);
  for (double v : r.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Solvers, Norm2) {
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm2({}), 0.0);
}

}  // namespace
}  // namespace aqua
