// The tests' CSR oracle (tests/support/csr_oracle.hpp), and the library's
// sparse operator, the stencil, on a 1-D chain.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"
#include "support/csr_oracle.hpp"
#include "support/gauss_seidel.hpp"

namespace aqua {
namespace {

oracle::Csr small_laplacian(std::size_t n) {
  oracle::Coo b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i, i, 1.0);
    b.add(i + 1, i + 1, 1.0);
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
  }
  b.add(0, 0, 1.0);  // ground node 0: nonsingular
  return b.build();
}

StencilMatrix chain(std::size_t n) {
  return oracle::to_stencil(small_laplacian(n), GridShape{n, 1, 1});
}

TEST(Sparse, BuilderAccumulatesDuplicates) {
  oracle::Coo b(2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const oracle::Csr m = b.build();
  EXPECT_EQ(m.nonzeros(), 2u);
  std::vector<double> y(2);
  oracle::multiply(m, std::vector<double>{1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], -1.0);

  // Duplicates sum in insertion order. The sum below is order-sensitive
  // in floating point, and with more than 16 entries an unstable sort
  // (introsort) would permute the equal (0, 0) keys.
  oracle::Coo many(2);
  double expected = 0.0;
  for (std::uint32_t i = 0; i < 24; ++i) {
    many.add(1, 23 - i, 1.0);
    const double v = i % 2 == 0 ? 1.0 : 1e-16 * (i + 1);
    many.add(0, 0, v);
    expected += v;
  }
  const oracle::Csr dup = many.build();
  EXPECT_EQ(dup.nonzeros(), 25u);
  ASSERT_EQ(dup.row_ptr[1], 1u);  // row 0 holds only (0, 0)
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dup.values[0]),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(Sparse, ColumnsSortedWithinRow) {
  oracle::Coo b(1);
  b.add(0, 3, 3.0);
  b.add(0, 1, 1.0);
  b.add(0, 2, 2.0);
  const oracle::Csr m = b.build();
  ASSERT_EQ(m.nonzeros(), 3u);
  EXPECT_EQ(m.col_idx[0], 1u);
  EXPECT_EQ(m.col_idx[1], 2u);
  EXPECT_EQ(m.col_idx[2], 3u);
}

TEST(Sparse, MultiplyMatchesDense) {
  const oracle::Csr m = small_laplacian(5);
  std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y(5);
  oracle::multiply(m, x, y);
  // Row 0: 2*x0 - x1 (with the extra ground term).
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1.0 - 2.0);
  // Interior row i: -x[i-1] + 2 x[i] - x[i+1].
  EXPECT_DOUBLE_EQ(y[2], -2.0 + 6.0 - 4.0);
  EXPECT_DOUBLE_EQ(y[4], -4.0 + 5.0);
  std::vector<double> z(5);
  chain(5).multiply(x, z);
  EXPECT_EQ(z, y);
}

TEST(Sparse, Diagonal) {
  const std::vector<double> d = chain(4).diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);  // 1 (chain) + 1 (ground)
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[3], 1.0);
}

TEST(Sparse, GaussSeidelSweepReducesResidual) {
  const StencilMatrix m = chain(6);
  const std::vector<double> b(6, 1.0);
  SolverOptions ten_sweeps;
  ten_sweeps.max_iterations = 10;
  const SolveResult r = oracle::solve_gauss_seidel(m, b, ten_sweeps);
  EXPECT_EQ(r.iterations, 10u);
  EXPECT_LT(r.residual_norm * r.residual_norm, 6.0 * 0.5);  // ||b||^2 = 6
}

TEST(Sparse, DimensionMismatchThrows) {
  const StencilMatrix m = chain(3);
  std::vector<double> bad(2);
  std::vector<double> y(3);
  EXPECT_THROW(m.multiply(bad, y), Error);
}

}  // namespace
}  // namespace aqua
