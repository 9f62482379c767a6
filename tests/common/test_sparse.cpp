#include "common/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace aqua {
namespace {

SparseMatrix small_laplacian(std::size_t n) {
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i, i, 1.0);
    b.add(i + 1, i + 1, 1.0);
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
  }
  b.add(0, 0, 1.0);  // ground node 0: nonsingular
  return b.build();
}

TEST(Sparse, BuilderAccumulatesDuplicates) {
  SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 2u);
  std::vector<double> y(2);
  m.multiply(std::vector<double>{1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], -1.0);

  // Duplicates sum in insertion order. The sum below is order-sensitive
  // in floating point, and with more than 16 entries an unstable sort
  // (introsort) would permute the equal (0, 0) keys.
  SparseBuilder many(2, 24);
  double expected = 0.0;
  for (std::uint32_t i = 0; i < 24; ++i) {
    many.add(1, 23 - i, 1.0);
    const double v = i % 2 == 0 ? 1.0 : 1e-16 * (i + 1);
    many.add(0, 0, v);
    expected += v;
  }
  const SparseMatrix dup = many.build();
  EXPECT_EQ(dup.nonzeros(), 25u);
  ASSERT_EQ(dup.row_ptr()[1], 1u);  // row 0 holds only (0, 0)
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dup.values()[0]),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(Sparse, ColumnsSortedWithinRow) {
  SparseBuilder b(1, 4);
  b.add(0, 3, 3.0);
  b.add(0, 1, 1.0);
  b.add(0, 2, 2.0);
  const SparseMatrix m = b.build();
  ASSERT_EQ(m.nonzeros(), 3u);
  EXPECT_EQ(m.col_idx()[0], 1u);
  EXPECT_EQ(m.col_idx()[1], 2u);
  EXPECT_EQ(m.col_idx()[2], 3u);
}

TEST(Sparse, MultiplyMatchesDense) {
  const SparseMatrix m = small_laplacian(5);
  std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y(5);
  m.multiply(x, y);
  // Row 0: 2*x0 - x1 (with the extra ground term).
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1.0 - 2.0);
  // Interior row i: -x[i-1] + 2 x[i] - x[i+1].
  EXPECT_DOUBLE_EQ(y[2], -2.0 + 6.0 - 4.0);
  EXPECT_DOUBLE_EQ(y[4], -4.0 + 5.0);
}

TEST(Sparse, Diagonal) {
  const SparseMatrix m = small_laplacian(4);
  const std::vector<double> d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);  // 1 (chain) + 1 (ground)
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[3], 1.0);
}

TEST(Sparse, GaussSeidelSweepReducesResidual) {
  const SparseMatrix m = small_laplacian(6);
  const std::vector<double> bvec(6, 1.0);
  std::vector<double> x(6, 0.0);
  auto residual_norm = [&] {
    std::vector<double> r(6);
    m.multiply(x, r);
    double acc = 0.0;
    for (std::size_t i = 0; i < 6; ++i) acc += (bvec[i] - r[i]) * (bvec[i] - r[i]);
    return acc;
  };
  const double before = residual_norm();
  for (int i = 0; i < 10; ++i) m.gauss_seidel_sweep(bvec, x);
  EXPECT_LT(residual_norm(), before * 0.5);
}

TEST(Sparse, OutOfRangeEntryThrows) {
  SparseBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), Error);
  EXPECT_THROW(b.add(0, 2, 1.0), Error);
}

TEST(Sparse, FromCsrAdoptsValidArrays) {
  const SparseMatrix built = small_laplacian(4);
  const SparseMatrix adopted = SparseMatrix::from_csr(
      4, {0, 2, 5, 8, 10}, {0, 1, 0, 1, 2, 1, 2, 3, 2, 3},
      {2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 1.0});
  ASSERT_EQ(adopted.rows(), 4u);
  EXPECT_TRUE(std::ranges::equal(adopted.row_ptr(), built.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(adopted.col_idx(), built.col_idx()));
  EXPECT_TRUE(std::ranges::equal(adopted.values(), built.values()));
}

TEST(Sparse, FromCsrRejectsMalformedArrays) {
  // Empty row_ptr, nonzero start, sizes that disagree with row_ptr.
  EXPECT_THROW(SparseMatrix::from_csr(2, {}, {}, {}), Error);
  EXPECT_THROW(SparseMatrix::from_csr(2, {1, 1}, {0}, {1.0}), Error);
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 2}, {0}, {1.0}), Error);
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 1}, {0}, {1.0, 2.0}), Error);
  // Decreasing row_ptr.
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 2, 1, 2}, {0, 1}, {1.0, 2.0}),
               Error);
  // Column out of range, unsorted and duplicate columns within a row.
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 1}, {2}, {1.0}), Error);
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 2}, {1, 0}, {1.0, 2.0}), Error);
  EXPECT_THROW(SparseMatrix::from_csr(2, {0, 2}, {1, 1}, {1.0, 2.0}), Error);
  // Columns restart per row: row 1 may begin below row 0's last column.
  EXPECT_NO_THROW(
      SparseMatrix::from_csr(2, {0, 1, 2}, {1, 0}, {1.0, 2.0}));
}

TEST(Sparse, DimensionMismatchThrows) {
  const SparseMatrix m = small_laplacian(3);
  std::vector<double> bad(2);
  std::vector<double> y(3);
  EXPECT_THROW(m.multiply(bad, y), Error);
}

}  // namespace
}  // namespace aqua
