#pragma once

/// Dense row-major matrix used by the lumped thermal-circuit models and the
/// dense LU reference solver. The grid solvers live in solvers.hpp.

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace aqua {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Identity matrix of the given order.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = A * x.
  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& x) const {
    require(x.size() == cols_, "matrix-vector dimension mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      const double* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by LU decomposition with partial pivoting. A is consumed
/// by value (the factorization happens in place on the copy).
/// Throws aqua::Error if A is singular (to working precision) or not square.
std::vector<double> solve_dense(Matrix a, std::vector<double> b);

}  // namespace aqua
