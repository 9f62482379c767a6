#include "common/sparse.hpp"

#include <algorithm>
#include <utility>

namespace aqua {

void SparseMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
  // Hot path (per SpMV): build the error strings only on failure.
  if (x.size() != cols_) require(false, "SpMV: x dimension mismatch");
  if (y.size() != rows()) require(false, "SpMV: y dimension mismatch");
  const std::size_t n = rows();
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

std::vector<double> SparseMatrix::diagonal() const {
  std::vector<double> d(rows(), 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) d[r] = values_[k];
    }
  }
  return d;
}

void SparseMatrix::gauss_seidel_sweep(std::span<const double> b,
                                      std::span<double> x) const {
  require(b.size() == rows() && x.size() == cols_,
          "gauss_seidel dimension mismatch");
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = b[r];
    double diag = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (c == r) {
        diag = values_[k];
      } else {
        acc -= values_[k] * x[c];
      }
    }
    ensure(diag != 0.0, "gauss_seidel: zero diagonal");
    x[r] = acc / diag;
  }
}

SparseMatrix SparseMatrix::from_csr(std::size_t cols,
                                   std::vector<std::size_t> row_ptr,
                                   std::vector<std::uint32_t> col_idx,
                                   std::vector<double> values) {
  require(cols <= UINT32_MAX, "sparse matrix limited to 2^32 columns");
  require(!row_ptr.empty() && row_ptr.front() == 0 &&
              row_ptr.back() == col_idx.size() &&
              col_idx.size() == values.size(),
          "from_csr: array sizes do not match row_ptr");
  // Hot path (once per assembled or coarsened matrix): build the error
  // strings only on failure.
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      require(false, "from_csr: row_ptr decreases");
    }
  }
  for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] >= cols) require(false, "from_csr: column out of range");
      if (k > row_ptr[r] && col_idx[k - 1] >= col_idx[k]) {
        require(false, "from_csr: columns not strictly ascending within a row");
      }
    }
  }
  SparseMatrix m;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseBuilder::build() const {
  std::vector<Entry> sorted = entries_;  // stable: see build()'s contract
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    row_ptr[r] = values.size();
    while (i < sorted.size() && sorted[i].row == r) {
      const std::uint32_t c = sorted[i].col;
      double acc = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        acc += sorted[i].value;
        ++i;
      }
      col_idx.push_back(c);
      values.push_back(acc);
    }
  }
  row_ptr[rows_] = values.size();
  return SparseMatrix::from_csr(cols_, std::move(row_ptr), std::move(col_idx),
                                std::move(values));
}

}  // namespace aqua
