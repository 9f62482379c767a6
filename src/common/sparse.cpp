#include "common/sparse.hpp"

#include <algorithm>

namespace aqua {

void SparseMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
  require(x.size() == cols_, "SpMV: x dimension mismatch");
  require(y.size() == rows(), "SpMV: y dimension mismatch");
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

std::size_t SparseMatrix::entry_index(std::size_t row, std::size_t col) const {
  require(row < rows() && col < cols_, "entry_index out of range");
  // Columns are sorted within a row (SparseBuilder invariant).
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(col));
  require(it != end && *it == col, "entry_index: entry structurally absent");
  return static_cast<std::size_t>(it - col_idx_.begin());
}

SparseMatrix SparseBuilder::build() const {
  std::vector<Entry> sorted = entries_;  // stable: see build()'s contract
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  SparseMatrix m;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.values_.reserve(sorted.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    m.row_ptr_[r] = m.values_.size();
    while (i < sorted.size() && sorted[i].row == r) {
      const std::uint32_t c = sorted[i].col;
      double acc = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        acc += sorted[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(acc);
    }
  }
  m.row_ptr_[rows_] = m.values_.size();
  return m;
}

}  // namespace aqua
