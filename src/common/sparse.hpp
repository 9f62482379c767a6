#pragma once

/// The linear-operator interface the CG solver runs on, a general
/// compressed-sparse-row matrix and a COO-style assembler.
///
/// The thermal path uses the banded `StencilMatrix` (common/stencil.hpp).
/// CSR serves everything that is not a 7-point stencil: Gauss-Seidel
/// sweeps, and the tests' oracles. SparseBuilder accumulates duplicate
/// coordinates in insertion order and converts to CSR once; the stencil
/// writers must reproduce its output bit for bit. Column indices are
/// stored as 32 bits.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace aqua {

/// A square-or-rectangular linear operator: what conjugate gradients and
/// Jacobi preconditioning need of a matrix.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;

  /// y = A * x. `y` must already have rows() elements.
  virtual void multiply(std::span<const double> x,
                        std::span<double> y) const = 0;

  /// Diagonal entries (0 where a row has none).
  [[nodiscard]] virtual std::vector<double> diagonal() const = 0;
};

/// Immutable CSR sparse matrix.
class SparseMatrix final : public LinearOperator {
 public:
  SparseMatrix() = default;

  /// Adopts CSR arrays for a rows x `cols` matrix, rows = row_ptr.size()-1.
  /// Throws unless row_ptr starts at 0 and never decreases, its last entry
  /// equals both array sizes, and every row's columns are strictly
  /// ascending and below `cols`.
  [[nodiscard]] static SparseMatrix from_csr(std::size_t cols,
                                             std::vector<std::size_t> row_ptr,
                                             std::vector<std::uint32_t> col_idx,
                                             std::vector<double> values);

  [[nodiscard]] std::size_t rows() const override {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t cols() const override { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return values_.size(); }

  /// y = A * x. `y` must already have rows() elements.
  void multiply(std::span<const double> x,
                std::span<double> y) const override;

  /// Diagonal entries (0 where a row has no diagonal).
  [[nodiscard]] std::vector<double> diagonal() const override;

  /// One Gauss-Seidel forward sweep in place on x for A x = b.
  void gauss_seidel_sweep(std::span<const double> b,
                          std::span<double> x) const;

  /// Access to the raw CSR arrays (read-only, for tests and diagnostics).
  [[nodiscard]] std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulating coordinate-format assembler.
///
/// Typical finite-volume usage: for every pair of adjacent control volumes
/// (i, j) with conductance g, call `add(i, i, g); add(j, j, g);
/// add(i, j, -g); add(j, i, -g);` and finally `build()`.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {
    require(cols_ <= UINT32_MAX, "sparse matrix limited to 2^32 columns");
  }

  /// Accumulates `value` into entry (row, col). Duplicate coordinates sum.
  void add(std::size_t row, std::size_t col, double value) {
    require(row < rows_ && col < cols_, "sparse entry out of range");
    entries_.push_back({row, static_cast<std::uint32_t>(col), value});
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Converts accumulated entries into CSR (duplicates summed, entries with
  /// per-row sorted column order, exact zeros kept — the thermal assembly
  /// never produces structural zeros worth pruning). Duplicates sum in
  /// insertion order, so the result is bit-reproducible.
  [[nodiscard]] SparseMatrix build() const;

 private:
  struct Entry {
    std::size_t row;
    std::uint32_t col;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace aqua
