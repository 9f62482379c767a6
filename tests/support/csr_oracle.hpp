#pragma once

// The tests' independent oracle for the library's stencil operators: a
// general CSR matrix assembled from a COO stamp list, its product, and the
// conversions between CSR and a StencilMatrix. The library writes its
// operators straight into stencil bands; the tests assemble the same
// operators here, pairwise and in any order a reference code would, and
// hold the bands to them bit for bit.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/stencil.hpp"

namespace aqua::oracle {

/// Compressed-sparse-row matrix: row r holds entries
/// [row_ptr[r], row_ptr[r + 1]) with ascending columns.
struct Csr {
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col_idx;
  std::vector<double> values;

  [[nodiscard]] std::size_t rows() const { return row_ptr.size() - 1; }
  [[nodiscard]] std::size_t nonzeros() const { return values.size(); }
};

/// Accumulating coordinate-list assembler. For a finite-volume pair (i, j)
/// with conductance g: add(i, i, g); add(j, j, g); add(i, j, -g);
/// add(j, i, -g).
class Coo {
 public:
  explicit Coo(std::size_t rows) : rows_(rows) {}

  void add(std::size_t row, std::size_t col, double value) {
    entries_.push_back({row, col, value});
  }

  /// CSR with columns ascending within a row and exact zeros kept.
  /// Duplicate coordinates sum from 0.0 in insertion order (the sort is
  /// stable), so the result is bit-reproducible.
  [[nodiscard]] Csr build() const {
    std::vector<Entry> sorted = entries_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.row != b.row ? a.row < b.row : a.col < b.col;
                     });
    Csr out;
    std::size_t i = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      while (i < sorted.size() && sorted[i].row == r) {
        const std::size_t c = sorted[i].col;
        double acc = 0.0;
        for (; i < sorted.size() && sorted[i].row == r && sorted[i].col == c;
             ++i) {
          acc += sorted[i].value;
        }
        out.col_idx.push_back(c);
        out.values.push_back(acc);
      }
      out.row_ptr.push_back(out.values.size());
    }
    return out;
  }

 private:
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };

  std::size_t rows_;
  std::vector<Entry> entries_;
};

/// y = A x, each row summed from 0.0 in column order.
inline void multiply(const Csr& a, std::span<const double> x,
                     std::span<double> y) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      acc += a.values[k] * x[a.col_idx[k]];
    }
    y[r] = acc;
  }
}

/// `a` in CSR, every on-grid neighbour an entry (zero-valued ones
/// included), as a Coo stamping of the full stencil would emit it.
inline Csr to_csr(const StencilMatrix& a) {
  Csr out;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
      if (!a.has_neighbour(r, b)) continue;
      out.col_idx.push_back(static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(r) + a.offset(b)));
      out.values.push_back(a.band(b)[r]);
    }
    out.row_ptr.push_back(out.values.size());
  }
  return out;
}

/// The stencil on `shape` that `csr` is exactly: every row holds its
/// on-grid neighbours and nothing else. Throws otherwise.
inline StencilMatrix to_stencil(const Csr& csr, GridShape shape) {
  StencilMatrix m(shape);
  require(csr.rows() == shape.nodes(),
          "oracle: matrix does not match the grid shape");
  for (std::size_t r = 0; r < shape.nodes(); ++r) {
    std::size_t k = csr.row_ptr[r];
    for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
      if (!m.has_neighbour(r, b)) continue;
      const auto col = static_cast<std::ptrdiff_t>(r) + m.offset(b);
      // Per entry: build the error strings only on failure.
      if (k == csr.row_ptr[r + 1] ||
          static_cast<std::ptrdiff_t>(csr.col_idx[k]) != col) {
        require(false, "oracle: row is not the 7-point stencil");
      }
      m.band(b)[r] = csr.values[k++];
    }
    if (k != csr.row_ptr[r + 1]) {
      require(false, "oracle: row has entries off the stencil");
    }
  }
  return m;
}

}  // namespace aqua::oracle
