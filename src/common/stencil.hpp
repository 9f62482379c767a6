#pragma once

/// Seven-point stencil operator on a structured box grid.
///
/// The thermal stack matrix couples each node only to its six face
/// neighbours, so the operator is stored as seven band arrays instead of
/// CSR: no column indices, no row pointers, and an SpMV that streams the
/// bands. The bands follow the CSR column order of a row, -plane, -nx,
/// -1, diag, +1, +nx, +plane, and an off-grid neighbour has a +0.0
/// coefficient.
///
/// Bit-identity with CSR: a row's product sums its seven terms from +0.0
/// in that order. An off-grid term is multiplied by a 0.0 stand-in, never
/// by an out-of-range (or non-finite) x value, so it adds a zero. An
/// accumulator that starts at +0.0 can never become -0.0 in
/// round-to-nearest, and adding a zero to anything else leaves it
/// unchanged, so the result equals that of a CSR product that skips those
/// terms. The tests hold every product to such a CSR oracle
/// (tests/support/csr_oracle.hpp).

#include <cstddef>
#include <span>
#include <vector>

namespace aqua {

/// Shape of a structured box grid: nodes are indexed
/// layer * nx * ny + iy * nx + ix.
struct GridShape {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t layers = 0;

  [[nodiscard]] std::size_t plane() const { return nx * ny; }
  [[nodiscard]] std::size_t nodes() const { return nx * ny * layers; }

  /// True when every extent is >= 1 and nodes() fits the stencil's 32-bit
  /// node limit, checked without overflowing.
  [[nodiscard]] bool indexable() const;

  friend bool operator==(const GridShape&, const GridShape&) = default;
};

/// A 7-point stencil operator on a GridShape, one band array per
/// neighbour direction (see the file comment for the layout and the
/// bit-identity contract).
class StencilMatrix {
 public:
  /// Band indices, in the CSR column order of a row.
  enum Band : std::size_t {
    kMinusPlane = 0,
    kMinusRow = 1,
    kMinusOne = 2,
    kDiag = 3,
    kPlusOne = 4,
    kPlusRow = 5,
    kPlusPlane = 6,
  };
  static constexpr std::size_t kBands = 7;

  StencilMatrix() = default;

  /// An all-zero operator on `shape`. Throws, before allocating, unless
  /// the shape is indexable().
  explicit StencilMatrix(GridShape shape);

  [[nodiscard]] const GridShape& shape() const { return shape_; }
  /// Unknowns (rows and columns: a stencil is square).
  [[nodiscard]] std::size_t rows() const { return shape_.nodes(); }

  /// Band `b` (a Band value), one coefficient per node.
  [[nodiscard]] std::span<double> band(std::size_t b) {
    return {bands_.data() + b * stride_, shape_.nodes()};
  }
  [[nodiscard]] std::span<const double> band(std::size_t b) const {
    return {bands_.data() + b * stride_, shape_.nodes()};
  }

  /// True when node `node`'s neighbour in band `b` lies on the grid.
  [[nodiscard]] bool has_neighbour(std::size_t node, std::size_t b) const;

  /// Column offset of band `b`'s neighbour (-plane ... +plane).
  [[nodiscard]] std::ptrdiff_t offset(std::size_t b) const;

  /// y = A * x. `y` must already have rows() elements and not alias `x`.
  void multiply(std::span<const double> x, std::span<double> y) const;

  [[nodiscard]] std::vector<double> diagonal() const;

 private:
  /// y[0, nx) = (A * x) over grid row (layer, iy); `x` is the whole
  /// vector.
  void multiply_row(std::size_t layer, std::size_t iy, const double* x,
                    double* y) const;

  GridShape shape_;
  /// Distance between band starts: the node count padded so that the seven
  /// streams do not start at the same cache-set offset.
  std::size_t stride_ = 0;
  std::vector<double> bands_;
  /// nx zeros standing in for an off-grid neighbour row or plane.
  std::vector<double> zero_row_;
};

}  // namespace aqua
