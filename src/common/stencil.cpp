#include "common/stencil.hpp"

#include <cstdint>

#include "common/error.hpp"

namespace aqua {

namespace {

/// Padding between band starts, in doubles (two cache lines): on the
/// power-of-two grids every band would otherwise begin at the same offset
/// modulo 4 KiB and the seven streams would contend for one L1 set.
constexpr std::size_t kBandPad = 16;

/// `shape`, once it is known to be indexable: runs in the member-init
/// list ahead of every allocation.
GridShape checked(const GridShape& shape) {
  require(shape.indexable(),
          "stencil: grid shape degenerate or over 2^32 nodes");
  return shape;
}

}  // namespace

bool GridShape::indexable() const {
  return nx >= 1 && ny >= 1 && layers >= 1 && nx <= UINT32_MAX / ny &&
         plane() <= UINT32_MAX / layers;
}

StencilMatrix::StencilMatrix(GridShape shape)
    : shape_(checked(shape)),
      stride_(shape.nodes() + kBandPad),
      bands_(kBands * stride_, 0.0),
      zero_row_(shape.nx, 0.0) {}

bool StencilMatrix::has_neighbour(std::size_t node, std::size_t b) const {
  const std::size_t ix = node % shape_.nx;
  const std::size_t iy = (node / shape_.nx) % shape_.ny;
  const std::size_t layer = node / shape_.plane();
  switch (b) {
    case kMinusPlane: return layer > 0;
    case kMinusRow: return iy > 0;
    case kMinusOne: return ix > 0;
    case kDiag: return true;
    case kPlusOne: return ix + 1 < shape_.nx;
    case kPlusRow: return iy + 1 < shape_.ny;
    case kPlusPlane: return layer + 1 < shape_.layers;
    default: return false;
  }
}

std::ptrdiff_t StencilMatrix::offset(std::size_t b) const {
  const auto nx = static_cast<std::ptrdiff_t>(shape_.nx);
  const auto plane = static_cast<std::ptrdiff_t>(shape_.plane());
  const std::ptrdiff_t offsets[kBands] = {-plane, -nx, -1, 0, 1, nx, plane};
  if (b >= kBands) require(false, "stencil: band out of range");
  return offsets[b];
}

void StencilMatrix::multiply_row(std::size_t layer, std::size_t iy,
                                 const double* x, double* y) const {
  const std::size_t nx = shape_.nx;
  const std::size_t plane = shape_.plane();
  const std::size_t base = layer * plane + iy * nx;
  const double* zero = zero_row_.data();
  const double* x_down = layer > 0 ? x + base - plane : zero;
  const double* x_south = iy > 0 ? x + base - nx : zero;
  const double* x_here = x + base;
  const double* x_north = iy + 1 < shape_.ny ? x + base + nx : zero;
  const double* x_up = layer + 1 < shape_.layers ? x + base + plane : zero;
  const double* a = bands_.data() + base;
  const double* a_down = a + kMinusPlane * stride_;
  const double* a_south = a + kMinusRow * stride_;
  const double* a_west = a + kMinusOne * stride_;
  const double* a_diag = a + kDiag * stride_;
  const double* a_east = a + kPlusOne * stride_;
  const double* a_north = a + kPlusRow * stride_;
  const double* a_up = a + kPlusPlane * stride_;
  // One row of the product; `west` / `east` are 0.0 past the row's ends.
  const auto point = [&](std::size_t ix, double west, double east) {
    double acc = 0.0;
    acc += a_down[ix] * x_down[ix];
    acc += a_south[ix] * x_south[ix];
    acc += a_west[ix] * west;
    acc += a_diag[ix] * x_here[ix];
    acc += a_east[ix] * east;
    acc += a_north[ix] * x_north[ix];
    acc += a_up[ix] * x_up[ix];
    return acc;
  };
  if (nx == 1) {
    y[0] = point(0, 0.0, 0.0);
    return;
  }
  y[0] = point(0, 0.0, x_here[1]);
  for (std::size_t ix = 1; ix + 1 < nx; ++ix) {
    y[ix] = point(ix, x_here[ix - 1], x_here[ix + 1]);
  }
  y[nx - 1] = point(nx - 1, x_here[nx - 2], 0.0);
}

void StencilMatrix::multiply(std::span<const double> x,
                             std::span<double> y) const {
  // Hot path (per SpMV): build the error string only on failure.
  if (x.size() != rows() || y.size() != rows()) {
    require(false, "stencil multiply: dimension mismatch");
  }
  for (std::size_t layer = 0; layer < shape_.layers; ++layer) {
    for (std::size_t iy = 0; iy < shape_.ny; ++iy) {
      multiply_row(layer, iy, x.data(),
                   y.data() + layer * shape_.plane() + iy * shape_.nx);
    }
  }
}

std::vector<double> StencilMatrix::diagonal() const {
  const auto d = band(kDiag);
  return {d.begin(), d.end()};
}

}  // namespace aqua
