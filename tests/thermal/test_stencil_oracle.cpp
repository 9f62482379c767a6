// The thermal operator is written straight into its seven stencil bands,
// and so is every multigrid level. These tests hold both to the general
// assembler they replaced: pairwise COO stamping and the COO Galerkin
// product (tests/support/csr_oracle.hpp). Every level's bands must match
// it bit for bit, under every cooling option's boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/multigrid.hpp"
#include "common/stencil.hpp"
#include "core/cooling.hpp"
#include "power/chip_model.hpp"
#include "support/csr_oracle.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/transient.hpp"

namespace aqua {
namespace {

/// Bitwise band equality: same shape, and every band value equal as a bit
/// pattern (so -0.0 != 0.0 and any rounding difference shows). `want` is
/// the oracle's CSR, which must itself be exactly the 7-point stencil.
::testing::AssertionResult same_bands(const StencilMatrix& got,
                                      const oracle::Csr& want_csr) {
  const StencilMatrix want = oracle::to_stencil(want_csr, got.shape());
  for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
    for (std::size_t r = 0; r < want.rows(); ++r) {
      if (std::bit_cast<std::uint64_t>(got.band(b)[r]) !=
          std::bit_cast<std::uint64_t>(want.band(b)[r])) {
        return ::testing::AssertionFailure()
               << "band " << b << " row " << r << ": " << got.band(b)[r]
               << " vs " << want.band(b)[r];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The pairwise-stamping assembly of StackThermalModel's conductance matrix,
/// boundary terms included.
oracle::Csr stamped_conductance(const Stack3d& stack,
                                 const PackageConfig& package,
                                 const ThermalBoundary& boundary,
                                 std::size_t nx, std::size_t ny) {
  const std::size_t n_die = stack.layer_count();
  const std::size_t n_layers = n_die + 2;
  const std::size_t nodes = n_layers * nx * ny;
  const double dx = stack.width() / static_cast<double>(nx);
  const double dy = stack.height() / static_cast<double>(ny);
  const double cell_area = dx * dy;
  auto node = [&](std::size_t l, std::size_t ix, std::size_t iy) {
    return l * nx * ny + iy * nx + ix;
  };

  struct LayerProps {
    double thickness;
    double k_vertical;
    double k_lateral;
  };
  std::vector<LayerProps> props;
  const double k_die = package.die_material.conductivity.value();
  for (std::size_t i = 0; i < n_die; ++i) {
    props.push_back({package.die_thickness, k_die, k_die});
  }
  const double k_spr = package.spreader_material.conductivity.value();
  props.push_back({package.spreader_thickness, k_spr,
                   k_spr * (package.spreader_width / stack.width())});
  const double sink_ratio = package.heatsink_width / stack.width();
  const double k_sink = package.heatsink_material.conductivity.value();
  props.push_back({package.heatsink_thickness, k_sink,
                   k_sink * sink_ratio * sink_ratio});

  oracle::Coo builder(nodes);
  auto stamp_pair = [&builder](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  for (std::size_t l = 0; l < n_layers; ++l) {
    const LayerProps& p = props[l];
    const double gx = p.k_lateral * p.thickness * dy / dx;
    const double gy = p.k_lateral * p.thickness * dx / dy;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t here = node(l, ix, iy);
        if (ix + 1 < nx) stamp_pair(here, node(l, ix + 1, iy), gx);
        if (iy + 1 < ny) stamp_pair(here, node(l, ix, iy + 1), gy);
      }
    }
  }
  for (std::size_t l = 0; l + 1 < n_layers; ++l) {
    double r = props[l].thickness / (2.0 * props[l].k_vertical) +
               props[l + 1].thickness / (2.0 * props[l + 1].k_vertical);
    if (l + 1 < n_die) {
      r += package.glue_thickness / package.glue_material.conductivity.value();
    } else if (l + 1 == n_die) {
      r += package.tim_thickness / package.tim_material.conductivity.value();
    }
    const double g = cell_area / r;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        stamp_pair(node(l, ix, iy), node(l + 1, ix, iy), g);
      }
    }
  }
  // Boundary conductances per cell, added onto the interior diagonals
  // after every stamp.
  const double ncells = static_cast<double>(nx * ny);
  double top_total;
  if (boundary.coldplate_resistance > 0.0) {
    top_total = 1.0 / boundary.coldplate_resistance;
  } else {
    top_total = boundary.top_htc.value() * package.heatsink_fin_area *
                (boundary.top_coolant_is_gas ? package.gas_fin_efficiency : 1.0);
  }
  const double top_g = top_total / ncells;
  const double a_board = package.board_wetted_area / ncells;
  double r = package.die_thickness /
             (2.0 * package.die_material.conductivity.value() * cell_area);
  r += package.board_thickness /
       (package.board_material.conductivity.value() * a_board);
  if (boundary.film_on_bottom) {
    r += package.film_thickness /
         (package.film_material.conductivity.value() * a_board);
  }
  r += 1.0 / (boundary.bottom_htc.value() * a_board);
  const double bottom_g = 1.0 / r;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t top = node(n_layers - 1, ix, iy);
      const std::size_t bottom = node(0, ix, iy);
      builder.add(top, top, top_g);
      builder.add(bottom, bottom, bottom_g);
    }
  }
  return builder.build();
}

/// The COO Galerkin hierarchy of `levels` levels: 2x2x1 coarsening, each
/// coarse entry the sum of its children's entries.
std::vector<oracle::Csr> coo_hierarchy(const oracle::Csr& fine,
                                       GridShape shape, std::size_t levels) {
  std::vector<oracle::Csr> out{fine};
  while (out.size() < levels) {
    const GridShape coarse{(shape.nx + 1) / 2, (shape.ny + 1) / 2,
                           shape.layers};
    const oracle::Csr& a = out.back();
    std::vector<std::size_t> parent(shape.nodes());
    for (std::size_t l = 0; l < shape.layers; ++l) {
      for (std::size_t iy = 0; iy < shape.ny; ++iy) {
        for (std::size_t ix = 0; ix < shape.nx; ++ix) {
          parent[l * shape.nx * shape.ny + iy * shape.nx + ix] =
              l * coarse.nx * coarse.ny + (iy / 2) * coarse.nx + ix / 2;
        }
      }
    }
    oracle::Coo builder(coarse.nodes());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        builder.add(parent[r], parent[a.col_idx[k]], a.values[k]);
      }
    }
    out.push_back(builder.build());
    shape = coarse;
  }
  return out;
}

/// Every level of `mg` against the COO hierarchy of the oracle `fine`, with
/// as many levels as `mg` built.
::testing::AssertionResult hierarchy_matches(const MultigridPreconditioner& mg,
                                             const oracle::Csr& fine) {
  const std::vector<oracle::Csr> want =
      coo_hierarchy(fine, mg.fine_shape(), mg.level_count());
  for (std::size_t l = 0; l < want.size(); ++l) {
    ::testing::AssertionResult same = same_bands(mg.level_operator(l), want[l]);
    if (!same) return same << " (level " << l << ")";
  }
  return ::testing::AssertionSuccess();
}

struct Grid {
  std::size_t nx;
  std::size_t ny;
};

// Square, the 2x2 minimum, odd / non-square grids whose coarsening clips
// at the edges, and one that coarsens to single-row levels (9x2 -> 5x1).
const Grid kGrids[] = {{32, 32}, {2, 2}, {5, 7}, {17, 9}, {9, 2}};

std::vector<ChipModel> factory_chips() {
  return {make_low_power_cmp(), make_high_frequency_cmp(),
          make_xeon_e5_2667v4(), make_xeon_phi_7290()};
}

GridOptions grid_options(const Grid& grid) {
  GridOptions g;
  g.nx = grid.nx;
  g.ny = grid.ny;
  return g;
}

TEST(StencilOracle, AssemblyAndEveryLevelMatchTheBuilder) {
  const PackageConfig pkg;
  const ThermalBoundary water =
      CoolingOption(CoolingKind::kWaterImmersion).boundary(pkg);
  // Heights 1 and 3, and 15: the tallest stack a figure sweeps (Fig. 8).
  for (const ChipModel& chip : factory_chips()) {
    for (const std::size_t height : {1u, 3u, 15u}) {
      for (const FlipPolicy flip : {FlipPolicy::kNone, FlipPolicy::kFlipEven}) {
        for (const Grid& grid : kGrids) {
          SCOPED_TRACE(chip.name() + " x" + std::to_string(height) + " " +
                       to_string(flip) + " " + std::to_string(grid.nx) + "x" +
                       std::to_string(grid.ny));
          const Stack3d stack(chip.floorplan(), height, flip);
          const StackThermalModel model(stack, pkg, water, grid_options(grid));
          const oracle::Csr stamped =
              stamped_conductance(stack, pkg, water, grid.nx, grid.ny);
          ASSERT_TRUE(same_bands(model.conductance(), stamped));
          const MultigridPreconditioner mg(model.conductance());
          ASSERT_TRUE(hierarchy_matches(mg, stamped));
        }
      }
    }
  }
}

TEST(StencilOracle, EveryCoolingBoundaryMatchesTheBuilder) {
  // The cooling option enters only through the boundary diagonals; a model
  // built under each of the five options, and a hierarchy built on it,
  // must match the oracle under that option's boundary.
  const PackageConfig pkg;
  const ChipModel chip = make_high_frequency_cmp();
  for (const std::size_t height : {3u, 15u}) {
    for (const Grid& grid : kGrids) {
      const Stack3d stack(chip.floorplan(), height, FlipPolicy::kFlipEven);
      for (const CoolingOption& cooling : all_cooling_options()) {
        SCOPED_TRACE("x" + std::to_string(height) + " " +
                     std::to_string(grid.nx) + "x" + std::to_string(grid.ny) +
                     " " + cooling.name());
        const ThermalBoundary boundary = cooling.boundary(pkg);
        const StackThermalModel model(stack, pkg, boundary,
                                      grid_options(grid));
        const oracle::Csr stamped =
            stamped_conductance(stack, pkg, boundary, grid.nx, grid.ny);
        ASSERT_TRUE(same_bands(model.conductance(), stamped));
        const MultigridPreconditioner mg(model.conductance());
        ASSERT_TRUE(hierarchy_matches(mg, stamped));
      }
    }
  }
}

TEST(StencilOracle, SteppingMatrixMatchesTheBuilder) {
  const PackageConfig pkg;
  const ChipModel chip = make_low_power_cmp();
  const Stack3d stack(chip.floorplan(), 3, FlipPolicy::kNone);
  for (const Grid& grid : kGrids) {
    SCOPED_TRACE(std::to_string(grid.nx) + "x" + std::to_string(grid.ny));
    StackThermalModel model(
        stack, pkg, CoolingOption(CoolingKind::kAir).boundary(pkg),
        grid_options(grid));
    TransientOptions options;
    options.dt_seconds = 0.003;
    const TransientSolver solver(model, options);
    const oracle::Csr g = oracle::to_csr(model.conductance());
    oracle::Coo builder(g.rows());
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t k = g.row_ptr[r]; k < g.row_ptr[r + 1]; ++k) {
        builder.add(r, g.col_idx[k], g.values[k]);
      }
      builder.add(r, r, model.capacities()[r] / options.dt_seconds);
    }
    EXPECT_TRUE(same_bands(solver.stepping_matrix(), builder.build()));
  }
}

}  // namespace
}  // namespace aqua
