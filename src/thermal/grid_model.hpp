#pragma once

/// Finite-volume thermal model of a 3-D die stack in its package — the
/// HotSpot-v6.0 substitute (grid mode with stacked layers, per DESIGN.md).
///
/// Geometry (bottom to top):
///   [board/bottom boundary] die_0 | glue | die_1 | ... | die_{N-1}
///   | TIM | spreader | heatsink [top boundary]
///
/// Each die, the spreader and the heatsink are node layers on an nx x ny
/// cell grid; glue and TIM appear as series resistances inside the vertical
/// inter-layer conductances (standard finite-volume compaction — interface
/// layers hold no appreciable heat and need no nodes of their own for the
/// steady state). The spreader and heatsink keep the die footprint in-grid;
/// their larger physical extent enters as a lateral-conductivity boost
/// (they are nearly isothermal in reality) and as the full fin area in the
/// convective boundary term.
///
/// Solver path: the conductance matrix, boundary included, is written once
/// straight into the seven bands of a StencilMatrix, bit-identical to
/// pairwise COO stamping summed in insertion order (the tests' oracle,
/// tests/support/csr_oracle.hpp). The cooling option enters only through
/// the boundary conductances on the top/bottom layer diagonals; a model is
/// built for one boundary and never changes it.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/multigrid.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"
#include "floorplan/stack.hpp"
#include "thermal/package.hpp"

namespace aqua {

/// Which preconditioner drives the steady-state CG solve.
enum class PreconditionerKind {
  kJacobi,     ///< diagonal scaling (reference / tiny grids)
  kMultigrid,  ///< geometric V-cycle over the structured grid (default)
};

/// Discretization and solver options for the grid model.
struct GridOptions {
  std::size_t nx = 32;  ///< cells across the die width
  std::size_t ny = 32;  ///< cells across the die height
  SolverOptions solver{};
  PreconditionerKind preconditioner = PreconditionerKind::kMultigrid;
};

/// The temperature field produced by a solve. All values in deg C.
class ThermalSolution {
 public:
  ThermalSolution(std::size_t nx, std::size_t ny, std::size_t die_layers,
                  std::vector<double> temps_c);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  /// Number of die layers (the stack height N); the spreader and heatsink
  /// fields are at indices N and N+1.
  [[nodiscard]] std::size_t die_layer_count() const { return die_layers_; }
  [[nodiscard]] std::size_t total_layer_count() const { return die_layers_ + 2; }

  /// Cell temperature of layer l at (ix, iy).
  [[nodiscard]] double at(std::size_t layer, std::size_t ix,
                          std::size_t iy) const;

  /// The whole field of one layer (row-major, iy * nx + ix).
  [[nodiscard]] std::vector<double> layer_field(std::size_t layer) const;

  /// Hottest cell across all *die* layers — the quantity the paper's
  /// temperature threshold constrains.
  [[nodiscard]] double max_die_temperature_c() const;

  /// Hottest cell within one layer.
  [[nodiscard]] double layer_max_c(std::size_t layer) const;

  /// Mean temperature of each floorplan block on a die layer (area-weighted
  /// by cell overlap).
  [[nodiscard]] std::vector<double> block_temperatures_c(
      std::size_t layer, const Floorplan& fp) const;

 private:
  std::size_t nx_;
  std::size_t ny_;
  std::size_t die_layers_;
  std::vector<double> temps_c_;  // (die_layers + 2) * nx * ny values
};

/// Steady-state thermal model of one stack + package + boundary.
///
/// Typical use: construct once per (stack, boundary, grid) configuration,
/// then call `solve_steady` with one or more power maps (e.g. across a VFS
/// sweep); the matrix, multigrid hierarchy and heat capacities are reused
/// across those solves, never changing an answer, because every solve
/// starts from x0 = 0. Neither copyable nor movable: the multigrid
/// hierarchy reads the model's matrix in place.
class StackThermalModel {
 public:
  /// Throws, before allocating the grid, unless nx, ny >= 2 and the
  /// (layers + 2) x nx x ny node count fits the stencil's 32-bit limit.
  StackThermalModel(const Stack3d& stack, const PackageConfig& package,
                    const ThermalBoundary& boundary, GridOptions options = {});
  StackThermalModel(const StackThermalModel&) = delete;
  StackThermalModel& operator=(const StackThermalModel&) = delete;

  /// Solves G T = P for the given per-layer, per-block powers [W].
  /// `layer_block_powers[l]` must match the block count of stack layer l.
  [[nodiscard]] ThermalSolution solve_steady(
      const std::vector<std::vector<double>>& layer_block_powers);

  /// Same but taking one power map shared by every die layer.
  [[nodiscard]] ThermalSolution solve_steady_uniform(
      const std::vector<double>& block_powers);

  [[nodiscard]] const Stack3d& stack() const { return stack_; }
  [[nodiscard]] const PackageConfig& package() const { return package_; }
  [[nodiscard]] const ThermalBoundary& boundary() const { return boundary_; }
  [[nodiscard]] const GridOptions& options() const { return options_; }

  /// The assembled conductance matrix (for tests / diagnostics).
  [[nodiscard]] const StencilMatrix& conductance() const { return matrix_; }

  /// Grid topology of the assembled system (die layers + spreader +
  /// heatsink on the nx x ny plane) — what the multigrid coarsening needs.
  [[nodiscard]] GridShape grid_shape() const {
    return {options_.nx, options_.ny, stack_.layer_count() + 2};
  }

  /// Per-node heat capacity [J/K] (used by the transient solver).
  [[nodiscard]] const std::vector<double>& capacities() const {
    return capacities_;
  }

  /// Builds the RHS power vector [W per node] from per-layer block powers.
  [[nodiscard]] std::vector<double> power_vector(
      const std::vector<std::vector<double>>& layer_block_powers) const;

  /// How the stack's heat leaves through each boundary path [W]. In steady
  /// state top_w + bottom_w equals the injected power (energy
  /// conservation) — the split is the evidence for the double-sided
  /// immersion mechanism (DESIGN.md Section 2).
  struct BoundaryFlux {
    double top_w = 0.0;     ///< heatsink / cold-plate path
    double bottom_w = 0.0;  ///< board(+film) path
    [[nodiscard]] double total() const { return top_w + bottom_w; }
  };
  [[nodiscard]] BoundaryFlux boundary_flux(
      const ThermalSolution& solution) const;

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  /// Statistics of the most recent solve.
  [[nodiscard]] const SolveResult& last_solve() const { return last_solve_; }

 private:
  void assemble();
  [[nodiscard]] const Preconditioner* preconditioner();

  [[nodiscard]] std::size_t node(std::size_t layer, std::size_t ix,
                                 std::size_t iy) const {
    return layer * options_.nx * options_.ny + iy * options_.nx + ix;
  }

  Stack3d stack_;
  PackageConfig package_;
  ThermalBoundary boundary_;
  GridOptions options_;

  std::size_t node_count_ = 0;
  StencilMatrix matrix_;
  std::vector<double> capacities_;
  SolveResult last_solve_;

  // Multigrid hierarchy, built on the first multigrid solve.
  std::unique_ptr<MultigridPreconditioner> multigrid_;

  // Per-cell conductances of the two ambient boundaries (uniform).
  double top_g_per_cell_ = 0.0;
  double bottom_g_per_cell_ = 0.0;
};

}  // namespace aqua
