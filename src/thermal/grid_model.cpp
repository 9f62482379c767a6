#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace aqua {

ThermalSolution::ThermalSolution(std::size_t nx, std::size_t ny,
                                 std::size_t die_layers,
                                 std::vector<double> temps_c)
    : nx_(nx), ny_(ny), die_layers_(die_layers), temps_c_(std::move(temps_c)) {
  require(temps_c_.size() == (die_layers_ + 2) * nx_ * ny_,
          "thermal solution size mismatch");
}

double ThermalSolution::at(std::size_t layer, std::size_t ix,
                           std::size_t iy) const {
  // Hot path (per cell in boundary_flux / block_temperatures_c): build the
  // error string only on failure.
  if (layer >= total_layer_count() || ix >= nx_ || iy >= ny_) {
    require(false, "thermal solution index out of range");
  }
  return temps_c_[layer * nx_ * ny_ + iy * nx_ + ix];
}

std::vector<double> ThermalSolution::layer_field(std::size_t layer) const {
  require(layer < total_layer_count(), "layer out of range");
  const auto begin = temps_c_.begin() + static_cast<std::ptrdiff_t>(layer * nx_ * ny_);
  return std::vector<double>(begin, begin + static_cast<std::ptrdiff_t>(nx_ * ny_));
}

double ThermalSolution::max_die_temperature_c() const {
  double best = -1e300;
  for (std::size_t l = 0; l < die_layers_; ++l) {
    best = std::max(best, layer_max_c(l));
  }
  return best;
}

double ThermalSolution::layer_max_c(std::size_t layer) const {
  require(layer < total_layer_count(), "layer out of range");
  const std::size_t base = layer * nx_ * ny_;
  double best = -1e300;
  for (std::size_t i = 0; i < nx_ * ny_; ++i) {
    best = std::max(best, temps_c_[base + i]);
  }
  return best;
}

std::vector<double> ThermalSolution::block_temperatures_c(
    std::size_t layer, const Floorplan& fp) const {
  require(layer < total_layer_count(), "layer out of range");
  const double dx = fp.width() / static_cast<double>(nx_);
  const double dy = fp.height() / static_cast<double>(ny_);
  std::vector<double> acc(fp.block_count(), 0.0);
  std::vector<double> weight(fp.block_count(), 0.0);
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const Rect cell{static_cast<double>(ix) * dx,
                      static_cast<double>(iy) * dy, dx, dy};
      const double t = at(layer, ix, iy);
      for (std::size_t b = 0; b < fp.block_count(); ++b) {
        const double a = fp.blocks()[b].rect.overlap_area(cell);
        if (a > 0.0) {
          acc[b] += t * a;
          weight[b] += a;
        }
      }
    }
  }
  for (std::size_t b = 0; b < fp.block_count(); ++b) {
    ensure(weight[b] > 0.0, "block has no cell coverage");
    acc[b] /= weight[b];
  }
  return acc;
}

StackThermalModel::StackThermalModel(const Stack3d& stack,
                                     const PackageConfig& package,
                                     const ThermalBoundary& boundary,
                                     GridOptions options)
    : stack_(stack),
      package_(package),
      boundary_(boundary),
      options_(options) {
  require(options_.nx >= 2 && options_.ny >= 2, "grid must be at least 2x2");
  require(grid_shape().indexable(), "grid too large to index");
  assemble();
}

void StackThermalModel::assemble() {
  AQUA_TRACE_SCOPE_ARG("thermal.assemble", "thermal",
                       stack_.layer_count());
  const std::size_t nx = options_.nx;
  const std::size_t ny = options_.ny;
  const std::size_t n_die = stack_.layer_count();
  const std::size_t n_layers = n_die + 2;  // + spreader + heatsink
  node_count_ = n_layers * nx * ny;
  const std::size_t ncells = nx * ny;

  const double dx = stack_.width() / static_cast<double>(nx);
  const double dy = stack_.height() / static_cast<double>(ny);
  const double cell_area = dx * dy;

  // Per node-layer: thickness, vertical conductivity, effective lateral
  // conductivity. The spreader/heatsink lateral boosts stand in for their
  // physical extent beyond the die footprint (they are nearly isothermal
  // plates); the boost equals the width ratio (spreader) and its square
  // (heatsink base + fin mass).
  struct LayerProps {
    double thickness;
    double k_vertical;
    double k_lateral;
    double heat_capacity;  // volumetric [J/(m^3 K)]
  };
  std::vector<LayerProps> props;
  props.reserve(n_layers);
  const double k_die = package_.die_material.conductivity.value();
  for (std::size_t i = 0; i < n_die; ++i) {
    props.push_back({package_.die_thickness, k_die, k_die,
                     package_.die_material.heat_capacity.value()});
  }
  const double spreader_boost = package_.spreader_width / stack_.width();
  const double k_spr = package_.spreader_material.conductivity.value();
  props.push_back({package_.spreader_thickness, k_spr,
                   k_spr * spreader_boost,
                   package_.spreader_material.heat_capacity.value()});
  const double sink_ratio = package_.heatsink_width / stack_.width();
  const double k_sink = package_.heatsink_material.conductivity.value();
  props.push_back({package_.heatsink_thickness, k_sink,
                   k_sink * sink_ratio * sink_ratio,
                   package_.heatsink_material.heat_capacity.value()});

  std::vector<double> gx(n_layers);
  std::vector<double> gy(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const LayerProps& p = props[l];
    gx[l] = p.k_lateral * p.thickness * dy / dx;
    gy[l] = p.k_lateral * p.thickness * dx / dy;
  }

  // Vertical inter-layer conductances (per cell column). Interface layers
  // (glue between dies, TIM under the spreader) enter as series terms.
  auto vertical_g = [&](std::size_t lower, double interface_t,
                        double interface_k) {
    const LayerProps& a = props[lower];
    const LayerProps& b = props[lower + 1];
    double r = a.thickness / (2.0 * a.k_vertical) +
               b.thickness / (2.0 * b.k_vertical);
    if (interface_t > 0.0) r += interface_t / interface_k;
    return cell_area / r;
  };

  std::vector<double> gv(n_layers - 1);
  for (std::size_t l = 0; l + 1 < n_layers; ++l) {
    double it = 0.0;
    double ik = 1.0;
    if (l + 1 < n_die) {  // die -> die
      it = package_.glue_thickness;
      ik = package_.glue_material.conductivity.value();
    } else if (l + 1 == n_die) {  // top die -> spreader
      it = package_.tim_thickness;
      ik = package_.tim_material.conductivity.value();
    }  // spreader -> heatsink: direct contact
    gv[l] = vertical_g(l, it, ik);
  }

  // Top boundary: heatsink cells -> ambient. Either convection over the
  // full fin area or the water-pipe cold plate's fixed resistance, shared
  // equally across cells (the sink is near-isothermal).
  double total_g;
  if (boundary_.coldplate_resistance > 0.0) {
    total_g = 1.0 / boundary_.coldplate_resistance;
  } else {
    const double fin_area =
        package_.heatsink_fin_area *
        (boundary_.top_coolant_is_gas ? package_.gas_fin_efficiency : 1.0);
    total_g = boundary_.top_htc.value() * fin_area;
  }
  top_g_per_cell_ = total_g / static_cast<double>(ncells);

  // Bottom boundary: bottom die -> board [-> film] -> convection over the
  // wetted board area. The board's copper planes spread the heat beyond
  // the die footprint, so the slab, film and convection terms act over the
  // wetted board area (shared per cell), while the die half-thickness
  // keeps the cell footprint.
  const double a_cell_board =
      package_.board_wetted_area / static_cast<double>(ncells);
  double r = package_.die_thickness /
             (2.0 * package_.die_material.conductivity.value() * cell_area);
  r += package_.board_thickness /
       (package_.board_material.conductivity.value() * a_cell_board);
  if (boundary_.film_on_bottom) {
    r += package_.film_thickness /
         (package_.film_material.conductivity.value() * a_cell_board);
  }
  r += 1.0 / (boundary_.bottom_htc.value() * a_cell_board);
  bottom_g_per_cell_ = 1.0 / r;

  // The 7-point stencil's bands (-plane, -nx, -1, diag, +1, +nx, +plane).
  // Each diagonal sums its terms from 0.0 in the order pairwise stamping
  // adds them (lateral pairs by ascending node, then vertical pairs by
  // ascending layer, then the ambient boundary), so the matrix is
  // bit-identical to a COO assembly that sums duplicates in insertion
  // order. Off-grid neighbours keep their +0.0.
  const std::size_t sink = n_layers - 1;
  matrix_ = StencilMatrix(grid_shape());
  using Band = StencilMatrix::Band;
  const auto down = matrix_.band(Band::kMinusPlane);
  const auto south = matrix_.band(Band::kMinusRow);
  const auto west = matrix_.band(Band::kMinusOne);
  const auto center = matrix_.band(Band::kDiag);
  const auto east = matrix_.band(Band::kPlusOne);
  const auto north = matrix_.band(Band::kPlusRow);
  const auto up = matrix_.band(Band::kPlusPlane);
  capacities_.assign(node_count_, 0.0);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const double cap = props[l].heat_capacity * props[l].thickness * cell_area;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t here = node(l, ix, iy);
        capacities_[here] = cap;
        double diag = 0.0;
        if (iy > 0) diag += gy[l];
        if (ix > 0) diag += gx[l];
        if (ix + 1 < nx) diag += gx[l];
        if (iy + 1 < ny) diag += gy[l];
        if (l > 0) diag += gv[l - 1];
        if (l < sink) diag += gv[l];
        if (l == 0) diag += bottom_g_per_cell_;
        if (l == sink) diag += top_g_per_cell_;

        if (l > 0) down[here] = -gv[l - 1];
        if (iy > 0) south[here] = -gy[l];
        if (ix > 0) west[here] = -gx[l];
        center[here] = diag;
        if (ix + 1 < nx) east[here] = -gx[l];
        if (iy + 1 < ny) north[here] = -gy[l];
        if (l < sink) up[here] = -gv[l];
      }
    }
  }
}

std::vector<double> StackThermalModel::power_vector(
    const std::vector<std::vector<double>>& layer_block_powers) const {
  require(layer_block_powers.size() == stack_.layer_count(),
          "need one power map per die layer");
  std::vector<double> rhs(node_count_, 0.0);
  for (std::size_t l = 0; l < stack_.layer_count(); ++l) {
    const Floorplan& fp = stack_.layer(l);
    require(layer_block_powers[l].size() == fp.block_count(),
            "power map size mismatch on layer " + std::to_string(l));
    const std::vector<double> cells =
        fp.rasterize(options_.nx, options_.ny, layer_block_powers[l]);
    const std::size_t base = l * options_.nx * options_.ny;
    for (std::size_t i = 0; i < cells.size(); ++i) rhs[base + i] = cells[i];
  }
  return rhs;
}

ThermalSolution StackThermalModel::solve_steady(
    const std::vector<std::vector<double>>& layer_block_powers) {
  AQUA_TRACE_SCOPE_ARG("thermal.solve_steady", "thermal",
                       stack_.layer_count());
  const std::vector<double> rhs = power_vector(layer_block_powers);
  // Spectral CG from zero, never from an earlier solution. A solve that
  // breaks down or misses its tolerance throws, failing the caller's cell
  // (DESIGN.md §8).
  if (!spectral_) spectral_ = std::make_unique<SpectralPreconditioner>(matrix_);
  last_solve_ = solve_cg(matrix_, rhs, options_.solver, spectral_.get());
  ensure(last_solve_.converged, "steady-state thermal solve did not converge");

  std::vector<double> temps = last_solve_.x;
  for (double& t : temps) t += boundary_.ambient_c;
  return ThermalSolution(options_.nx, options_.ny, stack_.layer_count(),
                         std::move(temps));
}

StackThermalModel::BoundaryFlux StackThermalModel::boundary_flux(
    const ThermalSolution& solution) const {
  require(solution.nx() == options_.nx && solution.ny() == options_.ny &&
              solution.die_layer_count() == stack_.layer_count(),
          "solution does not match this model's discretization");
  BoundaryFlux flux;
  const double ambient = boundary_.ambient_c;
  const std::size_t sink = solution.total_layer_count() - 1;
  for (std::size_t iy = 0; iy < options_.ny; ++iy) {
    for (std::size_t ix = 0; ix < options_.nx; ++ix) {
      flux.top_w += top_g_per_cell_ * (solution.at(sink, ix, iy) - ambient);
      flux.bottom_w +=
          bottom_g_per_cell_ * (solution.at(0, ix, iy) - ambient);
    }
  }
  return flux;
}

ThermalSolution StackThermalModel::solve_steady_uniform(
    const std::vector<double>& block_powers) {
  std::vector<std::vector<double>> per_layer(stack_.layer_count(),
                                             block_powers);
  return solve_steady(per_layer);
}

}  // namespace aqua
