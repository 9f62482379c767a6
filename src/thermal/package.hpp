#pragma once

/// Package geometry and boundary conditions for the stacked-die thermal
/// model — the C++ rendering of the paper's Table 2.

#include "common/units.hpp"
#include "thermal/material.hpp"

namespace aqua {

/// Table 2 package description plus the die/board constants the grid model
/// needs. All lengths in meters.
struct PackageConfig {
  // Dies. 300 um: TCI (inductive-coupling) stacks do not need the extreme
  // thinning TSVs do, and the silicon body provides the lateral spreading
  // visible in the paper's thermal maps (Fig. 9: modest core/L2 contrast).
  double die_thickness = 300e-6;
  Material die_material = silicon();

  // Inter-die bond (glue + TSV/TCI fill; see material.hpp note).
  double glue_thickness = 20e-6;
  Material glue_material = interdie_glue();

  // Die -> spreader interface (Table 2 TIM: 20 um; composite conductivity,
  // see material.hpp).
  double tim_thickness = 20e-6;
  Material tim_material = tim_composite();

  // Heat spreader (Table 2: 6x6x0.1 cm, 400 W/mK).
  double spreader_thickness = 1.0e-3;
  double spreader_width = 60e-3;
  Material spreader_material = copper();

  // Heatsink (Table 2: 12x12x3 cm, 400 W/mK, 0.3024 m^2 wetted fin area).
  double heatsink_thickness = 30e-3;
  double heatsink_width = 120e-3;
  double heatsink_fin_area = 0.3024;
  Material heatsink_material = copper();
  /// Fin effectiveness under natural gas convection: the thick air boundary
  /// layers choke the 2 mm fin channels, so only a fraction of the fin area
  /// works at h_air = 14 W/m^2K. Liquids (thin boundary layers) keep the
  /// full area. Calibration constant, see DESIGN.md Section 5.
  double gas_fin_efficiency = 0.33;

  // Parylene insulation film (Table 2: 120 um, 0.14 W/mK). Coats the board
  // side of an immersed assembly; the film over each heat-spreader face is
  // broken and replaced by TIM + heatsink (paper Section 2.1), so the film
  // is *not* in the primary top path.
  double film_thickness = 120e-6;
  Material film_material = parylene();

  // Printed circuit board under the bottom die (copper-plane composite).
  double board_thickness = 1.6e-3;
  Material board_material = pcb_composite();
  /// Wetted board area participating in the secondary (bottom) heat path.
  double board_wetted_area = 0.05;

  // Environment (Table 2: outside temperature 25 C).
  double ambient_c = 25.0;
};

/// Boundary conditions produced by a cooling option (core/cooling.hpp) and
/// consumed by the grid model. Two parallel paths:
///
///   top:    stack -> TIM -> spreader -> heatsink -> {convection h*A_fins
///           OR a cold-plate of fixed resistance (water-pipe mode)}
///   bottom: bottom die -> board [-> parylene film] -> convection h*A_board
///
/// Immersion options supply a large h on BOTH paths (the coolant touches
/// the fins and the coated board); air and water-pipe only get the weak
/// natural-convection air path at the bottom. This double-sided contact is
/// the mechanism that lets immersion carry tall stacks (DESIGN.md
/// Section 2).
struct ThermalBoundary {
  /// Convective coefficient at the heatsink fins; ignored when
  /// `coldplate_resistance` is set.
  HeatTransferCoefficient top_htc{14.0};
  /// True when the top coolant is a gas (applies gas_fin_efficiency).
  bool top_coolant_is_gas = true;
  /// If > 0, the heatsink is replaced by a closed-loop liquid cold plate of
  /// this total thermal resistance to ambient [K/W] (water-pipe mode).
  double coldplate_resistance = 0.0;

  /// Convective coefficient at the (possibly film-coated) board face.
  HeatTransferCoefficient bottom_htc{14.0};
  /// True when the bottom path crosses the parylene film (immersed boards).
  bool film_on_bottom = false;

  double ambient_c = 25.0;
};

}  // namespace aqua
