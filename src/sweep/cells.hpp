#pragma once

/// Canonical cell-key builders for the paper's sweep families (DESIGN.md
/// §9). All the Fig. 7-13 drivers — and anything else that wants to share
/// their cached results — must build keys through these functions so one
/// physical computation always maps to one canonical key:
///
///   * freq_cap_cell:  one thermal frequency-cap search (Figs. 1/7/8/17,
///     and the per-cooling cap rows of Figs. 10-13). Keyed on the chip,
///     stack height, cooling option, threshold and the full discretization
///     so Fig. 7/8 sweep cells and NPB cap cells dedupe through the cache.
///   * npb_des_cell:   one deterministic DES run (Figs. 10-13). The key
///     deliberately omits the cooling option: a DES run depends only on
///     the topology, workload, clock and seed, so two cooling options that
///     cap at the same frequency share a single cached run.
///   * htc_cell:       one steady solve of the Fig. 14 coefficient sweep.
///   * rotation_cell:  one flip/no-flip temperature pair of Figs. 15/16.
///
/// Every optional knob is materialized with its default here, so a caller
/// passing GridOptions{} and one spelling out nx=32,ny=32,... produce
/// byte-identical canonical forms.

#include <cstdint>
#include <string_view>

#include "sweep/cell_key.hpp"
#include "thermal/grid_model.hpp"

namespace aqua::sweep {

/// Materializes the discretization fields every thermal cell carries.
void set_grid_fields(CellConfig& config, const GridOptions& grid);

CellConfig freq_cap_cell(std::string_view chip, std::size_t chips,
                         std::string_view cooling, double threshold_c,
                         const GridOptions& grid);

CellConfig npb_des_cell(std::size_t chips, std::size_t cores_per_chip,
                        std::string_view benchmark, double hz,
                        std::uint64_t instructions_per_thread,
                        std::uint64_t seed, bool faulted);

CellConfig htc_cell(std::string_view chip, std::size_t chips, double htc,
                    const GridOptions& grid);

CellConfig rotation_cell(std::string_view chip, std::size_t chips,
                         std::string_view cooling, std::size_t step,
                         double hz, const GridOptions& grid);

}  // namespace aqua::sweep
