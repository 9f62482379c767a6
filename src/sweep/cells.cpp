#include "sweep/cells.hpp"

namespace aqua::sweep {

void set_grid_fields(CellConfig& config, const GridOptions& grid) {
  config.set("grid_nx", grid.nx)
      .set("grid_ny", grid.ny)
      .set("solver_tol", grid.solver.tolerance)
      .set("solver_max_iter", grid.solver.max_iterations);
}

CellConfig freq_cap_cell(std::string_view chip, std::size_t chips,
                         std::string_view cooling, double threshold_c,
                         const GridOptions& grid) {
  CellConfig config;
  config.set("sweep", "freq_cap")
      .set("chip", chip)
      .set("chips", chips)
      .set("cooling", cooling)
      .set("threshold_c", threshold_c)
      .set("flip", "none");
  set_grid_fields(config, grid);
  return config;
}

CellConfig npb_des_cell(std::size_t chips, std::size_t cores_per_chip,
                        std::string_view benchmark, double hz,
                        std::uint64_t instructions_per_thread,
                        std::uint64_t seed, bool faulted) {
  CellConfig config;
  // No cooling field, on purpose: the DES run is fully determined by the
  // topology, the workload, the clock and the seed, so cooling options
  // capping at the same frequency dedupe onto one cached run.
  config.set("sweep", "npb_des")
      .set("chips", chips)
      .set("cores_per_chip", cores_per_chip)
      .set("bench", benchmark)
      .set("hz", hz)
      .set("instructions", instructions_per_thread)
      .set("seed", seed)
      .set("faulted", faulted);
  return config;
}

CellConfig htc_cell(std::string_view chip, std::size_t chips, double htc,
                    const GridOptions& grid) {
  CellConfig config;
  config.set("sweep", "htc")
      .set("chip", chip)
      .set("chips", chips)
      .set("htc", htc)
      .set("flip", "none");
  set_grid_fields(config, grid);
  return config;
}

CellConfig rotation_cell(std::string_view chip, std::size_t chips,
                         std::string_view cooling, std::size_t step,
                         double hz, const GridOptions& grid) {
  CellConfig config;
  config.set("sweep", "rotation")
      .set("chip", chip)
      .set("chips", chips)
      .set("cooling", cooling)
      .set("step", step)
      .set("hz", hz);
  set_grid_fields(config, grid);
  return config;
}

}  // namespace aqua::sweep
