/// Scenario runner: drive a full co-simulation from an INI file — the
/// no-recompile interface for parameter studies.
///
///   $ cat > /tmp/scenario.ini <<'END'
///   [experiment]
///   chip      = high_frequency   # low_power | high_frequency | e5 | phi
///   chips     = 4
///   threshold = 80
///   flip      = false
///   workload  = cg               # any NPB name, or "none" for thermal-only
///   scale     = 0.1
///
///   [thermal]
///   grid = 32
///   maps = /tmp/maps             # optional: write per-layer PPM images
///   END
///   $ ./build/examples/scenario_runner /tmp/scenario.ini

#include <fstream>
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/cosim.hpp"
#include "floorplan/stack.hpp"
#include "power/chip_model.hpp"
#include "thermal/thermal_map.hpp"

namespace {

aqua::ChipModel chip_by_name(const std::string& name) {
  if (name == "low_power") return aqua::make_low_power_cmp();
  if (name == "high_frequency") return aqua::make_high_frequency_cmp();
  if (name == "e5") return aqua::make_xeon_e5_2667v4();
  if (name == "phi") return aqua::make_xeon_phi_7290();
  throw aqua::Error("unknown chip '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqua;
  if (argc != 2) {
    std::cerr << "usage: scenario_runner <scenario.ini>\n";
    return 1;
  }
  std::ifstream file(argv[1]);
  if (!file) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 1;
  }

  try {
    const Config cfg = Config::parse(file);
    const ChipModel chip =
        chip_by_name(cfg.get_string("experiment", "chip", "high_frequency"));
    const std::int64_t chips_in = cfg.get_int("experiment", "chips", 4);
    if (chips_in < 1 ||
        chips_in > static_cast<std::int64_t>(kMaxStackChips)) {
      throw Error("[experiment] chips must be in [1, " +
                  std::to_string(kMaxStackChips) + "]");
    }
    const auto chips = static_cast<std::size_t>(chips_in);
    const double threshold = cfg.get_double("experiment", "threshold", 80.0);
    const FlipPolicy flip = cfg.get_bool("experiment", "flip", false)
                                ? FlipPolicy::kFlipEven
                                : FlipPolicy::kNone;
    const std::int64_t grid_in = cfg.get_int("thermal", "grid", 32);
    if (grid_in < static_cast<std::int64_t>(kMinGridCells) ||
        grid_in > static_cast<std::int64_t>(kMaxGridCells)) {
      throw Error("[thermal] grid must be in [" +
                  std::to_string(kMinGridCells) + ", " +
                  std::to_string(kMaxGridCells) + "]");
    }
    GridOptions grid;
    grid.nx = grid.ny = static_cast<std::size_t>(grid_in);
    const std::string workload =
        cfg.get_string("experiment", "workload", "none");
    WorkloadProfile p;
    if (workload != "none") {
      p = npb_profile(workload);
      const double scale = cfg.get_double("experiment", "scale", 0.1);
      const double scaled =
          static_cast<double>(p.instructions_per_thread) * scale;
      // The negated comparison also rejects NaN.
      if (!(scale > 0.0 && scaled >= 1.0 &&
            scaled <= static_cast<double>(kMaxInstructionsPerThread))) {
        throw Error("[experiment] scale must be > 0 and give 1 to " +
                    std::to_string(kMaxInstructionsPerThread) +
                    " instructions per thread");
      }
      p.instructions_per_thread = static_cast<std::uint64_t>(scaled);
    }

    std::cout << "scenario: " << chips << " x " << chip.name() << ", "
              << threshold << " C threshold, flip="
              << (flip == FlipPolicy::kFlipEven ? "even" : "none") << "\n\n";

    MaxFrequencyFinder finder(chip, PackageConfig{}, threshold, grid);
    Table caps({"cooling", "GHz", "peak_C", "stack_W"});
    for (const CoolingOption& cooling : all_cooling_options()) {
      const FrequencyCap cap = finder.find(chips, cooling, flip);
      caps.row().add(cooling.name());
      if (cap.feasible) {
        caps.add(cap.frequency.gigahertz(), 1)
            .add(cap.max_temperature_c, 1)
            .add(cap.total_power.value(), 1);
      } else {
        caps.add_missing().add(cap.max_temperature_c, 1).add_missing();
      }
    }
    caps.print(std::cout);

    // Optional per-layer heat images of the water configuration.
    if (cfg.has("thermal", "maps")) {
      const std::string dir = cfg.get_string("thermal", "maps");
      const ThermalSolution sol = finder.solve_at(
          chips, CoolingOption(CoolingKind::kWaterImmersion),
          chip.max_frequency(), flip);
      for (std::size_t l = 0; l < sol.die_layer_count(); ++l) {
        const std::string path =
            dir + "/layer" + std::to_string(l + 1) + ".ppm";
        std::ofstream img(path, std::ios::binary);
        if (!img) throw Error("cannot write " + path);
        write_layer_ppm(img, sol, l);
        std::cout << "wrote " << path << "\n";
      }
    }

    // Optional full-system run under the best coolant.
    if (workload != "none") {
      CoSimulator cosim(chip, PackageConfig{}, threshold, CmpConfig{}, grid);
      std::cout << "\nworkload '" << workload << "' ("
                << chips * CmpConfig{}.cores_per_chip << " threads):\n";
      Table runs({"cooling", "GHz", "ms", "IPC", "L1_hit"});
      for (CoolingKind kind :
           {CoolingKind::kWaterPipe, CoolingKind::kMineralOil,
            CoolingKind::kWaterImmersion}) {
        const CoSimResult r =
            cosim.run(chips, CoolingOption(kind), p, 1, flip);
        runs.row().add(to_string(kind));
        if (r.exec.has_value()) {
          runs.add(r.cap.frequency.gigahertz(), 1)
              .add(r.exec->seconds * 1e3, 2)
              .add(r.exec->ipc(), 2)
              .add(r.exec->l1_hit_rate(), 3);
        } else {
          runs.add_missing().add_missing().add_missing().add_missing();
        }
      }
      runs.print(std::cout);
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.message() << "\n";
    return 1;
  }
}
