#include "core/coupled.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua {

CoupledResult solve_coupled(const ChipModel& chip, std::size_t chips,
                            const CoolingOption& cooling, Hertz f,
                            const PackageConfig& package, FlipPolicy flip,
                            const CoupledOptions& options) {
  const Stack3d stack(chip.floorplan(), chips, flip);
  StackThermalModel model(stack, package, cooling.boundary(package),
                          options.grid);

  // Reference (worst-case) block powers: static part rated at the leakage
  // model's reference temperature.
  std::vector<std::vector<double>> reference;
  reference.reserve(chips);
  for (std::size_t l = 0; l < chips; ++l) {
    reference.push_back(chip.block_powers(stack.layer(l), f));
  }

  CoupledResult result;
  result.worst_case_power =
      chip.total_power(f) * static_cast<double>(chips);

  // Worst-case solve for comparison.
  {
    const ThermalSolution sol = model.solve_steady(reference);
    result.worst_case_temperature_c = sol.max_die_temperature_c();
  }

  // Fixed-point loop: block temperatures -> leakage-adjusted block powers.
  std::vector<std::vector<double>> block_temps(chips);
  for (std::size_t l = 0; l < chips; ++l) {
    block_temps[l].assign(stack.layer(l).block_count(),
                          options.leakage.reference_c);
  }

  const double dyn = chip.dynamic_fraction();
  std::vector<std::vector<double>> powers = reference;
  for (std::size_t it = 1; it <= options.max_iterations; ++it) {
    result.iterations = it;
    for (std::size_t l = 0; l < chips; ++l) {
      for (std::size_t b = 0; b < powers[l].size(); ++b) {
        powers[l][b] = leakage_adjusted_power(
            reference[l][b], dyn, options.leakage, block_temps[l][b]);
      }
    }
    const ThermalSolution sol = model.solve_steady(powers);
    result.max_temperature_c = sol.max_die_temperature_c();
    if (result.max_temperature_c > options.runaway_c) {
      result.converged = false;  // electrothermal runaway
      return result;
    }

    double worst_change = 0.0;
    for (std::size_t l = 0; l < chips; ++l) {
      const std::vector<double> temps =
          sol.block_temperatures_c(l, stack.layer(l));
      for (std::size_t b = 0; b < temps.size(); ++b) {
        worst_change =
            std::max(worst_change, std::fabs(temps[b] - block_temps[l][b]));
        block_temps[l][b] = temps[b];
      }
    }
    if (worst_change <= options.tolerance_c) {
      result.converged = true;
      break;
    }
  }

  double total = 0.0;
  for (const auto& layer : powers) {
    for (double p : layer) total += p;
  }
  result.total_power = Watts(total);
  return result;
}

}  // namespace aqua
