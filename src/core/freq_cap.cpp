#include "core/freq_cap.hpp"

#include <chrono>

#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace aqua {

MaxFrequencyFinder::MaxFrequencyFinder(ChipModel chip, PackageConfig package,
                                       double threshold_c, GridOptions grid)
    : chip_(std::move(chip)),
      package_(package),
      threshold_c_(threshold_c),
      grid_(grid) {
  require(threshold_c_ > package_.ambient_c,
          "threshold must exceed the ambient temperature");
}

StackThermalModel MaxFrequencyFinder::build_model(
    std::size_t chips, const CoolingOption& cooling, FlipPolicy flip) const {
  return StackThermalModel(Stack3d(chip_.floorplan(), chips, flip), package_,
                           cooling.boundary(package_), grid_);
}

namespace {

/// Per-layer block powers for a homogeneous stack (each layer gets the chip
/// power map expressed in its own — possibly rotated — floorplan).
std::vector<std::vector<double>> stack_powers(const ChipModel& chip,
                                              const Stack3d& stack,
                                              Hertz f) {
  std::vector<std::vector<double>> powers;
  powers.reserve(stack.layer_count());
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), f));
  }
  return powers;
}

}  // namespace

FrequencyCap MaxFrequencyFinder::find(std::size_t chips,
                                      const CoolingOption& cooling,
                                      FlipPolicy flip) const {
  AQUA_TRACE_SCOPE_ARG("freq_cap.find", "thermal", chips);
  const auto find_start = std::chrono::steady_clock::now();
  StackThermalModel model = build_model(chips, cooling, flip);
  const VfsLadder& ladder = chip_.ladder();
  const std::size_t top = ladder.size() - 1;

  // Stage attribution for the run report: the power-model evaluation
  // (McPAT stand-in) vs. the thermal solve (HotSpot stand-in).
  double power_seconds = 0.0;
  std::vector<std::vector<double>> powers;
  {
    AQUA_TRACE_SCOPE_ARG("power.block_powers", "power", top);
    const auto t0 = std::chrono::steady_clock::now();
    powers = stack_powers(chip_, model.stack(), ladder.step(top));
    power_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  }
  const double t_top = model.solve_steady(powers).max_die_temperature_c();

  // Superposition: the temperature rise is linear in a power map that is a
  // scalar multiple of the top step's, so each step's peak is the top
  // step's rise scaled by the power ratio. Walk down to the highest step
  // under the threshold; if even the lowest step fails, the configuration
  // is infeasible (the paper's "cannot be drawn" points).
  const double ambient_c = model.boundary().ambient_c;
  const double top_power = chip_.total_power(ladder.step(top)).value();
  FrequencyCap cap;
  std::size_t step = top;
  cap.max_temperature_c = t_top;
  while (cap.max_temperature_c > threshold_c_ && step > 0) {
    --step;
    cap.max_temperature_c =
        ambient_c + chip_.total_power(ladder.step(step)).value() / top_power *
                        (t_top - ambient_c);
  }
  cap.feasible = cap.max_temperature_c <= threshold_c_;
  if (cap.feasible) {
    cap.step_index = step;
    cap.frequency = ladder.step(step);
    cap.chip_power = chip_.total_power(cap.frequency);
    cap.total_power = cap.chip_power * static_cast<double>(chips);
  }

  // Per-stage timings and the cap decision, recorded when reporting is on
  // (AQUA_METRICS / AQUA_RUN_REPORT). "power" covers the power-model
  // evaluation, "thermal" the solve and the ladder walk — together the
  // find() wall time.
  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) {
    const double total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      find_start)
            .count();
    report.emit("stage", [&](obs::JsonWriter& w) {
      w.add("stage", "power")
          .add("op", "freq_cap.block_powers")
          .add("chips", static_cast<std::uint64_t>(chips))
          .add("steps", std::uint64_t{1})
          .add("seconds", power_seconds);
    });
    report.emit("stage", [&](obs::JsonWriter& w) {
      w.add("stage", "thermal")
          .add("op", "freq_cap.solve")
          .add("chips", static_cast<std::uint64_t>(chips))
          .add("steps", std::uint64_t{1})
          .add("seconds", total_seconds - power_seconds);
    });
    report.emit("freq_cap", [&](obs::JsonWriter& w) {
      w.add("chips", static_cast<std::uint64_t>(chips))
          .add("cooling", to_string(cooling.kind()))
          .add("feasible", cap.feasible)
          .add("ghz", cap.frequency.gigahertz())
          .add("max_temperature_c", cap.max_temperature_c)
          .add("seconds", total_seconds);
    });
  }
  return cap;
}

double MaxFrequencyFinder::temperature_at(std::size_t chips,
                                          const CoolingOption& cooling,
                                          Hertz f, FlipPolicy flip) const {
  return solve_at(chips, cooling, f, flip).max_die_temperature_c();
}

ThermalSolution MaxFrequencyFinder::solve_at(std::size_t chips,
                                             const CoolingOption& cooling,
                                             Hertz f,
                                             FlipPolicy flip) const {
  StackThermalModel model = build_model(chips, cooling, flip);
  return model.solve_steady(stack_powers(chip_, model.stack(), f));
}

}  // namespace aqua
