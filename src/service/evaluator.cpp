#include "service/evaluator.hpp"

#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "core/cooling.hpp"
#include "core/experiments.hpp"
#include "floorplan/stack.hpp"
#include "perf/params.hpp"
#include "perf/workload.hpp"
#include "power/chip_model.hpp"
#include "sweep/cells.hpp"
#include "thermal/grid_model.hpp"

namespace aqua::service {

namespace {

// --- param parsing (throws aqua::Error with client-presentable text) ----

const std::string& required(const std::map<std::string, std::string>& params,
                            const char* key) {
  const auto it = params.find(key);
  require(it != params.end(), std::string("missing param \"") + key + "\"");
  return it->second;
}

double parse_double(const std::string& text, const char* key) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  require(end != nullptr && *end == '\0' && end != text.c_str(),
          std::string("param \"") + key + "\" is not a number: " + text);
  return value;
}

double double_param(const std::map<std::string, std::string>& params,
                    const char* key, double lo, double hi) {
  const double value = parse_double(required(params, key), key);
  require(value >= lo && value <= hi,
          std::string("param \"") + key + "\" out of range [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return value;
}

double double_param_or(const std::map<std::string, std::string>& params,
                       const char* key, double fallback, double lo,
                       double hi) {
  if (params.find(key) == params.end()) return fallback;
  return double_param(params, key, lo, hi);
}

std::size_t size_param(const std::map<std::string, std::string>& params,
                       const char* key, std::size_t lo, std::size_t hi) {
  const double value = double_param(params, key, static_cast<double>(lo),
                                    static_cast<double>(hi));
  require(value == static_cast<double>(static_cast<std::size_t>(value)),
          std::string("param \"") + key + "\" must be an integer");
  return static_cast<std::size_t>(value);
}

std::size_t size_param_or(const std::map<std::string, std::string>& params,
                          const char* key, std::size_t fallback,
                          std::size_t lo, std::size_t hi) {
  if (params.find(key) == params.end()) return fallback;
  return size_param(params, key, lo, hi);
}

const ChipModel& chip_by_name(const std::string& name) {
  // Thread-safe lazily built singletons; the models are immutable.
  static const ChipModel low = make_low_power_cmp();
  static const ChipModel high = make_high_frequency_cmp();
  static const ChipModel xeon = make_xeon_e5_2667v4();
  static const ChipModel phi = make_xeon_phi_7290();
  if (name == "low_power_cmp") return low;
  if (name == "high_frequency_cmp") return high;
  if (name == "xeon_e5_2667v4") return xeon;
  if (name == "xeon_phi_7290") return phi;
  throw Error("unknown chip model: " + name +
              " (expected low_power_cmp, high_frequency_cmp, "
              "xeon_e5_2667v4 or xeon_phi_7290)");
}

CoolingOption cooling_by_name(const std::string& name) {
  for (const CoolingOption& option : all_cooling_options()) {
    if (option.name() == name) return option;
  }
  throw Error("unknown cooling option: " + name +
              " (expected air, water_pipe, mineral_oil, fluorinert or "
              "water)");
}

GridOptions grid_from_params(const std::map<std::string, std::string>& params) {
  GridOptions grid;
  grid.nx =
      size_param_or(params, "nx", grid.nx, kMinGridCells, kMaxGridCells);
  grid.ny =
      size_param_or(params, "ny", grid.ny, kMinGridCells, kMaxGridCells);
  return grid;
}

CellJob freq_cap_job(const std::map<std::string, std::string>& params) {
  const ChipModel& chip = chip_by_name(required(params, "chip"));
  const std::size_t chips = size_param(params, "chips", 1, kMaxStackChips);
  const CoolingOption cooling = cooling_by_name(required(params, "cooling"));
  const double threshold_c =
      double_param_or(params, "threshold_c", 80.0, 40.0, 120.0);
  const GridOptions grid = grid_from_params(params);

  CellJob job;
  job.config =
      sweep::freq_cap_cell(chip.name(), chips, cooling.name(), threshold_c,
                           grid);
  job.cell = "chip=" + chip.name() + ";chips=" + std::to_string(chips) +
             ";cooling=" + cooling.name();
  job.compute = [&chip, chips, cooling, threshold_c, grid] {
    return freq_cap_values(chip, chips, cooling, threshold_c, grid);
  };
  return job;
}

CellJob npb_des_job(const std::map<std::string, std::string>& params) {
  const std::size_t chips = size_param(params, "chips", 1, kMaxStackChips);
  const std::string benchmark = required(params, "benchmark");
  WorkloadProfile profile = npb_profile(benchmark);  // throws on unknown
  const double hz = double_param(params, "hz", 1e8, 1e10);
  const std::size_t cores = size_param_or(params, "cores_per_chip", 4, 1, 64);
  profile.instructions_per_thread = static_cast<std::uint64_t>(size_param_or(
      params, "instructions_per_thread", profile.instructions_per_thread, 1,
      kMaxInstructionsPerThread));
  const std::uint64_t seed =
      size_param_or(params, "seed", 1, 0, 1000000000);

  CellJob job;
  job.config = sweep::npb_des_cell(chips, cores, benchmark, hz,
                                   profile.instructions_per_thread, seed,
                                   /*faulted=*/false);
  job.cell = "chips=" + std::to_string(chips) + ";bench=" + benchmark +
             ";hz=" + sweep::format_double_exact(hz);
  CmpConfig config;
  config.chips = chips;
  config.cores_per_chip = cores;
  job.compute = [config, profile, hz, seed] {
    return npb_des_values(config, profile, Hertz(hz), seed);
  };
  return job;
}

CellJob htc_job(const std::map<std::string, std::string>& params) {
  const ChipModel& chip = chip_by_name(required(params, "chip"));
  const std::size_t chips = size_param(params, "chips", 1, kMaxStackChips);
  const double htc = double_param(params, "htc", 1.0, 1e6);
  const GridOptions grid = grid_from_params(params);

  CellJob job;
  job.config = sweep::htc_cell(chip.name(), chips, htc, grid);
  job.cell = "chip=" + chip.name() + ";chips=" + std::to_string(chips) +
             ";htc=" + sweep::format_double_exact(htc);
  job.compute = [&chip, chips, htc, grid] {
    return htc_values(chip, chips, htc, grid);
  };
  return job;
}

CellJob rotation_job(const std::map<std::string, std::string>& params) {
  const ChipModel& chip = chip_by_name(required(params, "chip"));
  const std::size_t chips = size_param(params, "chips", 1, kMaxStackChips);
  const CoolingOption cooling = cooling_by_name(required(params, "cooling"));
  const std::size_t step =
      size_param(params, "step", 0, chip.ladder().size() - 1);
  const GridOptions grid = grid_from_params(params);
  const Hertz f = chip.ladder().step(step);

  CellJob job;
  job.config = sweep::rotation_cell(chip.name(), chips, cooling.name(), step,
                                    f.value(), grid);
  job.cell = "chip=" + chip.name() + ";chips=" + std::to_string(chips) +
             ";cooling=" + cooling.name() + ";step=" + std::to_string(step);
  job.compute = [&chip, chips, cooling, f, grid] {
    return rotation_values(chip, chips, cooling, f, grid);
  };
  return job;
}

std::vector<FigureCell> freq_vs_chips_figure(const char* chip,
                                             std::size_t max_chips) {
  std::vector<FigureCell> cells;
  cells.reserve(max_chips * 5);
  for (std::size_t chips = 1; chips <= max_chips; ++chips) {
    for (const CoolingOption& option : all_cooling_options()) {
      FigureCell cell;
      cell.family = "freq_cap";
      cell.params = {{"chip", chip},
                     {"chips", std::to_string(chips)},
                     {"cooling", option.name()}};
      cell.tag =
          "chips=" + std::to_string(chips) + ";cooling=" + option.name();
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace

CellJob make_cell_job(const std::string& family,
                      const std::map<std::string, std::string>& params) {
  if (family == "freq_cap") return freq_cap_job(params);
  if (family == "npb_des") return npb_des_job(params);
  if (family == "htc") return htc_job(params);
  if (family == "rotation") return rotation_job(params);
  throw Error("unknown cell family: " + family +
              " (expected freq_cap, npb_des, htc or rotation)");
}

std::vector<FigureCell> expand_figure(const std::string& figure) {
  if (figure == "fig07") return freq_vs_chips_figure("low_power_cmp", 14);
  if (figure == "fig08") return freq_vs_chips_figure("high_frequency_cmp", 15);
  throw Error("unknown figure: " + figure + " (expected fig07 or fig08)");
}

}  // namespace aqua::service
