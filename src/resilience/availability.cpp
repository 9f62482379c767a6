#include "resilience/availability.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json_writer.hpp"
#include "obs/report.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"
#include "prototype/components.hpp"

namespace aqua {

namespace {

/// The component classes of a deployed server board: the seven test-board
/// classes plus the memory slot (the part the paper saw fail in air too).
std::vector<ComponentType> server_board_components() {
  std::vector<ComponentType> parts = test_board_components();
  parts.push_back(ComponentType::kMemorySlot);
  return parts;
}

/// The paper's masking recommendation: deep connectors stay above the
/// waterline and the micro cell is removed from the board.
bool masked_dry(ComponentType type) {
  return type == ComponentType::kPcieX4 || type == ComponentType::kRj45 ||
         type == ComponentType::kMPcie || type == ComponentType::kCr2032;
}

struct Variant {
  const char* name;
  bool immersed;
  bool masked;
};

/// Lifetimes of one board's components: hour of failure (or discharge for
/// the CR2032), infinity when the part outlives any horizon.
struct BoardFate {
  std::array<double, 8> fail_hour{};  ///< indexed like the component list
  bool cell_discharges = false;
  double discharge_hour = 0.0;
};

constexpr double kNever = 1e18;

/// Draws one board's fate. RNG draw order is fixed (components in list
/// order, galvanic leak draw then Weibull draw) so identical seeds yield
/// identical clusters regardless of horizon or epoch count.
BoardFate sample_board(Xoshiro256& rng, const std::vector<ComponentType>& parts,
                       const AvailabilityOptions& options,
                       const EnvironmentInfo& env, const Variant& variant) {
  const double eta_base = base_lifetime_hours(options.film);
  BoardFate fate;
  fate.fail_hour.fill(kNever);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const ComponentInfo info = component_info(parts[i]);
    const bool wetted =
        variant.immersed && !(variant.masked && masked_dry(parts[i]));

    if (info.galvanic) {
      // CR2032 self-discharge through the film (testboard.cpp math). Dry
      // cells just hold their shelf life over the horizon.
      if (wetted) {
        const double leak_ma =
            intact_leakage_ma(options.film, info.area_cm2) * 2e4 *
            env.hazard_multiplier * rng.uniform(0.5, 1.5);
        fate.cell_discharges = true;
        fate.discharge_hour = 220.0 / std::max(1e-6, leak_ma);
      }
      continue;
    }

    if (info.fails_in_air_too) {
      // Environment-independent wear-out (memory slots): same hazard wet
      // or dry, per the paper's in-air control.
      const double eta = eta_base / std::max(1e-9, info.complexity);
      fate.fail_hour[i] = rng.weibull(options.weibull_shape, eta);
      continue;
    }

    if (!wetted) continue;  // dry ingress-only parts never fail

    const double eta = eta_base / std::max(1e-9, info.complexity) /
                       env.hazard_multiplier;
    fate.fail_hour[i] = rng.weibull(options.weibull_shape, eta);
  }
  return fate;
}

/// Board throughput factor at age `hours` (0 = offline).
double board_factor(const BoardFate& fate,
                    const std::vector<ComponentType>& parts, double hours,
                    double link_ratio) {
  double factor = 1.0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (fate.fail_hour[i] > hours) continue;
    switch (parts[i]) {
      case ComponentType::kMemorySlot:
      case ComponentType::kPga:
      case ComponentType::kRj45:
        return 0.0;  // DIMM / socket / uplink loss takes the board down
      case ComponentType::kPcieX4:
        factor *= link_ratio;  // expansion fabric degraded, not dead
        break;
      case ComponentType::kUsb:
        factor *= 0.99;
        break;
      case ComponentType::kMPcie:
        factor *= 0.97;
        break;
      case ComponentType::kMegaAvr:
        factor *= 0.95;  // management MCU lost: conservative throttling
        break;
      case ComponentType::kCr2032:
        break;  // handled via fate.cell_discharges; no throughput effect
    }
  }
  return factor;
}

/// Measures the throughput cost of one failed mesh link with two real DES
/// runs: the same small NPB kernel on a fault-free mesh and on a mesh with
/// one x-link down. Returns faulted/baseline throughput (<= 1).
double calibrate_link_ratio() {
  CmpConfig config;  // 1 chip, 4x4 mesh, 4 cores
  WorkloadProfile profile = npb_profile("cg");
  profile.instructions_per_thread = 20'000;  // calibration, not a figure
  const Hertz freq = gigahertz(2.0);

  CmpSystem baseline(config, profile, freq, /*seed=*/7);
  const ExecStats clean = baseline.run();

  CmpSystem faulted(config, profile, freq, /*seed=*/7);
  // Kill the x-link between the first two bottom-row tiles: the worst
  // case for the core row's traffic to the L2 rows above.
  faulted.fail_link(tile_id(config, TileCoord{0, 0, 0}),
                    tile_id(config, TileCoord{1, 0, 0}));
  const ExecStats broken = faulted.run();

  ensure(clean.seconds > 0.0 && broken.seconds > 0.0,
         "calibration runs produced no time");
  // Identical instruction streams, so the throughput ratio is the inverse
  // ratio of run times.
  return std::clamp(clean.seconds / broken.seconds, 0.0, 1.0);
}

}  // namespace

AvailabilityResult availability_experiment(
    const AvailabilityOptions& options) {
  require(options.boards > 0, "availability needs at least one board");
  require(options.horizon_years > 0.0, "horizon must be positive");
  require(options.epochs_per_year > 0, "need at least one epoch per year");

  const std::vector<ComponentType> parts = server_board_components();
  const EnvironmentInfo env = environment_info(options.environment);

  AvailabilityResult result;
  result.link_fault_throughput_ratio = calibrate_link_ratio();
  const double link_ratio = result.link_fault_throughput_ratio;

  const Variant variants[] = {
      {"air", false, false},
      {"wet", true, false},
      {"wet_masked", true, true},
  };
  // Variant names track the configured environment (e.g. "tap_water").
  const std::string wet_name = env.name;
  const std::string masked_name = env.name + "_masked";

  const double horizon_hours = options.horizon_years * 365.0 * 24.0;
  const std::size_t epochs = static_cast<std::size_t>(
      options.horizon_years * static_cast<double>(options.epochs_per_year));

  for (std::size_t vi = 0; vi < 3; ++vi) {
    const Variant& variant = variants[vi];
    AvailabilityCurve curve;
    curve.variant = vi == 0 ? "air" : (vi == 1 ? wet_name : masked_name);
    curve.pue = variant.immersed ? direct_cooling_pue() : options.air_pue;

    // Independent, deterministic stream per variant.
    Xoshiro256 rng(options.seed + 0x9e3779b97f4a7c15ULL * (vi + 1));
    std::vector<BoardFate> cluster;
    cluster.reserve(options.boards);
    for (std::size_t b = 0; b < options.boards; ++b) {
      cluster.push_back(sample_board(rng, parts, options, env, variant));
    }

    for (std::size_t e = 0; e <= epochs; ++e) {
      const double hours =
          horizon_hours * static_cast<double>(e) / static_cast<double>(epochs);
      AvailabilityEpoch epoch;
      epoch.years = hours / (365.0 * 24.0);
      double sum = 0.0;
      std::size_t alive = 0;
      for (const BoardFate& fate : cluster) {
        const double factor = board_factor(fate, parts, hours, link_ratio);
        sum += factor;
        if (factor > 0.0) ++alive;
      }
      epoch.alive_fraction =
          static_cast<double>(alive) / static_cast<double>(options.boards);
      epoch.effective_throughput = sum / static_cast<double>(options.boards);
      epoch.throughput_per_watt =
          epoch.effective_throughput * (options.air_pue / curve.pue);
      curve.epochs.push_back(epoch);
    }

    // End-of-horizon accounting.
    for (const BoardFate& fate : cluster) {
      if (board_factor(fate, parts, horizon_hours, link_ratio) == 0.0) {
        ++curve.boards_offline;
      }
      for (double h : fate.fail_hour) {
        if (h <= horizon_hours) ++curve.component_failures;
      }
      if (fate.cell_discharges && fate.discharge_hour <= horizon_hours) {
        ++curve.cells_discharged;
      }
    }

    obs::RunReport& report = obs::RunReport::instance();
    if (report.enabled()) {
      report.emit("fault_injected", [&](obs::JsonWriter& w) {
        w.add("stage", "availability")
            .add("fault", "component_hazard")
            .add("variant", curve.variant)
            .add("boards", options.boards)
            .add("component_failures", curve.component_failures)
            .add("cells_discharged", curve.cells_discharged)
            .add("boards_offline", curve.boards_offline);
      });
    }
    result.curves.push_back(std::move(curve));
  }
  return result;
}

}  // namespace aqua
