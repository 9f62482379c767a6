#pragma once

/// Immersion-availability experiment: couples the Fig. 2-calibrated
/// per-component hazard model (prototype layer) to cluster-level
/// *effective throughput* over deployment years.
///
/// Three variants of the same cluster are aged side by side:
///   - "air":               dry boards; only the environment-independent
///                          wear-out (memory slots) applies, but the
///                          facility pays the air-cooling PUE.
///   - "tap_water":         fully immersed film-coated boards — every
///                          component is wetted and draws its lifetime
///                          from the Fig. 2 Weibull hazards.
///   - "tap_water_masked":  immersed with the paper's recommendation
///                          applied — PCIex4 / RJ45 / mPCIe connectors are
///                          kept above the waterline and the micro cell is
///                          removed, so only the flat, easy-to-coat parts
///                          are wetted.
///
/// A component loss maps to a board-level effect:
///   memory slot / PGA / RJ45  -> board offline
///   PCIex4                    -> throughput scaled by a DES-calibrated
///                                one-link-fault ratio (a real CmpSystem
///                                run with a failed mesh link vs. the
///                                fault-free baseline)
///   USB / mPCIe / MegaAVR     -> small static penalties (peripheral,
///                                expansion, management losses)
///   CR2032                    -> logged only (timekeeping, not throughput)
///
/// Everything is deterministic in (options, seed): boards draw their
/// component lifetimes once, in fixed order, from a per-variant RNG
/// stream, and the cluster is then sampled at fixed epochs.

#include <cstdint>
#include <string>
#include <vector>

#include "prototype/coating.hpp"
#include "prototype/deployment.hpp"

namespace aqua {

struct AvailabilityOptions {
  FilmSpec film{};  ///< 120 um diX C, the paper's long-run coating
  WaterEnvironment environment = WaterEnvironment::kTapWater;
  std::size_t boards = 200;        ///< cluster size per variant
  double horizon_years = 6.0;      ///< deployment horizon
  std::size_t epochs_per_year = 4; ///< sampling resolution
  double weibull_shape = 1.5;      ///< ingress wear-out shape (testboard)
  std::uint64_t seed = 2019;
  /// Air-cooled facility PUE for the "air" variant (the immersed variants
  /// use direct_cooling_pue()). Benches override this with the Section 4.4
  /// chilled-air facility result.
  double air_pue = 1.40;
};

/// One sampled epoch of one variant's cluster.
struct AvailabilityEpoch {
  double years = 0.0;
  double alive_fraction = 0.0;  ///< boards still online
  /// Mean per-board throughput factor (offline boards count as 0), i.e.
  /// cluster goodput relative to a brand-new cluster.
  double effective_throughput = 0.0;
  /// Goodput per facility watt, relative to a new *air* cluster:
  /// effective_throughput * (air_pue / variant_pue).
  double throughput_per_watt = 0.0;
};

/// One variant's full curve.
struct AvailabilityCurve {
  std::string variant;
  double pue = 1.0;
  std::vector<AvailabilityEpoch> epochs;
  // End-of-horizon accounting.
  std::size_t boards_offline = 0;
  std::size_t component_failures = 0;  ///< wetted/wear-out losses
  std::size_t cells_discharged = 0;    ///< CR2032 galvanic discharges
};

struct AvailabilityResult {
  std::vector<AvailabilityCurve> curves;  ///< air, tap_water, tap_water_masked
  /// DES-calibrated throughput ratio of a one-link-fault mesh vs. the
  /// fault-free baseline: two CmpSystem runs, the PCIex4 penalty.
  double link_fault_throughput_ratio = 1.0;
};

/// Runs the experiment. Deterministic in (options); emits obs
/// "fault_injected" summary records per variant when the run report is on.
AvailabilityResult availability_experiment(const AvailabilityOptions& options);

}  // namespace aqua
