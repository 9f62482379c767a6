#pragma once

/// End-to-end co-simulation: power model -> thermal cap -> full-system
/// performance — the paper's McPAT -> HotSpot -> gem5 pipeline in one call.
/// Used by the quickstart and scenario_runner examples.

#include <optional>
#include <string>
#include <vector>

#include "core/freq_cap.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"

namespace aqua {

/// Result of one (workload, cooling, stack) co-simulation.
struct CoSimResult {
  FrequencyCap cap;                 ///< thermal frequency decision
  std::optional<ExecStats> exec;    ///< absent when cap.feasible == false
};

/// The co-simulation driver. One instance fixes the chip model, package,
/// temperature threshold and CMP microarchitecture; `run` varies stack
/// height, cooling and workload.
class CoSimulator {
 public:
  CoSimulator(ChipModel chip, PackageConfig package = {},
              double threshold_c = 80.0, CmpConfig base_config = {},
              GridOptions grid = {});

  /// Finds the thermal frequency cap and, if feasible, executes the
  /// workload on a `chips`-high CMP at that frequency.
  [[nodiscard]] CoSimResult run(std::size_t chips,
                                const CoolingOption& cooling,
                                const WorkloadProfile& workload,
                                std::uint64_t seed = 1,
                                FlipPolicy flip = FlipPolicy::kNone);

  /// Frequency cap only (no performance simulation).
  [[nodiscard]] FrequencyCap cap(std::size_t chips,
                                 const CoolingOption& cooling,
                                 FlipPolicy flip = FlipPolicy::kNone);

  [[nodiscard]] const ChipModel& chip() const { return finder_.chip(); }
  [[nodiscard]] const CmpConfig& base_config() const { return base_config_; }

 private:
  MaxFrequencyFinder finder_;
  CmpConfig base_config_;
};

}  // namespace aqua
