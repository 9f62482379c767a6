#pragma once

/// Library-level generators for the paper's experiments, shared by the
/// bench binaries (which print them) and the integration tests (which
/// check their shape against the paper's findings). One function per
/// experiment family; DESIGN.md maps figures to these.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cooling.hpp"
#include "core/cosim.hpp"
#include "core/freq_cap.hpp"
#include "perf/workload.hpp"
#include "sweep/cost.hpp"

namespace aqua {

// ---------------------------------------------------------------------------
// Maximum frequency vs. number of stacked chips (Figs. 1, 7, 8, 17)
// ---------------------------------------------------------------------------

/// One cooling option's curve over stack heights.
struct FreqVsChipsSeries {
  CoolingKind cooling;
  /// ghz[i] corresponds to (i+1) chips; nullopt = infeasible ("cannot be
  /// drawn" in the paper's figures).
  std::vector<std::optional<double>> ghz;
};

/// The whole experiment.
struct FreqVsChipsData {
  std::string chip_name;
  std::size_t max_chips = 0;
  double threshold_c = 80.0;
  std::vector<FreqVsChipsSeries> series;  ///< in all_cooling_options() order
  /// Cells that threw and were isolated (display cell names, e.g.
  /// "chip=low_power_cmp;chips=3;cooling=water"); their table entries stay
  /// empty. An aborted cell never aborts the sweep.
  std::vector<std::string> failed_cells;
  /// Cells served warm from the AQUA_SWEEP_CACHE content cache.
  std::size_t cached_cells = 0;
  /// Per-phase cost ledger aggregated over every sweep cell (DESIGN.md
  /// §11): the sweep's cell count and its solver work (one solve per
  /// computed cap). The benches publish it as BENCH_*.json
  /// `cost_breakdown` and `sweep_*`.
  sweep::CostBreakdown cost;

  /// Curve for one cooling kind (throws if absent).
  [[nodiscard]] const FreqVsChipsSeries& of(CoolingKind kind) const;
  /// Largest feasible stack for one cooling kind (0 if none).
  [[nodiscard]] std::size_t max_feasible_chips(CoolingKind kind) const;
};

/// Runs the frequency-cap sweep for `chip` over 1..max_chips and all five
/// cooling options, one cell per (height, cooling) on the process-wide
/// task engine, tallest stacks first. Each cell builds its own thermal
/// model.
FreqVsChipsData frequency_vs_chips(const ChipModel& chip,
                                   std::size_t max_chips,
                                   double threshold_c = 80.0,
                                   GridOptions grid = {});

// ---------------------------------------------------------------------------
// NPB execution times across cooling options (Figs. 10-13)
// ---------------------------------------------------------------------------

/// One benchmark's execution times under every cooling option.
struct NpbRow {
  std::string benchmark;
  /// seconds[k]: simulated execution time under cooling option k (the
  /// order of `coolings` below); nullopt when that option cannot carry the
  /// stack.
  std::vector<std::optional<double>> seconds;
  /// seconds normalized to the baseline option (the paper plots these).
  std::vector<std::optional<double>> relative;
};

/// The whole experiment (one chip model, one stack height).
struct NpbData {
  std::string chip_name;
  std::size_t chips = 0;
  std::size_t threads = 0;          ///< simulated OpenMP threads
  CoolingKind baseline;
  std::vector<CoolingKind> coolings;
  std::vector<FrequencyCap> caps;   ///< per cooling option
  std::vector<NpbRow> rows;         ///< one per NPB program + "avg"
  /// Isolated cell failures (see FreqVsChipsData).
  std::vector<std::string> failed_cells;
  /// Cells served warm from the AQUA_SWEEP_CACHE content cache.
  std::size_t cached_cells = 0;
  /// DES cells deduped in-process onto another cooling option's identical
  /// run (cooling options capping at the same frequency share one DES run).
  std::size_t deduped_cells = 0;
  /// Per-phase cost ledger over the cap + DES cells (DESIGN.md §11).
  sweep::CostBreakdown cost;

  /// Mean relative time of one cooling option over the benchmarks.
  [[nodiscard]] std::optional<double> mean_relative(CoolingKind kind) const;
};

/// Runs the nine NPB profiles on a `chips`-high stack of `chip` under the
/// non-air cooling options (the paper omits air for 6+ chips), normalized
/// to `baseline`. `instruction_scale` scales per-thread instruction counts
/// (1.0 = the default profile length). The 9 x 4 simulations run on the
/// process-wide shared pool.
NpbData npb_experiment(const ChipModel& chip, std::size_t chips,
                       CoolingKind baseline, double threshold_c = 80.0,
                       double instruction_scale = 1.0,
                       GridOptions grid = {}, std::uint64_t seed = 1);

// ---------------------------------------------------------------------------
// Temperature vs. heat-transfer coefficient (Fig. 14)
// ---------------------------------------------------------------------------

struct HtcSweepPoint {
  double htc;           ///< W/(m^2 K) applied to both wetted paths
  double temperature_c; ///< peak die temperature at max frequency
  bool failed = false;  ///< the cell threw and was isolated
  bool skipped = false; ///< always false; ROADMAP item 10 deletes it
};

/// Sweeps the coolant coefficient for a `chips`-high stack at the chip's
/// maximum VFS step (the paper uses four chips).
std::vector<HtcSweepPoint> htc_sweep(const ChipModel& chip,
                                     std::size_t chips,
                                     const std::vector<double>& htcs,
                                     GridOptions grid = {});

// ---------------------------------------------------------------------------
// Chip-rotation ("flip") study (Figs. 15 / 16)
// ---------------------------------------------------------------------------

struct RotationPoint {
  double ghz;
  double temperature_no_flip_c;
  double temperature_flip_c;
  bool failed = false;  ///< the cell threw and was isolated
};

/// Temperature vs. frequency with and without 180-degree rotation of even
/// layers, for one cooling option (the paper shows air and water).
std::vector<RotationPoint> rotation_sweep(const ChipModel& chip,
                                          std::size_t chips,
                                          const CoolingOption& cooling,
                                          GridOptions grid = {});

// ---------------------------------------------------------------------------
// Cell computes, one per sweep-cell family (sweep/cells.hpp), called by the
// drivers above and service::make_cell_job. Each returns a cell's value
// set and is a pure function of its cell key (DESIGN.md §9).
// ---------------------------------------------------------------------------
using CellValues = std::map<std::string, double>;

/// freq_cap: every FrequencyCap field, since the NPB experiments rebuild
/// the cap from a cell the Fig. 7/8 sweeps may have cached. "hz" is the
/// raw frequency the DES runs key on; "ghz" is stored alongside it so
/// tables never re-derive (and possibly drift) it.
CellValues freq_cap_values(const ChipModel& chip, std::size_t chips,
                           const CoolingOption& cooling, double threshold_c,
                           GridOptions grid);

/// npb_des: simulated seconds of one DES run of `profile` at `f`.
CellValues npb_des_values(const CmpConfig& config,
                          const WorkloadProfile& profile, Hertz f,
                          std::uint64_t seed);

/// htc: peak die temperature at the chip's top VFS step with `htc` on
/// both wetted paths (Fig. 14).
CellValues htc_values(const ChipModel& chip, std::size_t chips, double htc,
                      GridOptions grid);

/// rotation: peak die temperature at `f` unrotated and with the even
/// layers flipped 180 degrees (Figs. 15/16).
CellValues rotation_values(const ChipModel& chip, std::size_t chips,
                           const CoolingOption& cooling, Hertz f,
                           GridOptions grid);

}  // namespace aqua
