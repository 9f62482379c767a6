#include "core/experiments.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>

#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"

namespace aqua {

namespace {

/// Emits an "experiment" run-report record with the sweep's wall time and
/// the solver work its cells caused (the runner's cost ledger).
void report_experiment(const char* name,
                       std::chrono::steady_clock::time_point start,
                       const sweep::CostBreakdown& cost) {
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.emit("experiment", [&](obs::JsonWriter& w) {
    w.add("name", name)
        .add("seconds", seconds)
        .add("solves", cost.sum.work.solves)
        .add("cg_iterations", cost.sum.work.cg_iterations)
        .add("precond_applies", cost.sum.work.precond_applies);
  });
}

/// Inverse of freq_cap_values. Tolerates value sets with only "feasible" (an
/// infeasible cap stores nothing else).
FrequencyCap cap_from_values(const CellValues& values) {
  const auto get = [&](const char* name, double fallback) {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  };
  FrequencyCap cap;
  cap.feasible = get("feasible", 0.0) > 0.5;
  if (cap.feasible) {
    cap.step_index = static_cast<std::size_t>(get("step", 0.0));
    cap.frequency = Hertz(get("hz", 0.0));
    cap.max_temperature_c = get("max_temperature_c", 0.0);
    cap.chip_power = Watts(get("chip_power_w", 0.0));
    cap.total_power = Watts(get("total_power_w", 0.0));
  }
  return cap;
}

}  // namespace

const FreqVsChipsSeries& FreqVsChipsData::of(CoolingKind kind) const {
  for (const FreqVsChipsSeries& s : series) {
    if (s.cooling == kind) return s;
  }
  throw Error("no series for cooling option");
}

std::size_t FreqVsChipsData::max_feasible_chips(CoolingKind kind) const {
  const FreqVsChipsSeries& s = of(kind);
  std::size_t best = 0;
  for (std::size_t i = 0; i < s.ghz.size(); ++i) {
    if (s.ghz[i].has_value()) best = i + 1;
  }
  return best;
}

FreqVsChipsData frequency_vs_chips(const ChipModel& chip,
                                   std::size_t max_chips, double threshold_c,
                                   GridOptions grid) {
  require(max_chips >= 1, "need at least one chip");
  AQUA_TRACE_SCOPE_ARG("experiment.frequency_vs_chips", "experiment",
                       max_chips);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<CoolingOption> options = all_cooling_options();

  FreqVsChipsData data;
  data.chip_name = chip.name();
  data.max_chips = max_chips;
  data.threshold_c = threshold_c;
  data.series.resize(options.size());
  for (std::size_t k = 0; k < options.size(); ++k) {
    data.series[k].cooling = options[k].kind();
    data.series[k].ghz.resize(max_chips);
  }

  sweep::SweepRunner runner("freq_vs_chips");
  std::mutex failed_mu;

  // One unpinned cell per (height, cooling), each a pure function of its
  // key that builds, solves and frees its own thermal model. The claim
  // queue is FIFO, so submitting the tallest stacks first starts the
  // longest cells first and leaves the short ones for the tail.
  const std::size_t n_options = options.size();
  sweep::dispatch_cells(max_chips * n_options, [&](std::size_t i) {
    const std::size_t chips = max_chips - i / n_options;
    const std::size_t k = i % n_options;
    AQUA_TRACE_SCOPE_ARG("experiment.cell", "experiment", chips);
    const std::string cell = "chip=" + data.chip_name +
                             ";chips=" + std::to_string(chips) +
                             ";cooling=" + options[k].name();
    const sweep::CellConfig config = sweep::freq_cap_cell(
        data.chip_name, chips, options[k].name(), threshold_c, grid);
    const sweep::CellSource src = runner.run(
        config, cell, {},
        [&] {
          return freq_cap_values(chip, chips, options[k], threshold_c, grid);
        },
        [&](const std::map<std::string, double>& values) {
          const auto feasible = values.find("feasible");
          const auto ghz = values.find("ghz");
          if (feasible != values.end() && feasible->second > 0.5 &&
              ghz != values.end()) {
            data.series[k].ghz[chips - 1] = ghz->second;
          }
        });
    if (src == sweep::CellSource::kFailed) {
      std::lock_guard lock(failed_mu);
      data.failed_cells.push_back(cell);
    }
  });
  const sweep::SweepRunner::Stats st = runner.stats();
  data.cached_cells = st.cache_hits;
  data.cost = runner.cost();
  std::sort(data.failed_cells.begin(), data.failed_cells.end());
  report_experiment("frequency_vs_chips", start, data.cost);
  runner.emit_report();
  return data;
}

std::optional<double> NpbData::mean_relative(CoolingKind kind) const {
  for (std::size_t k = 0; k < coolings.size(); ++k) {
    if (coolings[k] != kind) continue;
    double acc = 0.0;
    std::size_t n = 0;
    for (const NpbRow& row : rows) {
      if (row.benchmark == "avg") continue;
      if (!row.relative[k].has_value()) return std::nullopt;
      acc += *row.relative[k];
      ++n;
    }
    return n ? std::optional<double>(acc / static_cast<double>(n))
             : std::nullopt;
  }
  return std::nullopt;
}

NpbData npb_experiment(const ChipModel& chip, std::size_t chips,
                       CoolingKind baseline, double threshold_c,
                       double instruction_scale, GridOptions grid,
                       std::uint64_t seed) {
  require(instruction_scale > 0.0, "instruction scale must be positive");
  AQUA_TRACE_SCOPE_ARG("experiment.npb", "experiment", chips);
  const auto start = std::chrono::steady_clock::now();

  NpbData data;
  data.chip_name = chip.name();
  data.chips = chips;
  data.baseline = baseline;
  // The paper's Figs. 10-13 evaluate water pipe, mineral oil, fluorinert
  // and water (air cannot carry 6-8 chips).
  data.coolings = {CoolingKind::kWaterPipe, CoolingKind::kMineralOil,
                   CoolingKind::kFluorinert, CoolingKind::kWaterImmersion};

  sweep::SweepRunner runner("npb");
  std::mutex failed_mu;

  // Thermal caps: the inputs of every DES cell. They go through the same
  // runner as everything else, which is exactly what makes them resumable
  // from the content cache and — because freq_cap_cell is the same key
  // family the Fig. 7/8 sweeps use — warm-servable from a cache those
  // sweeps filled. Each cap is an unpinned cell that builds its own
  // thermal model inside the compute, so a fully warm run never assembles
  // one. A cap failure aborts the experiment (there is no table without
  // the caps).
  {
    data.caps.resize(data.coolings.size());
    std::vector<std::string> cap_failures(data.coolings.size());
    sweep::dispatch_cells(data.coolings.size(), [&](std::size_t k) {
      const CoolingOption option{data.coolings[k]};
      const std::string cell = "cap;chip=" + data.chip_name +
                               ";chips=" + std::to_string(chips) +
                               ";cooling=" + option.name();
      const sweep::CellConfig config = sweep::freq_cap_cell(
          data.chip_name, chips, option.name(), threshold_c, grid);
      const sweep::CellSource src = runner.run(
          config, cell, {},
          [&] {
            return freq_cap_values(chip, chips, option, threshold_c, grid);
          },
          [&](const std::map<std::string, double>& values) {
            data.caps[k] = cap_from_values(values);
          });
      if (src == sweep::CellSource::kFailed) cap_failures[k] = cell;
    });
    for (const std::string& cell : cap_failures) {
      if (!cell.empty()) throw Error("frequency cap failed for " + cell);
    }
  }

  std::vector<WorkloadProfile> suite = npb_suite();
  for (WorkloadProfile& p : suite) {
    p.instructions_per_thread = static_cast<std::uint64_t>(
        static_cast<double>(p.instructions_per_thread) * instruction_scale);
  }

  CmpConfig base_config;
  base_config.chips = chips;
  data.threads = base_config.total_cores();

  data.rows.resize(suite.size());
  for (std::size_t b = 0; b < suite.size(); ++b) {
    data.rows[b].benchmark = suite[b].name;
    data.rows[b].seconds.resize(data.coolings.size());
    data.rows[b].relative.resize(data.coolings.size());
  }

  // One unpinned task per unique DES key: DES cells carry no reusable
  // solver state, so they overlap freely with any other work. The key
  // omits cooling, and the cap is the only key field that varies within a
  // program, so a program's slots that cap at the same frequency share a
  // key. They form one task that runs them in ascending cooling order:
  // the first computes (or cache-hits), the rest are memo hits on the
  // published entry. As tasks of their own, the duplicates would park
  // engine workers on the single-flight memo for the leader's whole
  // compute. Every slot still goes through runner.run under its own name,
  // so dedupe counts, poison, cache and the failed-leader retry stay per
  // slot.
  std::vector<std::vector<std::size_t>> cap_groups;
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    if (!data.caps[k].feasible) continue;
    const auto same_cap = [&](const std::vector<std::size_t>& group) {
      return data.caps[group.front()].frequency.value() ==
             data.caps[k].frequency.value();
    };
    const auto group =
        std::find_if(cap_groups.begin(), cap_groups.end(), same_cap);
    if (group == cap_groups.end()) {
      cap_groups.push_back({k});
    } else {
      group->push_back(k);
    }
  }
  // Program-major: task i runs program i / groups, cap group i % groups.
  const std::size_t groups = cap_groups.size();
  sweep::dispatch_cells(suite.size() * groups, [&](std::size_t i) {
    const std::size_t b = i / groups;
    for (const std::size_t k : cap_groups[i % groups]) {
      AQUA_TRACE_SCOPE_ARG("experiment.npb_cell", "experiment",
                           b * data.coolings.size() + k);
      const sweep::CellConfig config = sweep::npb_des_cell(
          chips, base_config.cores_per_chip, suite[b].name,
          data.caps[k].frequency.value(),
          suite[b].instructions_per_thread, seed, /*faulted=*/false);
      const std::string cellkey = "chip=" + data.chip_name +
                                  ";chips=" + std::to_string(chips) +
                                  ";bench=" + suite[b].name +
                                  ";cooling=" + to_string(data.coolings[k]);
      const sweep::CellSource src = runner.run(
          config, cellkey, {},
          [&] {
            return npb_des_values(base_config, suite[b],
                                  data.caps[k].frequency, seed);
          },
          [&](const std::map<std::string, double>& values) {
            const auto seconds = values.find("seconds");
            if (seconds != values.end()) {
              data.rows[b].seconds[k] = seconds->second;
            }
          });
      if (src == sweep::CellSource::kFailed) {
        std::lock_guard lock(failed_mu);
        data.failed_cells.push_back(cellkey);
      }
    }
  });
  const sweep::SweepRunner::Stats st = runner.stats();
  data.cached_cells = st.cache_hits;
  data.deduped_cells = st.memo_hits;
  data.cost = runner.cost();
  std::sort(data.failed_cells.begin(), data.failed_cells.end());

  // Normalize to the baseline option.
  std::size_t base_idx = data.coolings.size();
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    if (data.coolings[k] == baseline) base_idx = k;
  }
  require(base_idx < data.coolings.size(), "baseline option not simulated");
  for (NpbRow& row : data.rows) {
    const std::optional<double> base = row.seconds[base_idx];
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      if (row.seconds[k].has_value() && base.has_value() && *base > 0.0) {
        row.relative[k] = *row.seconds[k] / *base;
      }
    }
  }

  // Append the per-option average row the paper's text quotes ("up to 14%
  // on average").
  NpbRow avg;
  avg.benchmark = "avg";
  avg.seconds.resize(data.coolings.size());
  avg.relative.resize(data.coolings.size());
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    double acc = 0.0;
    std::size_t n = 0;
    bool complete = true;
    for (const NpbRow& row : data.rows) {
      if (row.relative[k].has_value()) {
        acc += *row.relative[k];
        ++n;
      } else {
        complete = false;
      }
    }
    if (complete && n > 0) avg.relative[k] = acc / static_cast<double>(n);
  }
  data.rows.push_back(std::move(avg));
  report_experiment("npb", start, data.cost);
  runner.emit_report();
  return data;
}

std::vector<HtcSweepPoint> htc_sweep(const ChipModel& chip, std::size_t chips,
                                     const std::vector<double>& htcs,
                                     GridOptions grid) {
  AQUA_TRACE_SCOPE_ARG("experiment.htc_sweep", "experiment", chips);
  const auto start = std::chrono::steady_clock::now();
  sweep::SweepRunner runner("htc_sweep");
  std::vector<HtcSweepPoint> points(htcs.size());
  sweep::dispatch_cells(htcs.size(), [&](std::size_t i) {
    points[i].htc = htcs[i];
    const std::string cell = "chip=" + chip.name() +
                             ";chips=" + std::to_string(chips) +
                             ";htc=" + sweep::format_double_exact(htcs[i]);
    const sweep::CellConfig config =
        sweep::htc_cell(chip.name(), chips, htcs[i], grid);
    const sweep::CellSource src = runner.run(
        config, cell, {},
        [&] { return htc_values(chip, chips, htcs[i], grid); },
        [&](const std::map<std::string, double>& values) {
          const auto temp = values.find("temperature_c");
          if (temp != values.end()) points[i].temperature_c = temp->second;
        });
    if (src == sweep::CellSource::kFailed) points[i].failed = true;
  });
  report_experiment("htc_sweep", start, runner.cost());
  runner.emit_report();
  return points;
}

std::vector<RotationPoint> rotation_sweep(const ChipModel& chip,
                                          std::size_t chips,
                                          const CoolingOption& cooling,
                                          GridOptions grid) {
  AQUA_TRACE_SCOPE_ARG("experiment.rotation_sweep", "experiment", chips);
  const auto start = std::chrono::steady_clock::now();
  const VfsLadder& ladder = chip.ladder();
  sweep::SweepRunner runner("rotation_sweep");
  std::vector<RotationPoint> points(ladder.size());
  sweep::dispatch_cells(ladder.size(), [&](std::size_t i) {
    const Hertz f = ladder.step(i);
    points[i].ghz = f.gigahertz();
    const std::string cell = "chip=" + chip.name() +
                             ";chips=" + std::to_string(chips) +
                             ";cooling=" + cooling.name() +
                             ";step=" + std::to_string(i);
    const sweep::CellConfig config = sweep::rotation_cell(
        chip.name(), chips, cooling.name(), i, f.value(), grid);
    const sweep::CellSource src = runner.run(
        config, cell, {},
        [&] { return rotation_values(chip, chips, cooling, f, grid); },
        [&](const std::map<std::string, double>& values) {
          const auto no_flip = values.find("no_flip_c");
          const auto flip = values.find("flip_c");
          if (no_flip != values.end()) {
            points[i].temperature_no_flip_c = no_flip->second;
          }
          if (flip != values.end()) {
            points[i].temperature_flip_c = flip->second;
          }
        });
    if (src == sweep::CellSource::kFailed) points[i].failed = true;
  });
  report_experiment("rotation_sweep", start, runner.cost());
  runner.emit_report();
  return points;
}

CellValues freq_cap_values(const ChipModel& chip, std::size_t chips,
                           const CoolingOption& cooling, double threshold_c,
                           GridOptions grid) {
  const FrequencyCap cap =
      MaxFrequencyFinder(chip, PackageConfig{}, threshold_c, grid)
          .find(chips, cooling);
  CellValues values{{"feasible", cap.feasible ? 1.0 : 0.0}};
  if (cap.feasible) {
    values["step"] = static_cast<double>(cap.step_index);
    values["hz"] = cap.frequency.value();
    values["ghz"] = cap.frequency.gigahertz();
    values["max_temperature_c"] = cap.max_temperature_c;
    values["chip_power_w"] = cap.chip_power.value();
    values["total_power_w"] = cap.total_power.value();
  }
  return values;
}

CellValues npb_des_values(const CmpConfig& config,
                          const WorkloadProfile& profile, Hertz f,
                          std::uint64_t seed) {
  CmpSystem system(config, profile, f, seed);
  const ExecStats stats = system.run();
  return {{"seconds", stats.seconds}};
}

CellValues htc_values(const ChipModel& chip, std::size_t chips, double htc,
                      GridOptions grid) {
  PackageConfig package;
  // Boundary with the swept coefficient on both wetted paths (the sweep
  // generalizes the immersion options).
  ThermalBoundary boundary;
  boundary.ambient_c = package.ambient_c;
  boundary.top_htc = HeatTransferCoefficient(htc);
  boundary.bottom_htc = HeatTransferCoefficient(htc);
  boundary.film_on_bottom = true;

  const Stack3d stack(chip.floorplan(), chips, FlipPolicy::kNone);
  StackThermalModel model(stack, package, boundary, grid);
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), chip.max_frequency()));
  }
  return {{"temperature_c",
           model.solve_steady(powers).max_die_temperature_c()}};
}

CellValues rotation_values(const ChipModel& chip, std::size_t chips,
                           const CoolingOption& cooling, Hertz f,
                           GridOptions grid) {
  MaxFrequencyFinder finder(chip, PackageConfig{}, 80.0, grid);
  return {{"no_flip_c",
           finder.temperature_at(chips, cooling, f, FlipPolicy::kNone)},
          {"flip_c",
           finder.temperature_at(chips, cooling, f, FlipPolicy::kFlipEven)}};
}

}  // namespace aqua
