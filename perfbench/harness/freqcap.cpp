/// freqcap: every thermal-only sweep of the paper, cold, back to back —
/// frequency_vs_chips for Figs. 1/7/8/17, htc_sweep for Fig. 14 and
/// rotation_sweep for Fig. 15. Power, assembly, multigrid, CG and the
/// frequency-cap search do all of the work; the DES and the cache none.

#include <functional>
#include <mutex>
#include <optional>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "sweep/cells.hpp"
#include "sweep/task_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using aqua::ChipModel;
using aqua::CoolingKind;
using aqua::CoolingOption;

const std::vector<double>& htc_points() {
  static const std::vector<double> h{14.0,  50.0,   100.0,  160.0,  180.0,
                                     400.0, 800.0,  1600.0, 2400.0, 3200.0};
  return h;
}

struct Chips {
  ChipModel e5 = aqua::make_xeon_e5_2667v4();
  ChipModel low = aqua::make_low_power_cmp();
  ChipModel high = aqua::make_high_frequency_cmp();
  ChipModel phi = aqua::make_xeon_phi_7290();
};

/// The figure functions one set calls: the library's experiments
/// (untraced) or the span-wrapped replay of their cell loops (traced).
struct Figures {
  std::function<aqua::FreqVsChipsData(const ChipModel&, std::size_t, double)>
      freq;
  std::function<std::vector<aqua::HtcSweepPoint>(
      const ChipModel&, std::size_t, const std::vector<double>&)>
      htc;
  std::function<std::vector<aqua::RotationPoint>(
      const ChipModel&, std::size_t, const CoolingOption&)>
      rotation;
};

Figures library_figures() {
  return {[](const ChipModel& chip, std::size_t n, double threshold_c) {
            return aqua::frequency_vs_chips(chip, n, threshold_c);
          },
          [](const ChipModel& chip, std::size_t n,
             const std::vector<double>& htcs) {
            return aqua::htc_sweep(chip, n, htcs);
          },
          [](const ChipModel& chip, std::size_t n,
             const CoolingOption& cooling) {
            return aqua::rotation_sweep(chip, n, cooling);
          }};
}

// --- traced replay: the library's cell loops with spans at each call ------

/// frequency_vs_chips: one loose task per (height, cooling) cell, homed by
/// height, sharing a worker-local finder per height.
aqua::FreqVsChipsData replay_freq_vs_chips(const ChipModel& chip,
                                           std::size_t max_chips,
                                           double threshold_c) {
  const aqua::GridOptions grid{};
  const std::vector<CoolingOption> options = aqua::all_cooling_options();
  aqua::FreqVsChipsData data;
  data.chip_name = chip.name();
  data.max_chips = max_chips;
  data.threshold_c = threshold_c;
  data.series.resize(options.size());
  for (std::size_t k = 0; k < options.size(); ++k) {
    data.series[k].cooling = options[k].kind();
    data.series[k].ghz.resize(max_chips);
  }
  aqua::sweep::SweepRunner runner("freq_vs_chips");
  std::mutex failed_mu;
  std::vector<aqua::sweep::TaskEngine::Task> tasks;
  for (std::size_t c = 0; c < max_chips; ++c) {
    for (std::size_t k = 0; k < options.size(); ++k) {
      const auto id = static_cast<std::int64_t>(c * options.size() + k);
      aqua::sweep::TaskEngine::Task task;
      task.affinity = c;
      task.body = [&, c, k, id](aqua::sweep::WorkerContext& ctx) {
        SpanScope task_span("engine.task", id);
        const std::size_t chips = c + 1;
        const std::string cell = "chip=" + data.chip_name +
                                 ";chips=" + std::to_string(chips) +
                                 ";cooling=" + options[k].name();
        const aqua::sweep::CellConfig config = aqua::sweep::freq_cap_cell(
            data.chip_name, chips, options[k].name(), threshold_c, grid);
        SpanScope run_span("sweep.run", id);
        const aqua::sweep::CellSource src = runner.run(
            config, cell, {},
            [&] {
              SpanScope compute("sweep.compute", id);
              aqua::MaxFrequencyFinder& finder =
                  ctx.local<aqua::MaxFrequencyFinder>(chips, [&] {
                    return new aqua::MaxFrequencyFinder(
                        chip, aqua::PackageConfig{}, threshold_c, grid);
                  });
              aqua::FrequencyCap cap;
              {
                SpanScope find("freq_cap.find", id);
                cap = finder.find(chips, options[k]);
              }
              return cap_values(cap);
            },
            [&](const std::map<std::string, double>& values) {
              const auto feasible = values.find("feasible");
              const auto ghz = values.find("ghz");
              if (feasible != values.end() && feasible->second > 0.5 &&
                  ghz != values.end()) {
                data.series[k].ghz[chips - 1] = ghz->second;
              }
            });
        if (src == aqua::sweep::CellSource::kFailed) {
          std::lock_guard lock(failed_mu);
          data.failed_cells.push_back(cell);
        }
      };
      tasks.push_back(std::move(task));
    }
  }
  SpanScope batch("engine.run");
  aqua::sweep::TaskEngine::shared().run(std::move(tasks));
  return data;
}

/// htc_sweep: one unpinned cell per coefficient, each a fresh model.
std::vector<aqua::HtcSweepPoint> replay_htc(const ChipModel& chip,
                                            std::size_t chips,
                                            const std::vector<double>& htcs) {
  const aqua::GridOptions grid{};
  aqua::sweep::SweepRunner runner("htc_sweep");
  std::vector<aqua::HtcSweepPoint> points(htcs.size());
  SpanScope batch("engine.run");
  aqua::sweep::dispatch_cells(htcs.size(), [&](std::size_t i) {
    const auto id = static_cast<std::int64_t>(i);
    SpanScope task_span("engine.task", id);
    points[i].htc = htcs[i];
    const std::string cell = "chip=" + chip.name() +
                             ";chips=" + std::to_string(chips) +
                             ";htc=" + std::to_string(htcs[i]);
    const aqua::sweep::CellConfig config =
        aqua::sweep::htc_cell(chip.name(), chips, htcs[i], grid);
    SpanScope run_span("sweep.run", id);
    const aqua::sweep::CellSource src = runner.run(
        config, cell, {},
        [&] {
          SpanScope compute("sweep.compute", id);
          aqua::PackageConfig package;
          aqua::ThermalBoundary boundary;
          boundary.ambient_c = package.ambient_c;
          boundary.top_htc = aqua::HeatTransferCoefficient(htcs[i]);
          boundary.bottom_htc = aqua::HeatTransferCoefficient(htcs[i]);
          boundary.film_on_bottom = true;
          const aqua::Stack3d stack(chip.floorplan(), chips,
                                    aqua::FlipPolicy::kNone);
          std::optional<aqua::StackThermalModel> model;
          {
            SpanScope construct("thermal.model_construct", id);
            model.emplace(stack, package, boundary, grid);
          }
          std::vector<std::vector<double>> powers;
          {
            SpanScope power("power.block_powers", id);
            for (std::size_t l = 0; l < stack.layer_count(); ++l) {
              powers.push_back(
                  chip.block_powers(stack.layer(l), chip.max_frequency()));
            }
          }
          double peak = 0.0;
          {
            SpanScope solve("thermal.solve_steady", id);
            peak = model->solve_steady(powers).max_die_temperature_c();
          }
          return std::map<std::string, double>{{"temperature_c", peak}};
        },
        [&](const std::map<std::string, double>& values) {
          const auto temp = values.find("temperature_c");
          if (temp != values.end()) points[i].temperature_c = temp->second;
        });
    if (src == aqua::sweep::CellSource::kFailed) points[i].failed = true;
  });
  return points;
}

/// rotation_sweep: one unpinned cell per VFS step, each a fresh finder.
std::vector<aqua::RotationPoint> replay_rotation(const ChipModel& chip,
                                                 std::size_t chips,
                                                 const CoolingOption& cooling) {
  const aqua::GridOptions grid{};
  const aqua::VfsLadder& ladder = chip.ladder();
  aqua::sweep::SweepRunner runner("rotation_sweep");
  std::vector<aqua::RotationPoint> points(ladder.size());
  SpanScope batch("engine.run");
  aqua::sweep::dispatch_cells(ladder.size(), [&](std::size_t i) {
    const auto id = static_cast<std::int64_t>(i);
    SpanScope task_span("engine.task", id);
    const aqua::Hertz f = ladder.step(i);
    points[i].ghz = f.gigahertz();
    const std::string cell = "chip=" + chip.name() +
                             ";chips=" + std::to_string(chips) +
                             ";cooling=" + cooling.name() +
                             ";step=" + std::to_string(i);
    const aqua::sweep::CellConfig config = aqua::sweep::rotation_cell(
        chip.name(), chips, cooling.name(), i, f.value(), grid);
    SpanScope run_span("sweep.run", id);
    const aqua::sweep::CellSource src = runner.run(
        config, cell, {},
        [&] {
          SpanScope compute("sweep.compute", id);
          aqua::MaxFrequencyFinder finder(chip, aqua::PackageConfig{}, 80.0,
                                          grid);
          double no_flip = 0.0;
          double flip = 0.0;
          {
            SpanScope at("freq_cap.temperature_at", id);
            no_flip = finder.temperature_at(chips, cooling, f,
                                            aqua::FlipPolicy::kNone);
          }
          {
            SpanScope at("freq_cap.temperature_at", id);
            flip = finder.temperature_at(chips, cooling, f,
                                         aqua::FlipPolicy::kFlipEven);
          }
          return std::map<std::string, double>{{"no_flip_c", no_flip},
                                               {"flip_c", flip}};
        },
        [&](const std::map<std::string, double>& values) {
          const auto no_flip = values.find("no_flip_c");
          const auto flip = values.find("flip_c");
          if (no_flip != values.end()) {
            points[i].temperature_no_flip_c = no_flip->second;
          }
          if (flip != values.end()) points[i].temperature_flip_c = flip->second;
        });
    if (src == aqua::sweep::CellSource::kFailed) points[i].failed = true;
  });
  return points;
}

Figures replay_figures() {
  return {replay_freq_vs_chips, replay_htc, replay_rotation};
}

// --- one set ----------------------------------------------------------------

struct FreqcapSet {
  Tables tables;
  std::vector<Verdict> shape;
  std::vector<double> figure_s;  ///< per-figure latency, in run order
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Counters counters;
  std::size_t cells = 0;
  std::size_t failed_cells = 0;
};

FreqcapSet run_set(const Chips& chips, const Figures& figures) {
  FreqcapSet set;
  const Counters before = Counters::read();
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  double mark = t0;
  const auto figure_done = [&] {
    const double t = now_s();
    set.figure_s.push_back(t - mark);
    mark = t;
  };
  const aqua::FreqVsChipsData fig01 = figures.freq(chips.e5, 4, 78.0);
  figure_done();
  const aqua::FreqVsChipsData fig07 = figures.freq(chips.low, 14, 80.0);
  figure_done();
  const aqua::FreqVsChipsData fig08 = figures.freq(chips.high, 15, 80.0);
  figure_done();
  std::vector<std::vector<aqua::HtcSweepPoint>> fig14;
  for (const ChipModel* chip : {&chips.low, &chips.high, &chips.e5, &chips.phi}) {
    fig14.push_back(figures.htc(*chip, 4, htc_points()));
  }
  figure_done();
  const std::vector<aqua::RotationPoint> air =
      figures.rotation(chips.high, 4, CoolingOption(CoolingKind::kAir));
  const std::vector<aqua::RotationPoint> water = figures.rotation(
      chips.high, 4, CoolingOption(CoolingKind::kWaterImmersion));
  figure_done();
  const aqua::FreqVsChipsData fig17 = figures.freq(chips.phi, 4, 80.0);
  figure_done();
  set.wall_s = now_s() - t0;
  set.cpu_s = cpu_seconds() - cpu0;
  set.counters = Counters::read() - before;

  set.tables = {{"fig01", render_freq_vs_chips(fig01)},
                {"fig07", render_freq_vs_chips(fig07)},
                {"fig08", render_freq_vs_chips(fig08)},
                {"fig14", render_htc(fig14, htc_points())},
                {"fig15", render_rotation(air, water)},
                {"fig17", render_freq_vs_chips(fig17)}};
  set.shape = freqcap_shape(fig07, fig08, water);
  for (const aqua::FreqVsChipsData* d : {&fig01, &fig07, &fig08, &fig17}) {
    set.cells += d->max_chips * d->series.size();
    set.failed_cells += d->failed_cells.size();
  }
  for (const auto& series : fig14) {
    for (const aqua::HtcSweepPoint& p : series) {
      ++set.cells;
      set.failed_cells += p.failed ? 1 : 0;
    }
  }
  for (const auto* points : {&air, &water}) {
    for (const aqua::RotationPoint& p : *points) {
      ++set.cells;
      set.failed_cells += p.failed ? 1 : 0;
    }
  }
  return set;
}

void account(const FreqcapSet& set, const Tables& golden,
             const std::string& what, bool print, Report& report) {
  report.attempted += set.cells;
  report.failed += set.failed_cells;
  if (set.failed_cells > 0) {
    report.fail(what + ": " + std::to_string(set.failed_cells) + " cell(s) failed");
  }
  check_tables(golden, set.tables, what, report);
  check_verdicts(set.shape, print, report);
}

}  // namespace

Tables freqcap_golden_tables() {
  return run_set(Chips{}, library_figures()).tables;
}

Report run_freqcap(const RunOptions& options) {
  Report report;
  batch_setup(options.workers);
  const Chips chips;
  const Tables golden = load_tables(golden_file(options, "freqcap.txt"));

  const double start = now_s();
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<FreqcapSet> sets;
  const Figures library = library_figures();
  while (sets.size() < 3 || now_s() - start < budget) {
    sets.push_back(run_set(chips, library));
    account(sets.back(), golden, "untraced set " + std::to_string(sets.size()),
            sets.size() == 1, report);
  }
  if (report.correct) {
    report.note("PASS tables of every set match perfbench/golden/freqcap.txt");
  }

  std::vector<double> walls, cpus, p50s, p99s, cgs;
  for (const FreqcapSet& set : sets) {
    walls.push_back(set.wall_s);
    cpus.push_back(set.cpu_s);
    p50s.push_back(median(set.figure_s) * 1000.0);
    p99s.push_back(*std::max_element(set.figure_s.begin(), set.figure_s.end()) *
                   1000.0);
    cgs.push_back(static_cast<double>(set.counters.cg_iterations));
  }
  report.note("sets " + std::to_string(sets.size()) + " untraced");

  if (!options.trace) {
    report.metrics = {{"setup_s", measure_setup(options, report)},
                      {"wall_s", median(walls)},
                      {"cpu_s", median(cpus)},
                      {"peak_rss_mb", peak_rss_mb()},
                      {"latency_p99_ms", median(p99s)}};
    report_end_to_end(report, median(p50s));
    return report;
  }

  // Traced: the same cells through the span-wrapped replay.
  LayerInputs in;
  in.workers = options.workers;
  std::vector<FreqcapSet> traced;
  const Figures replay = replay_figures();
  begin_trace();
  while (traced.empty() || now_s() - start < options.seconds) {
    traced.push_back(run_set(chips, replay));
    collect_trace(in.spans);
  }
  end_trace();
  std::vector<double> traced_walls, traced_cgs;
  for (const FreqcapSet& set : traced) {
    account(set, golden, "traced set", false, report);
    if (set.cells != sets.front().cells) {
      report.fail("traced cells " + std::to_string(set.cells) +
                  " != untraced " + std::to_string(sets.front().cells));
    }
    if (set.counters.des_events != sets.front().counters.des_events) {
      report.fail("traced DES events differ from the untraced run");
    }
    in.counters += set.counters;
    traced_walls.push_back(set.wall_s);
    traced_cgs.push_back(static_cast<double>(set.counters.cg_iterations));
  }
  check_within_spread("CG iterations per set", cgs, traced_cgs, 0.02, report);
  report.note("sets " + std::to_string(traced.size()) + " traced");
  in.sets = static_cast<double>(traced.size());
  finish_spans(options, in.spans);
  std::map<std::string, double> layers = layer_metrics(in);
  if (std::llround(layers["sweep.cells"]) !=
      static_cast<long long>(sets.front().cells)) {
    report.fail("traced runner calls per set differ from the untraced cell count");
  } else {
    report.note("PASS traced runner calls per set equal the untraced cell count");
  }
  layers["trace.overhead_pct"] =
      (median(traced_walls) / median(walls) - 1.0) * 100.0;
  report_layers(layers, report);
  return report;
}

}  // namespace perfbench
