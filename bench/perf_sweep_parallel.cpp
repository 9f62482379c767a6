/// Task-engine scaling bench: cells/sec and wall-clock for a fig07+fig10
/// mix (a frequency-vs-chips sweep plus an NPB experiment) at 1/2/4/8
/// workers, with a bit-identity gate — every worker count must render
/// byte-identical tables to the 1-worker reference, or the bench exits
/// non-zero. Also records the engine's batch dispatch rate for empty
/// tasks.
///
/// Emits BENCH_sweep_parallel.json (schema v4). AQUA_NPB_SCALE scales the
/// DES portion as usual; the sweep cache/journal/shard env is cleared so
/// every run is a cold compute (warm runs would void the scaling numbers).

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "power/chip_model.hpp"
#include "resilience/journal.hpp"
#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/shard.hpp"
#include "sweep/task_engine.hpp"

namespace {

constexpr std::size_t kFreqChips = 8;
constexpr std::size_t kNpbChips = 6;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact (shortest round-trip) rendering, so "identical" means
/// bit-identical numerics — the same property the golden corpus asserts.
std::string exact(const std::optional<double>& d) {
  return d.has_value() ? aqua::sweep::format_double_exact(*d)
                       : std::string("-");
}

std::string render(const aqua::FreqVsChipsData& data) {
  std::ostringstream os;
  for (const aqua::FreqVsChipsSeries& s : data.series) {
    for (std::size_t n = 0; n < s.ghz.size(); ++n) {
      os << to_string(s.cooling) << ' ' << (n + 1) << ' ' << exact(s.ghz[n])
         << '\n';
    }
  }
  return os.str();
}

std::string render(const aqua::NpbData& data) {
  std::ostringstream os;
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    os << "cap " << to_string(data.coolings[k]) << ' '
       << (data.caps[k].feasible
               ? aqua::sweep::format_double_exact(
                     data.caps[k].max_temperature_c)
               : std::string("-"))
       << '\n';
  }
  for (const aqua::NpbRow& row : data.rows) {
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      os << row.benchmark << ' ' << to_string(data.coolings[k]) << ' '
         << exact(row.seconds[k]) << ' ' << exact(row.relative[k]) << '\n';
    }
  }
  return os.str();
}

struct MixResult {
  std::string rendered;
  double wall_seconds = 0.0;
  std::size_t cells = 0;
  std::uint64_t steals = 0;
};

MixResult run_mix(std::size_t workers) {
  aqua::sweep::TaskEngine::shared().configure(workers);
  const std::uint64_t steals_before =
      aqua::obs::Registry::instance().counter("engine.steals").value();
  const double t0 = now_seconds();
  const aqua::FreqVsChipsData freq =
      aqua::frequency_vs_chips(aqua::make_low_power_cmp(), kFreqChips);
  const aqua::NpbData npb = aqua::npb_experiment(
      aqua::make_low_power_cmp(), kNpbChips, aqua::CoolingKind::kWaterPipe,
      80.0, aqua::bench::npb_scale() * 0.1);
  MixResult r;
  r.wall_seconds = now_seconds() - t0;
  r.rendered = render(freq) + render(npb);
  r.cells = freq.max_chips * freq.series.size()   // freq cells
            + npb.coolings.size()                 // cap cells
            + (npb.rows.size() - 1) * npb.coolings.size();  // DES slots
  r.steals = aqua::obs::Registry::instance().counter("engine.steals").value() -
             steals_before;
  return r;
}

/// Dispatch-overhead micro-number: engine tasks/sec for 100k empty tasks.
constexpr std::size_t kNoopTasks = 100000;

double engine_tasks_per_sec() {
  std::vector<aqua::sweep::TaskEngine::Task> tasks(kNoopTasks);
  for (auto& t : tasks) {
    t.body = [](aqua::sweep::WorkerContext&) {};
  }
  const double t0 = now_seconds();
  aqua::sweep::TaskEngine::shared().run(std::move(tasks));
  return static_cast<double>(kNoopTasks) / (now_seconds() - t0);
}

void microbench_engine_dispatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<aqua::sweep::TaskEngine::Task> tasks(n);
    for (auto& t : tasks) {
      t.body = [](aqua::sweep::WorkerContext&) {};
    }
    aqua::sweep::TaskEngine::shared().run(std::move(tasks));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(microbench_engine_dispatch)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Sweep scaling",
                      "fig07+fig10 mix at 1/2/4/8 engine workers");
  // Cold computes only: a warm cache or resume journal would serve cells
  // without work and void both the scaling numbers and the gate.
  ::unsetenv(aqua::sweep::SweepCache::kEnv);
  ::unsetenv(aqua::SweepJournal::kResumeEnv);
  ::unsetenv(aqua::SweepJournal::kPoisonEnv);
  ::unsetenv(aqua::sweep::ShardPlan::kShardsEnv);
  ::unsetenv(aqua::sweep::ShardPlan::kShardIdEnv);
  aqua::sweep::SweepCache::instance().configure("");

  aqua::bench::JsonReport report("sweep_parallel");
  report.add("freq_chips", kFreqChips)
      .add("npb_chips", kNpbChips)
      .add("npb_scale", aqua::bench::npb_scale() * 0.1);

  bool identical = true;
  MixResult reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const MixResult r = run_mix(workers);
    const std::string w = std::to_string(workers);
    const bool matches = workers == 1 || r.rendered == reference.rendered;
    if (workers == 1) reference = r;
    identical = identical && matches;
    const double cells_per_sec =
        static_cast<double>(r.cells) / r.wall_seconds;
    const double speedup = reference.wall_seconds / r.wall_seconds;
    std::cout << "workers=" << workers << " wall=" << r.wall_seconds
              << "s cells/sec=" << cells_per_sec << " speedup=" << speedup
              << " steals=" << r.steals
              << (matches ? "" : "  TABLE MISMATCH") << "\n";
    report.add("wall_seconds_w" + w, r.wall_seconds)
        .add("cells_per_sec_w" + w, cells_per_sec)
        .add("speedup_w" + w, speedup)
        .add("steals_w" + w, static_cast<std::size_t>(r.steals))
        .add("identical_w" + w, matches);
  }
  aqua::sweep::TaskEngine::shared().configure(0);

  const double engine_rate = engine_tasks_per_sec();
  std::cout << "dispatch tasks/sec: engine=" << engine_rate << "\n\n";
  report.add("engine_tasks_per_sec", engine_rate)
      .add("tables_identical", identical);
  report.write();

  if (!identical) {
    std::cerr << "FAIL: task-parallel tables diverged from the 1-worker "
                 "reference\n";
    return 1;
  }
  return aqua::bench::run_microbenchmarks(argc, argv);
}
