/// Figure 8: maximum chip operating frequency vs. number of chips in a
/// stacked high-frequency CMP (1.2-3.6 GHz VFS, 56.8 W max), five cooling
/// options, 80 C. Paper findings: same coolant ordering as Fig. 7, and the
/// wider VFS range lets the high-frequency chip stack higher than the
/// low-power chip despite its higher peak power.

#include <chrono>

#include "bench_util.hpp"
#include "power/chip_model.hpp"

namespace {

void microbench_freq_search(benchmark::State& state) {
  const aqua::ChipModel chip = aqua::make_high_frequency_cmp();
  aqua::MaxFrequencyFinder finder(chip, aqua::PackageConfig{}, 80.0);
  const aqua::CoolingOption opt(aqua::CoolingKind::kFluorinert);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        finder.find(static_cast<std::size_t>(state.range(0)), opt));
  }
}
BENCHMARK(microbench_freq_search)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::install_interrupt_guard();
  aqua::bench::banner("Figure 8",
                      "max frequency vs. #chips, high-frequency CMP, 80 C");
  const auto sweep_start = std::chrono::steady_clock::now();
  const aqua::FreqVsChipsData data =
      aqua::frequency_vs_chips(aqua::make_high_frequency_cmp(), 15);
  const double sweep_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   sweep_start)
                                   .count();
  if (aqua::bench::interrupted_epilogue("fig08")) {
    return aqua::bench::kInterruptedExit;
  }
  aqua::bench::freq_vs_chips_table(data).print(std::cout);

  std::cout << "\npaper: immersion reaches 14-15 chips; water-pipe carries "
               "the 8-chip stack (Fig. 13 baseline); water on top\n"
            << "measured max chips:";
  aqua::bench::JsonReport report("fig08_highfreq");
  for (const auto& s : data.series) {
    const std::size_t chips = data.max_feasible_chips(s.cooling);
    std::cout << ' ' << to_string(s.cooling) << '=' << chips;
    report.add(std::string("max_chips_") + to_string(s.cooling), chips);
  }
  std::cout << "\n\n";
  report.add_stats("sweep", data.cost.sum.work);
  report.add("sweep_wall_seconds", sweep_seconds, 3);
  report.add_sweep_provenance(data.cost.cells, data.cached_cells, 0,
                              data.failed_cells.size());
  report.add_cost_breakdown(data.cost);
  report.write();
  return aqua::bench::run_microbenchmarks(argc, argv);
}
