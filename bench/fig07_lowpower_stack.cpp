/// Figure 7: maximum chip operating frequency vs. number of chips in a
/// stacked low-power CMP (1.0-2.0 GHz VFS, 47.2 W max) for all five cooling
/// options at the 80 C threshold. Paper findings: air and water-pipe carry
/// at most 4 and 7 chips; immersion continues to 14; water on top.

#include <chrono>

#include "bench_util.hpp"
#include "power/chip_model.hpp"

namespace {

void microbench_steady_solve(benchmark::State& state) {
  const aqua::ChipModel chip = aqua::make_low_power_cmp();
  const aqua::PackageConfig pkg;
  const aqua::Stack3d stack(chip.floorplan(),
                            static_cast<std::size_t>(state.range(0)),
                            aqua::FlipPolicy::kNone);
  aqua::StackThermalModel model(
      stack, pkg,
      aqua::CoolingOption(aqua::CoolingKind::kWaterImmersion).boundary(pkg));
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), aqua::gigahertz(1.5)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve_steady(powers));
  }
}
BENCHMARK(microbench_steady_solve)->Arg(4)->Arg(14)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::install_interrupt_guard();
  aqua::bench::banner("Figure 7",
                      "max frequency vs. #chips, low-power CMP, 80 C");
  const auto sweep_start = std::chrono::steady_clock::now();
  const aqua::FreqVsChipsData data =
      aqua::frequency_vs_chips(aqua::make_low_power_cmp(), 14);
  const double sweep_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   sweep_start)
                                   .count();
  if (aqua::bench::interrupted_epilogue("fig07")) {
    return aqua::bench::kInterruptedExit;
  }
  aqua::bench::freq_vs_chips_table(data).print(std::cout);

  std::cout << "\npaper: air <= 4 chips, water-pipe <= 7, immersion to 14, "
               "order air < pipe < oil <= fluorinert <= water\n"
            << "measured max chips:";
  aqua::bench::JsonReport report("fig07_lowpower");
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
