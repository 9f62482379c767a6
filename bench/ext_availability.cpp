/// Extension: immersion availability over deployment years. Couples the
/// Section 2.2 per-component hazard model (Fig. 2 calibration) to
/// cluster-level effective throughput: an air-cooled cluster, a fully
/// immersed tap-water cluster, and an immersed cluster with the paper's
/// masking recommendation applied (deep connectors above the waterline,
/// micro cells removed). The PCIex4 penalty is calibrated with two real
/// DES runs (fault-free vs. one failed mesh link).

#include "bench_util.hpp"
#include "core/pue.hpp"
#include "resilience/availability.hpp"

namespace {

void microbench_availability_mc(benchmark::State& state) {
  aqua::AvailabilityOptions options;
  options.boards = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqua::availability_experiment(options));
  }
}
BENCHMARK(microbench_availability_mc)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Extension",
                      "cluster availability: air vs. immersed vs. masked");

  aqua::AvailabilityOptions options;
  // The Section 4.4 chilled-air facility sets the air variant's PUE.
  options.air_pue =
      aqua::evaluate_facility({aqua::FacilityCooling::kChilledAir}).pue;
  const aqua::AvailabilityResult result =
      aqua::availability_experiment(options);

  aqua::Table table({"years", "air_alive", "air_tput", "wet_alive",
                     "wet_tput", "masked_alive", "masked_tput",
                     "masked_tput_per_W"});
  const auto& air = result.curves[0];
  const auto& wet = result.curves[1];
  const auto& masked = result.curves[2];
  for (std::size_t e = 0; e < air.epochs.size(); ++e) {
    // One row per year is enough for the printed table.
    if (e % options.epochs_per_year != 0) continue;
    table.row()
        .add(air.epochs[e].years, 1)
        .add(air.epochs[e].alive_fraction, 3)
        .add(air.epochs[e].effective_throughput, 3)
        .add(wet.epochs[e].alive_fraction, 3)
        .add(wet.epochs[e].effective_throughput, 3)
        .add(masked.epochs[e].alive_fraction, 3)
        .add(masked.epochs[e].effective_throughput, 3)
        .add(masked.epochs[e].throughput_per_watt, 3);
  }
  table.print(std::cout);

  std::cout << "\nDES-calibrated one-link-fault throughput ratio: "
            << result.link_fault_throughput_ratio
            << "\nmasked immersion keeps the hazard of the paper's flat "
               "components only, at PUE "
            << masked.pue << " vs. air " << air.pue << "\n\n";

  aqua::bench::JsonReport report("availability");
  report.add("boards", options.boards)
      .add("horizon_years", options.horizon_years)
      .add("link_fault_throughput_ratio",
           result.link_fault_throughput_ratio);
  for (const aqua::AvailabilityCurve& curve : result.curves) {
    const aqua::AvailabilityEpoch& end = curve.epochs.back();
    report.add(curve.variant + "_pue", curve.pue)
        .add(curve.variant + "_alive_end", end.alive_fraction)
        .add(curve.variant + "_tput_end", end.effective_throughput)
        .add(curve.variant + "_tput_per_watt_end", end.throughput_per_watt)
        .add(curve.variant + "_boards_offline", curve.boards_offline)
        .add(curve.variant + "_component_failures", curve.component_failures)
        .add(curve.variant + "_cells_discharged", curve.cells_discharged);
  }
  report.write();
  return aqua::bench::run_microbenchmarks(argc, argv);
}
