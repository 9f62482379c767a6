/// DES / NoC performance: wall-time and event-efficiency of the cycle-level
/// CMP simulator that produces Figs. 10-13.
///
/// The headline table runs fixed NPB cells (workload x chip count) and
/// reports wall seconds, simulated cycles/second and events per
/// instruction for each. The numbers land in BENCH_perf_noc.json
/// (schema_version + git provenance via JsonReport) so the DES perf
/// trajectory is tracked per PR alongside the solver's.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "perf/noc.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct CellRun {
  aqua::ExecStats stats;
  double seconds = 0.0;
  std::uint64_t events = 0;  ///< DES events scheduled by this run
};

CellRun run_cell(const std::string& workload, std::size_t chips) {
  aqua::CmpConfig cfg;
  cfg.chips = chips;
  aqua::WorkloadProfile p = aqua::npb_profile(workload);
  p.instructions_per_thread = 12'000;

  aqua::CmpSystem system(cfg, p, aqua::gigahertz(1.6), /*seed=*/1);
  aqua::obs::Counter& events_counter =
      aqua::obs::Registry::instance().counter("perf.events");
  const std::uint64_t events0 = events_counter.value();
  const auto t0 = Clock::now();
  CellRun run;
  run.stats = system.run();
  run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  run.events = events_counter.value() - events0;
  return run;
}

// ------------------------------------------------------- micro-timings ----

/// Full-system DES run (FT profile, short trace) per iteration.
void microbench_des_run(benchmark::State& state) {
  aqua::CmpConfig cfg;
  cfg.chips = static_cast<std::size_t>(state.range(0));
  aqua::WorkloadProfile p = aqua::npb_profile("ft");
  p.instructions_per_thread = 3000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    aqua::CmpSystem system(cfg, p, aqua::gigahertz(1.6), seed++);
    benchmark::DoNotOptimize(system.run());
  }
}
BENCHMARK(microbench_des_run)->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

/// Raw mesh throughput: uniform-random 5-flit packets, tick to drain.
void microbench_mesh_drain(benchmark::State& state) {
  aqua::CmpConfig cfg;
  cfg.chips = static_cast<std::size_t>(state.range(0));
  const auto tiles = static_cast<aqua::NodeId>(cfg.total_tiles());
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    aqua::Mesh3d mesh(cfg, [&delivered](const aqua::Packet&) { ++delivered; });
    std::mt19937_64 rng(7);
    aqua::Cycle now = 0;
    for (int burst = 0; burst < 64; ++burst) {
      for (int i = 0; i < 32; ++i) {
        aqua::Packet pkt;
        pkt.src = static_cast<aqua::NodeId>(rng() % tiles);
        pkt.dst = static_cast<aqua::NodeId>(rng() % tiles);
        pkt.vc = static_cast<std::uint8_t>(rng() % 3);
        pkt.flits = 5;
        mesh.inject(now, pkt);
      }
      while (mesh.active()) mesh.tick(++now);
      ++now;
    }
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(microbench_mesh_drain)->Arg(2)->Arg(6)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("NoC/DES",
                      "event-queue and mesh fast-path performance");

  const std::vector<std::string> workloads = {"ft", "cg"};
  const std::vector<std::size_t> chip_counts = {2, 6};

  aqua::Table t({"bench", "chips", "calendar_s", "cycles", "Mcyc_per_s",
                 "ev_per_instr"});
  aqua::bench::JsonReport report("perf_noc");

  for (const std::string& w : workloads) {
    for (std::size_t chips : chip_counts) {
      const CellRun cal = run_cell(w, chips);
      const double mcps =
          cal.seconds > 0.0
              ? static_cast<double>(cal.stats.cycles) / cal.seconds / 1e6
              : 0.0;
      const double ev_per_instr =
          cal.stats.instructions > 0
              ? static_cast<double>(cal.events) /
                    static_cast<double>(cal.stats.instructions)
              : 0.0;
      t.row()
          .add(w)
          .add_int(static_cast<long long>(chips))
          .add(cal.seconds, 3)
          .add_int(static_cast<long long>(cal.stats.cycles))
          .add(mcps, 2)
          .add(ev_per_instr, 3);

      const std::string key = w + "_" + std::to_string(chips) + "chip";
      report.add(key + "_calendar_seconds", cal.seconds, 4);
      report.add(key + "_cycles", static_cast<std::int64_t>(cal.stats.cycles));
      report.add(key + "_cycles_per_second",
                 cal.seconds > 0.0
                     ? static_cast<double>(cal.stats.cycles) / cal.seconds
                     : 0.0,
                 0);
      report.add(key + "_events_per_instruction", ev_per_instr, 4);
      report.add(key + "_noc_ticks",
                 static_cast<std::int64_t>(cal.stats.noc.ticks));
      report.add(key + "_noc_cycles_skipped",
                 static_cast<std::int64_t>(cal.stats.noc.cycles_skipped));
    }
  }

  t.print(std::cout);
  report.write();
  return aqua::bench::run_microbenchmarks(argc, argv);
}
