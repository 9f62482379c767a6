/// Golden-corpus regression tests for the experiment pipeline. Each
/// scenario pins one figure family at a reduced scale and asserts that
/// these executions render bit-identically against tests/golden/<name>.txt:
///
///   1. a plain serial run,
///   2. a 1-worker and an 8-worker task-engine run (the serial reference
///      order and the task-parallel schedule must render byte-identically
///      — the engine's determinism contract),
///   3. a warm AQUA_SWEEP_CACHE run (which must also do ZERO thermal
///      solves and ZERO simulated DES instructions — cache hits skip the
///      compute entirely, they don't just speed it up).
///
/// A cross-figure phase then fills one cache from Figs. 7 and 8 and
/// replays the NPB figures from it: their caps are the same freq_cap cells,
/// so the replay must match the corpus without a single thermal solve.
///
/// Regenerate the corpus after an intended numerical change with
///   AQUA_UPDATE_GOLDEN=1 ctest -R golden

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <utility>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "sweep/cache.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"
#include "golden_util.hpp"

namespace aqua {
namespace {

using sweep_golden::WorkProbe;
using sweep_golden::clear_sweep_env;
using sweep_golden::expect_matches_golden;
using sweep_golden::read_golden;
using sweep_golden::render;

/// The corpus runs at 16x16 to keep the suite fast; the grid is part of
/// the cache key, so this never aliases the full-resolution cells.
GridOptions grid16() {
  GridOptions grid;
  grid.nx = 16;
  grid.ny = 16;
  return grid;
}

/// Drives one scenario through the serial / engine / warm-cache
/// executions. `run` executes the experiment with whatever env is
/// active and returns its rendered text.
void exercise(const std::string& name,
              const std::function<std::string()>& run) {
  namespace fs = std::filesystem;
  clear_sweep_env();
  sweep::SweepCache::instance().configure("");

  // --- 1. serial: the reference output, compared against the corpus.
  const std::string serial = run();
  expect_matches_golden(name + ".txt", serial);

  // --- 1b. the task engine at 1 worker (serial submission order) and at 8
  // workers (steals, overlapped lanes, single-flight memo) must both
  // render bit-identically to the reference.
  sweep::TaskEngine& engine = sweep::TaskEngine::shared();
  engine.configure(1);
  const std::string one_worker = run();
  EXPECT_EQ(one_worker, serial) << "1-worker engine run diverged from serial";
  engine.configure(8);
  const std::string eight_workers = run();
  EXPECT_EQ(eight_workers, serial)
      << "8-worker engine run diverged from serial";
  engine.configure(0);  // back to the env-default worker count

  // --- 2. cold run populates a fresh cache; warm run must be bit-identical
  // and do no thermal/DES work at all.
  const std::string cache_dir =
      std::string(::testing::TempDir()) + "aqua_golden_" + name;
  fs::remove_all(cache_dir);
  sweep::SweepCache::instance().configure(cache_dir);
  const std::string cold = run();
  EXPECT_EQ(cold, serial) << "cold cached run diverged from serial";
  WorkProbe warm_probe;
  const std::string warm = run();
  EXPECT_EQ(warm, serial) << "warm cached run diverged from serial";
  EXPECT_EQ(warm_probe.solves(), 0u)
      << "a warm run must not solve the thermal system";
  EXPECT_EQ(warm_probe.des_instructions(), 0u)
      << "a warm run must not re-simulate the DES";
  sweep::SweepCache::instance().configure("");
}

// ------------------------------------------------------- the corpus --

TEST(Golden, Fig07FreqVsChipsLowPower) {
  exercise("fig07g", [] {
    return render(frequency_vs_chips(make_low_power_cmp(), 5, 80.0, grid16()));
  });
}

TEST(Golden, Fig08FreqVsChipsHighFrequency) {
  exercise("fig08g", [] {
    return render(
        frequency_vs_chips(make_high_frequency_cmp(), 4, 80.0, grid16()));
  });
}

std::string fig10() {
  return render(npb_experiment(make_low_power_cmp(), 6,
                               CoolingKind::kWaterPipe, 80.0,
                               /*instruction_scale=*/0.02, grid16()));
}

std::string fig11() {
  return render(npb_experiment(make_low_power_cmp(), 8,
                               CoolingKind::kMineralOil, 80.0,
                               /*instruction_scale=*/0.012, grid16()));
}

std::string fig12() {
  return render(npb_experiment(make_high_frequency_cmp(), 6,
                               CoolingKind::kWaterPipe, 80.0,
                               /*instruction_scale=*/0.012, grid16()));
}

std::string fig13() {
  return render(npb_experiment(make_high_frequency_cmp(), 8,
                               CoolingKind::kWaterPipe, 80.0,
                               /*instruction_scale=*/0.01, grid16()));
}

TEST(Golden, Fig10Npb6ChipLowPower) { exercise("fig10g", fig10); }

TEST(Golden, Fig11Npb8ChipLowPower) { exercise("fig11g", fig11); }

TEST(Golden, Fig12Npb6ChipHighFrequency) { exercise("fig12g", fig12); }

TEST(Golden, Fig13Npb8ChipHighFrequency) { exercise("fig13g", fig13); }

TEST(Golden, Fig14HtcSweep) {
  exercise("fig14g", [] {
    return render(htc_sweep(make_low_power_cmp(), 3,
                            {50.0, 200.0, 800.0, 2400.0}, grid16()));
  });
}

TEST(Golden, Fig15RotationSweep) {
  exercise("fig15g", [] {
    return render(rotation_sweep(make_high_frequency_cmp(), 3,
                                 CoolingOption(CoolingKind::kWaterImmersion),
                                 grid16()));
  });
}

// ------------------------------------------------ cross-figure reuse --

/// Figs. 7 and 8, run up to 8 chips, fill one cache with every freq_cap
/// cell the NPB figures need. Figs. 10-13 then replay from that cache:
/// byte-identical to their fresh runs (the corpus), with every cap served
/// from the cache. This holds only because a cap does not depend on which
/// figure's worker computed it or what that worker solved before.
TEST(Golden, CrossFigureCapsReplayFromAFig07Fig08Cache) {
  namespace fs = std::filesystem;
  clear_sweep_env();
  const std::string cache_dir =
      std::string(::testing::TempDir()) + "aqua_golden_cross_figure";
  fs::remove_all(cache_dir);
  sweep::SweepCache::instance().configure(cache_dir);
  (void)frequency_vs_chips(make_low_power_cmp(), 8, 80.0, grid16());
  (void)frequency_vs_chips(make_high_frequency_cmp(), 8, 80.0, grid16());

  const std::pair<const char*, std::string (*)()> replays[] = {
      {"fig10g", fig10}, {"fig11g", fig11}, {"fig12g", fig12},
      {"fig13g", fig13}};
  for (const auto& [name, run] : replays) {
    SCOPED_TRACE(name);
    WorkProbe probe;
    // Compared, never written: AQUA_UPDATE_GOLDEN regenerates the corpus
    // from the fresh runs above, not from a replay.
    EXPECT_EQ(run(), read_golden(std::string(name) + ".txt"));
    EXPECT_EQ(probe.solves(), 0u)
        << "every cap must be served from the Fig. 7/8 cache";
  }
  sweep::SweepCache::instance().configure("");
}

}  // namespace
}  // namespace aqua
