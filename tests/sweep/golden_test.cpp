/// Golden-corpus regression tests for the experiment pipeline. Each
/// scenario pins one figure family at a reduced scale and asserts three
/// executions render bit-identically against tests/golden/<name>.txt:
///
///   1. a plain serial run,
///   2. a 1-worker and an 8-worker task-engine run (the serial reference
///      order and the task-parallel schedule must render byte-identically
///      — the engine's determinism contract),
///   3. a warm AQUA_SWEEP_CACHE run (which must also do ZERO thermal
///      solves and ZERO simulated DES instructions — cache hits skip the
///      compute entirely, they don't just speed it up),
///   4. for a representative subset, a 4-shard run whose per-shard
///      journals are merged and replayed (again with zero recompute).
///
/// Regenerate the corpus after an intended numerical change with
///   AQUA_UPDATE_GOLDEN=1 ctest -R golden

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "resilience/journal.hpp"
#include "sweep/cache.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"
#include "sweep/task_engine.hpp"
#include "golden_util.hpp"

namespace aqua {
namespace {

using sweep_golden::ScopedEnv;
using sweep_golden::WorkProbe;
using sweep_golden::clear_sweep_env;
using sweep_golden::expect_matches_golden;
using sweep_golden::render;

/// The corpus runs at 16x16 to keep the suite fast; the grid is part of
/// the cache key, so this never aliases the full-resolution cells.
GridOptions grid16() {
  GridOptions grid;
  grid.nx = 16;
  grid.ny = 16;
  return grid;
}

/// Drives one scenario through the serial / warm-cache / (optionally)
/// sharded executions. `run` executes the experiment with whatever env is
/// active and returns its rendered text.
void exercise(const std::string& name, bool shard_phase,
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

  if (!shard_phase) {
    return;
  }

  // --- 3. four disjoint shard passes (cache off, so the shards really
  // compute), merged journals, and a resume replay of the merged file.
  constexpr int kShards = 4;
  std::vector<std::string> shard_files;
  for (int k = 0; k < kShards; ++k) {
    const std::string file = std::string(::testing::TempDir()) +
                             "aqua_golden_" + name + "_shard" +
                             std::to_string(k) + ".jsonl";
    fs::remove(file);
    ScopedEnv shards(sweep::ShardPlan::kShardsEnv, std::to_string(kShards));
    ScopedEnv shard_id(sweep::ShardPlan::kShardIdEnv, std::to_string(k));
    ScopedEnv journal(SweepJournal::kResumeEnv, file);
    run();
    shard_files.push_back(file);
  }
  const std::string merged = std::string(::testing::TempDir()) +
                             "aqua_golden_" + name + "_merged.jsonl";
  fs::remove(merged);
  const std::size_t records = sweep::merge_journal_files(merged, shard_files);
  EXPECT_GT(records, 0u);
  ScopedEnv journal(SweepJournal::kResumeEnv, merged);
  WorkProbe replay_probe;
  const std::string replayed = run();
  EXPECT_EQ(replayed, serial) << "merged-shard replay diverged from serial";
  EXPECT_EQ(replay_probe.solves(), 0u)
      << "the merged journal must cover every thermal cell";
  EXPECT_EQ(replay_probe.des_instructions(), 0u)
      << "the merged journal must cover every DES cell";
}

// ------------------------------------------------------- the corpus --

TEST(Golden, Fig07FreqVsChipsLowPower) {
  exercise("fig07g", /*shard_phase=*/true, [] {
    return render(frequency_vs_chips(make_low_power_cmp(), 5, 80.0, grid16()));
  });
}

TEST(Golden, Fig08FreqVsChipsHighFrequency) {
  exercise("fig08g", /*shard_phase=*/false, [] {
    return render(
        frequency_vs_chips(make_high_frequency_cmp(), 4, 80.0, grid16()));
  });
}

TEST(Golden, Fig10Npb6ChipLowPower) {
  exercise("fig10g", /*shard_phase=*/true, [] {
    return render(npb_experiment(make_low_power_cmp(), 6,
                                 CoolingKind::kWaterPipe, 80.0,
                                 /*instruction_scale=*/0.02, grid16()));
  });
}

TEST(Golden, Fig11Npb8ChipLowPower) {
  exercise("fig11g", /*shard_phase=*/false, [] {
    return render(npb_experiment(make_low_power_cmp(), 8,
                                 CoolingKind::kMineralOil, 80.0,
                                 /*instruction_scale=*/0.012, grid16()));
  });
}

TEST(Golden, Fig12Npb6ChipHighFrequency) {
  exercise("fig12g", /*shard_phase=*/false, [] {
    return render(npb_experiment(make_high_frequency_cmp(), 6,
                                 CoolingKind::kWaterPipe, 80.0,
                                 /*instruction_scale=*/0.012, grid16()));
  });
}

TEST(Golden, Fig13Npb8ChipHighFrequency) {
  exercise("fig13g", /*shard_phase=*/false, [] {
    return render(npb_experiment(make_high_frequency_cmp(), 8,
                                 CoolingKind::kWaterPipe, 80.0,
                                 /*instruction_scale=*/0.01, grid16()));
  });
}

TEST(Golden, Fig14HtcSweep) {
  exercise("fig14g", /*shard_phase=*/true, [] {
    return render(htc_sweep(make_low_power_cmp(), 3,
                            {50.0, 200.0, 800.0, 2400.0}, grid16()));
  });
}

TEST(Golden, Fig15RotationSweep) {
  exercise("fig15g", /*shard_phase=*/false, [] {
    return render(rotation_sweep(make_high_frequency_cmp(), 3,
                                 CoolingOption(CoolingKind::kWaterImmersion),
                                 grid16()));
  });
}

}  // namespace
}  // namespace aqua
