/// Shard scheduler and SweepRunner tests: env parsing, the deterministic
/// partition, the runner's source-precedence contract, the AQUA_FAULT_CELL
/// spec, and the concatenated per-shard caches that reassemble a full
/// table.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sweep/cache.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"

namespace aqua::sweep {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

void clear_sweep_env() {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ::unsetenv(ShardPlan::kShardsEnv);
  ::unsetenv(ShardPlan::kShardIdEnv);
}

std::string temp_path(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/aqua_shard_" + tag;
}

/// A deterministic stand-in for a sweep's physics: pure function of the
/// cell key, expensive enough to notice if it ran (via the counter).
std::map<std::string, double> fake_compute(const CellConfig& config,
                                           int* computed) {
  if (computed != nullptr) ++*computed;
  return {{"value", static_cast<double>(config.hash() % 1000)}};
}

// --------------------------------------------------------------- ShardPlan --

TEST(ShardPlan, UnsetEnvIsSingleShard) {
  clear_sweep_env();
  const ShardPlan plan = ShardPlan::from_env();
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.id, 0u);
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.owns(0));
  EXPECT_TRUE(plan.owns(0xfeedfacedeadbeefull));
}

TEST(ShardPlan, ParsesShardsAndId) {
  clear_sweep_env();
  ScopedEnv shards(ShardPlan::kShardsEnv, "4");
  ScopedEnv id(ShardPlan::kShardIdEnv, "2");
  const ShardPlan plan = ShardPlan::from_env();
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.id, 2u);
  EXPECT_TRUE(plan.active());
}

TEST(ShardPlan, MalformedEnvThrows) {
  clear_sweep_env();
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "four");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "0");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "-2");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, "4");  // 0-based: must be < shards
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, "1x");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
}

TEST(ShardPlan, PartitionIsTotalAndDisjoint) {
  // Every hash is owned by exactly one of N shards — the no-coordination
  // invariant behind idempotent shard re-runs.
  for (std::size_t n : {2u, 3u, 4u, 7u}) {
    for (std::uint64_t h = 0; h < 1000; ++h) {
      std::size_t owners = 0;
      for (std::size_t k = 0; k < n; ++k) {
        ShardPlan plan;
        plan.shards = n;
        plan.id = k;
        owners += plan.owns(h) ? 1 : 0;
      }
      ASSERT_EQ(owners, 1u) << "hash " << h << " shards " << n;
    }
  }
}

// -------------------------------------------------------------- SweepRunner --

TEST(SweepRunner, ComputesAppliesAndCounts) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  SweepRunner runner("runner_basic");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  int computed = 0;
  double applied = -1.0;
  const CellSource src = runner.run(
      config, "cell-a", {}, [&] { return fake_compute(config, &computed); },
      [&](const std::map<std::string, double>& values) {
        applied = values.at("value");
      });
  EXPECT_EQ(src, CellSource::kComputed);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(applied, static_cast<double>(config.hash() % 1000));
  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cells(), 1u);
}

TEST(SweepRunner, MemoDedupesIdenticalCellsUnderDistinctNames) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  SweepRunner runner("runner_memo");
  const CellConfig config = npb_des_cell(6, 4, "ft", 1.6e9, 1000, 1, false);
  int computed = 0;
  double first = -1.0;
  double second = -2.0;
  EXPECT_EQ(runner.run(config, "slot-oil", {},
                       [&] { return fake_compute(config, &computed); },
                       [&](const std::map<std::string, double>& v) {
                         first = v.at("value");
                       }),
            CellSource::kComputed);
  EXPECT_EQ(runner.run(config, "slot-fluorinert", {},
                       [&] { return fake_compute(config, &computed); },
                       [&](const std::map<std::string, double>& v) {
                         second = v.at("value");
                       }),
            CellSource::kMemo);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first, second);
  EXPECT_EQ(runner.stats().memo_hits, 1u);
}

TEST(SweepRunner, PoisonSpecTargetsSweepAndCell) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  ScopedEnv env(SweepRunner::kPoisonEnv,
                "fig07:chips=2;cooling=water,npb:chips=1;bench=cg");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  int computed = 0;
  const auto run = [&](SweepRunner& runner, const std::string& cell) {
    return runner.run(config, cell, {},
                      [&] { return fake_compute(config, &computed); },
                      [](const std::map<std::string, double>&) {});
  };
  // A poisoned cell fails before the memo, so it neither computes nor is
  // served from an identical key that an unpoisoned cell already computed.
  SweepRunner fig07("fig07");
  EXPECT_EQ(run(fig07, "chips=2;cooling=water"), CellSource::kFailed);
  EXPECT_EQ(run(fig07, "chips=1;bench=cg"), CellSource::kComputed);
  EXPECT_EQ(run(fig07, "chips=3;cooling=water"), CellSource::kMemo);
  EXPECT_EQ(run(fig07, "chips=2;cooling=water"), CellSource::kFailed);
  EXPECT_EQ(fig07.stats().failed, 2u);
  SweepRunner npb("npb");
  EXPECT_EQ(run(npb, "chips=1;bench=cg"), CellSource::kFailed);
  EXPECT_EQ(run(npb, "chips=2;cooling=water"), CellSource::kComputed);
  EXPECT_EQ(computed, 2);
}

TEST(SweepRunner, ShardSkipLeavesHolesAndCountsThem) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  // Run the same 32-cell sweep as each of 4 shards; every cell must be
  // computed by exactly one shard and skipped by the other three.
  std::vector<CellConfig> cells;
  for (std::size_t i = 0; i < 32; ++i) {
    cells.push_back(htc_cell("low_power", 4, 10.0 * static_cast<double>(i + 1), {}));
  }
  std::map<std::string, int> computed_by;
  std::size_t total_computed = 0;
  std::size_t total_skipped = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("runner_shard");
    for (const CellConfig& cell : cells) {
      runner.run(cell, cell.canonical(), {},
                 [&] {
                   ++computed_by[cell.canonical()];
                   return fake_compute(cell, nullptr);
                 },
                 [](const std::map<std::string, double>&) {});
    }
    total_computed += runner.stats().computed;
    total_skipped += runner.stats().shard_skipped;
  }
  EXPECT_EQ(total_computed, cells.size());
  EXPECT_EQ(total_skipped, cells.size() * 3);
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(computed_by[cell.canonical()], 1) << cell.canonical();
  }
}

TEST(SweepRunner, UnshardablePolicyRunsOnEveryShard) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  const CellConfig config = freq_cap_cell("low_power", 6, "water", 80.0, {});
  CellPolicy policy;
  policy.shardable = false;
  int computed = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    ScopedEnv shards(ShardPlan::kShardsEnv, "3");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("runner_cap");
    EXPECT_EQ(runner.run(config, "cap-cell", policy,
                         [&] { return fake_compute(config, &computed); },
                         [](const std::map<std::string, double>&) {}),
              CellSource::kComputed);
  }
  EXPECT_EQ(computed, 3);
}

// ------------------------------------------------------- shard assembly --

TEST(SweepRunner, ShardedCachesReassembleTheFullTable) {
  namespace fs = std::filesystem;
  clear_sweep_env();
  std::vector<CellConfig> cells;
  for (std::size_t i = 0; i < 24; ++i) {
    cells.push_back(rotation_cell("high_freq", 4, "water", i,
                                  1.0e9 + 1e8 * static_cast<double>(i), {}));
  }
  // Unshardable: every shard computes and caches it, so the concatenated
  // file carries it three times.
  const CellConfig cap = freq_cap_cell("high_freq", 4, "water", 80.0, {});
  CellPolicy cap_policy;
  cap_policy.shardable = false;

  // Shard passes: 3 workers, each with its own cache directory.
  std::map<std::string, double> serial;
  std::vector<std::string> shard_dirs;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string dir = temp_path("cache_shard" + std::to_string(k));
    fs::remove_all(dir);
    shard_dirs.push_back(dir);
    SweepCache::instance().configure(dir);
    ScopedEnv shards(ShardPlan::kShardsEnv, "3");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("merge_sweep");
    runner.run(cap, "cap", cap_policy,
               [&] { return fake_compute(cap, nullptr); },
               [&](const std::map<std::string, double>& v) {
                 serial[cap.canonical()] = v.at("value");
               });
    for (const CellConfig& cell : cells) {
      runner.run(cell, cell.canonical(), {},
                 [&] { return fake_compute(cell, nullptr); },
                 [&](const std::map<std::string, double>& v) {
                   serial[cell.canonical()] = v.at("value");
                 });
    }
  }
  ASSERT_EQ(serial.size(), cells.size() + 1);

  // `cat` the shard files into one cache, then tear its tail the way a
  // killed writer would: the lenient loader skips the torn line and
  // dedups the repeated cap records.
  const std::string merged = temp_path("cache_merged");
  fs::remove_all(merged);
  fs::create_directories(merged);
  const fs::path merged_file = fs::path(merged) / SweepCache::kFileName;
  {
    std::ofstream out(merged_file);
    for (const std::string& dir : shard_dirs) {
      std::ifstream in(fs::path(dir) / SweepCache::kFileName);
      out << in.rdbuf();
    }
    out << "{\"kind\": \"sweep_c";
  }
  SweepCache::instance().configure(merged);
  EXPECT_EQ(SweepCache::instance().stats().loaded, cells.size() + 1);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 1u);

  // Unsharded replay: every cell is a cache hit with the shard's value.
  SweepRunner replay("merge_sweep");
  std::map<std::string, double> replayed;
  const auto must_not_compute = []() -> std::map<std::string, double> {
    throw std::runtime_error("must not recompute");
  };
  EXPECT_EQ(replay.run(cap, "cap", cap_policy, must_not_compute,
                       [&](const std::map<std::string, double>& v) {
                         replayed[cap.canonical()] = v.at("value");
                       }),
            CellSource::kCache);
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(replay.run(cell, cell.canonical(), {}, must_not_compute,
                         [&](const std::map<std::string, double>& v) {
                           replayed[cell.canonical()] = v.at("value");
                         }),
              CellSource::kCache);
  }
  EXPECT_EQ(replayed, serial);
  EXPECT_EQ(replay.stats().cache_hits, cells.size() + 1);

  SweepCache::instance().configure("");
  for (const std::string& dir : shard_dirs) fs::remove_all(dir);
  fs::remove_all(merged);
}

}  // namespace
}  // namespace aqua::sweep
