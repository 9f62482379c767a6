/// Negative-path tests for the content-addressed sweep cache (DESIGN.md
/// §9): corrupt and truncated lines are skipped and recomputed, stale-salt
/// files yield zero hits, poisoned or failed cells are never persisted,
/// and concatenated cache files replay as one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "sweep/cache.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"

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

/// Fresh cache directory per test; the process-wide cache is pointed at it
/// and disabled again on teardown so tests cannot leak state.
class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv(SweepRunner::kPoisonEnv);
    dir_ = std::string(::testing::TempDir()) + "/aqua_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    SweepCache::instance().configure(dir_);
  }
  void TearDown() override { SweepCache::instance().configure(""); }

  [[nodiscard]] std::string file_path() const {
    return dir_ + "/" + SweepCache::kFileName;
  }

  /// Re-points the cache at the same directory, forcing a disk reload.
  void reload() { SweepCache::instance().configure(dir_); }

  [[nodiscard]] static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string dir_;
};

TEST_F(SweepCacheTest, StoreThenLookupRoundTripsExactly) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  const std::map<std::string, double> values{{"temperature_c", 61.50000321}};
  EXPECT_FALSE(cache.lookup(cell, nullptr));
  cache.store(cell, values);

  std::map<std::string, double> out;
  ASSERT_TRUE(cache.lookup(cell, &out));
  EXPECT_EQ(out, values);

  // And the same after a cold reload from disk: the serialized doubles are
  // shortest-round-trip, so the reloaded value is bit-identical.
  reload();
  out.clear();
  ASSERT_TRUE(cache.lookup(cell, &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at("temperature_c"), 61.50000321);
  EXPECT_EQ(cache.stats().loaded, 1u);
}

TEST_F(SweepCacheTest, DuplicateStoresDoNotGrowTheFile) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  cache.store(cell, {{"temperature_c", 61.5}});
  cache.store(cell, {{"temperature_c", 61.5}});
  cache.store(cell, {{"temperature_c", 61.5}});
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.records, 1u);
  EXPECT_EQ(summary.entries, 1u);
}

TEST_F(SweepCacheTest, TruncatedLineIsSkippedAndRecomputed) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig good = htc_cell("low_power", 4, 800.0, {});
  const CellConfig torn = htc_cell("low_power", 4, 1600.0, {});
  cache.store(good, {{"temperature_c", 61.5}});
  cache.store(torn, {{"temperature_c", 49.25}});

  // Emulate a mid-write kill: cut the second record in half.
  std::string content = read_file(file_path());
  const std::size_t first_newline = content.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  content.resize(first_newline + 1 + (content.size() - first_newline) / 2);
  std::ofstream(file_path(), std::ios::trunc) << content;

  reload();
  SweepCache& reloaded = SweepCache::instance();
  EXPECT_EQ(reloaded.stats().loaded, 1u);
  EXPECT_EQ(reloaded.stats().bad_lines, 1u);
  EXPECT_TRUE(reloaded.lookup(good, nullptr));
  // The torn cell misses -> the runner would recompute and re-store it.
  EXPECT_FALSE(reloaded.lookup(torn, nullptr));
  reloaded.store(torn, {{"temperature_c", 49.25}});
  reload();
  EXPECT_TRUE(SweepCache::instance().lookup(torn, nullptr));
}

TEST_F(SweepCacheTest, EditedCellTextFailsTheIntegrityCheck) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  cache.store(cell, {{"temperature_c", 61.5}});

  // Tamper with the cell text while keeping the stored hash: the recomputed
  // hash no longer matches, so the record must be treated as corrupt.
  std::string content = read_file(file_path());
  const std::size_t pos = content.find("chips=4");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 7, "chips=5");
  std::ofstream(file_path(), std::ios::trunc) << content;

  reload();
  EXPECT_EQ(SweepCache::instance().stats().loaded, 0u);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 1u);
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
}

TEST_F(SweepCacheTest, GarbageLinesAreCountedNotTrusted) {
  {
    std::ofstream out(file_path(), std::ios::trunc);
    out << "this is not json\n"
        << "{\"kind\": \"something_else\", \"x\": 1}\n"
        << "{\"kind\": \"sweep_cache\"}\n"  // missing salt/hash/cell
        << "[1,2,3]\n";
  }
  reload();
  EXPECT_EQ(SweepCache::instance().stats().loaded, 0u);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 4u);
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.bad_lines, 4u);
}

TEST_F(SweepCacheTest, StaleSaltYieldsZeroHits) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig a = htc_cell("low_power", 4, 800.0, {});
  const CellConfig b = htc_cell("low_power", 4, 1600.0, {});
  cache.store(a, {{"temperature_c", 61.5}});
  cache.store(b, {{"temperature_c", 49.25}});

  // Rewrite the file as if it came from a previous schema version.
  std::string content = read_file(file_path());
  std::string stale;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = content.find(kCellKeySalt, pos);
    if (hit == std::string::npos) {
      stale += content.substr(pos);
      break;
    }
    stale += content.substr(pos, hit - pos);
    stale += "aqua-sweep-v0";
    pos = hit + kCellKeySalt.size();
  }
  std::ofstream(file_path(), std::ios::trunc) << stale;

  reload();
  const SweepCache::Stats stats = SweepCache::instance().stats();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.stale_salt, 2u);
  EXPECT_FALSE(SweepCache::instance().lookup(a, nullptr));
  EXPECT_FALSE(SweepCache::instance().lookup(b, nullptr));
  EXPECT_EQ(SweepCache::instance().stats().hits, 0u);

  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.stale_salt, 2u);
}

TEST_F(SweepCacheTest, ConcatenatedCacheFilesReplayWithoutRecompute) {
  namespace fs = std::filesystem;
  std::vector<CellConfig> cells;
  for (std::size_t i = 0; i < 24; ++i) {
    cells.push_back(rotation_cell("high_freq", 4, "water", i,
                                  1.0e9 + 1e8 * static_cast<double>(i), {}));
  }
  // Both runs compute and cache this cell, so the concatenated file
  // carries it twice.
  const CellConfig overlap = freq_cap_cell("high_freq", 4, "water", 80.0, {});
  const auto compute = [](const CellConfig& config) {
    return std::map<std::string, double>{
        {"value", static_cast<double>(config.hash() % 1000)}};
  };
  // An `apply` that files the cell's value under its canonical key.
  const auto into = [](std::map<std::string, double>& table,
                       const CellConfig& cell) {
    return [&table, key = cell.canonical()](
               const std::map<std::string, double>& v) {
      table[key] = v.at("value");
    };
  };

  // Two runners, each on its own cache directory and half of the cells.
  std::map<std::string, double> computed;
  std::vector<std::string> part_dirs;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string dir = dir_ + "_part" + std::to_string(k);
    fs::remove_all(dir);
    part_dirs.push_back(dir);
    SweepCache::instance().configure(dir);
    SweepRunner runner("concat_sweep");
    runner.run(overlap, "overlap", {}, [&] { return compute(overlap); },
               into(computed, overlap));
    for (std::size_t i = k; i < cells.size(); i += 2) {
      runner.run(cells[i], cells[i].canonical(), {},
                 [&] { return compute(cells[i]); }, into(computed, cells[i]));
    }
  }
  ASSERT_EQ(computed.size(), cells.size() + 1);

  // `cat` the two files into one cache, then tear its tail the way a
  // killed writer would: the lenient loader skips the torn line and
  // dedups the repeated overlap record.
  fs::create_directories(dir_);
  {
    std::ofstream out(file_path());
    for (const std::string& dir : part_dirs) {
      std::ifstream in(fs::path(dir) / SweepCache::kFileName);
      out << in.rdbuf();
    }
    out << "{\"kind\": \"sweep_c";
  }
  reload();
  EXPECT_EQ(SweepCache::instance().stats().loaded, cells.size() + 1);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 1u);

  // Replay: every cell is a cache hit with the value its runner computed.
  SweepRunner replay("concat_sweep");
  std::map<std::string, double> replayed;
  const auto must_not_compute = []() -> std::map<std::string, double> {
    throw std::runtime_error("must not recompute");
  };
  EXPECT_EQ(replay.run(overlap, "overlap", {}, must_not_compute,
                       into(replayed, overlap)),
            CellSource::kCache);
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(replay.run(cell, cell.canonical(), {}, must_not_compute,
                         into(replayed, cell)),
              CellSource::kCache);
  }
  EXPECT_EQ(replayed, computed);
  EXPECT_EQ(replay.stats().cache_hits, cells.size() + 1);

  for (const std::string& dir : part_dirs) fs::remove_all(dir);
}

TEST_F(SweepCacheTest, PoisonedCellIsNeverWrittenToTheCache) {
  const std::string cell = "chip=low_power;chips=4;htc=800.000000";
  ScopedEnv poison(SweepRunner::kPoisonEnv, "cache_poison:" + cell);

  SweepRunner runner("cache_poison");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  bool computed = false;
  const CellSource src = runner.run(
      config, cell, {},
      [&] {
        computed = true;
        return std::map<std::string, double>{{"temperature_c", 61.5}};
      },
      [](const std::map<std::string, double>&) {});
  EXPECT_EQ(src, CellSource::kFailed);
  EXPECT_FALSE(computed);

  // No record on disk and a counted deliberate skip.
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.records, 0u);
  EXPECT_GE(SweepCache::instance().stats().skips, 1u);

  // A poisoned cell must also never be *served* from a warm cache: store
  // the value (as an unpoisoned sweep would have) and re-run — poison
  // still outranks the cache.
  SweepCache::instance().store(config, {{"temperature_c", 61.5}});
  SweepRunner again("cache_poison");
  EXPECT_EQ(again.run(config, cell, {}, [] {
    return std::map<std::string, double>{{"temperature_c", 61.5}};
  }, [](const std::map<std::string, double>&) {}), CellSource::kFailed);
}

TEST_F(SweepCacheTest, FailedComputeIsNeverCached) {
  SweepRunner runner("cache_failed");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  const CellSource src = runner.run(
      config, "chip=low_power;chips=4;htc=800.000000", {},
      []() -> std::map<std::string, double> {
        throw std::runtime_error("solver blew up");
      },
      [](const std::map<std::string, double>&) {});
  EXPECT_EQ(src, CellSource::kFailed);
  EXPECT_EQ(inspect_cache_file(file_path()).records, 0u);
  EXPECT_FALSE(SweepCache::instance().lookup(config, nullptr));
}

TEST_F(SweepCacheTest, DisabledCacheIsInert) {
  SweepCache::instance().configure("");
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  EXPECT_FALSE(SweepCache::instance().enabled());
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
  SweepCache::instance().store(cell, {{"temperature_c", 61.5}});
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
  // No counters move while disabled.
  EXPECT_EQ(SweepCache::instance().stats().hits, 0u);
  EXPECT_EQ(SweepCache::instance().stats().misses, 0u);
  EXPECT_EQ(SweepCache::instance().stats().stores, 0u);
}

TEST_F(SweepCacheTest, InspectMissingFileIsZeroSummary) {
  const CacheFileSummary summary =
      inspect_cache_file(dir_ + "/does_not_exist.jsonl");
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.records, 0u);
  EXPECT_EQ(summary.bad_lines, 0u);
}

TEST_F(SweepCacheTest, PerSweepBreakdownSeparatesFamilies) {
  SweepCache& cache = SweepCache::instance();
  cache.store(htc_cell("low_power", 4, 800.0, {}), {{"temperature_c", 61.5}});
  cache.store(freq_cap_cell("low_power", 4, "water", 80.0, {}),
              {{"feasible", 1.0}, {"ghz", 2.0}});
  cache.store(npb_des_cell(6, 4, "ft", 1.6e9, 1000, 1, false),
              {{"seconds", 1.25}});
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.per_sweep.at("htc"), 1u);
  EXPECT_EQ(summary.per_sweep.at("freq_cap"), 1u);
  EXPECT_EQ(summary.per_sweep.at("npb_des"), 1u);
}

TEST_F(SweepCacheTest, NpbScaleChangeReusesOnlyTheCaps) {
  // The DES cell key carries the per-thread instruction count, so re-running
  // an NPB experiment at another instruction scale on the same cache must
  // serve only the scale-independent frequency caps and match a fresh run
  // at the new scale exactly.
  GridOptions grid;
  grid.nx = 16;
  grid.ny = 16;
  const ChipModel chip = make_low_power_cmp();
  const auto run = [&](double scale) {
    return npb_experiment(chip, 2, CoolingKind::kWaterPipe, 80.0, scale, grid);
  };
  const NpbData first = run(0.004);
  const NpbData rerun = run(0.008);
  SweepCache::instance().configure("");
  const NpbData fresh = run(0.008);

  EXPECT_EQ(first.cached_cells, 0u);
  EXPECT_EQ(rerun.cached_cells, rerun.coolings.size())
      << "exactly the cap cells are cache hits";
  ASSERT_EQ(rerun.caps.size(), fresh.caps.size());
  for (std::size_t k = 0; k < fresh.caps.size(); ++k) {
    EXPECT_EQ(rerun.caps[k].feasible, fresh.caps[k].feasible) << k;
    EXPECT_EQ(rerun.caps[k].frequency.value(), fresh.caps[k].frequency.value())
        << k;
    EXPECT_EQ(rerun.caps[k].max_temperature_c, fresh.caps[k].max_temperature_c)
        << k;
    EXPECT_EQ(rerun.caps[k].chip_power.value(),
              fresh.caps[k].chip_power.value())
        << k;
  }
  ASSERT_EQ(rerun.rows.size(), fresh.rows.size());
  for (std::size_t b = 0; b < fresh.rows.size(); ++b) {
    EXPECT_EQ(rerun.rows[b].seconds, fresh.rows[b].seconds)
        << fresh.rows[b].benchmark;
    EXPECT_EQ(rerun.rows[b].relative, fresh.rows[b].relative)
        << fresh.rows[b].benchmark;
    if (fresh.rows[b].benchmark == "avg") continue;  // relative-only row
    EXPECT_NE(first.rows[b].seconds, fresh.rows[b].seconds)
        << "the two scales must simulate different programs";
  }
}

}  // namespace
}  // namespace aqua::sweep
