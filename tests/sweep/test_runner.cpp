/// SweepRunner tests: the runner's source-precedence contract (compute,
/// single-flight memo) and the AQUA_FAULT_CELL spec.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

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

void clear_sweep_env() { ::unsetenv(SweepRunner::kPoisonEnv); }

/// A deterministic stand-in for a sweep's physics: pure function of the
/// cell key, expensive enough to notice if it ran (via the counter).
std::map<std::string, double> fake_compute(const CellConfig& config,
                                           int* computed) {
  if (computed != nullptr) ++*computed;
  return {{"value", static_cast<double>(config.hash() % 1000)}};
}

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

}  // namespace
}  // namespace aqua::sweep
