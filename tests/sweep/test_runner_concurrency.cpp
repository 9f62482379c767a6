/// SweepRunner concurrency stress tests: the precedence invariants that
/// must hold when cells run on the task engine — the single-flight memo
/// computes each canonical key exactly once under 8 workers with injected
/// per-cell delays, only a wait on an in-flight entry counts as parked, a
/// failed leader is retried (and never memoized or cached), poison
/// outranks a warm cache in both directions, and failing cells stay
/// isolated from their siblings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"

namespace aqua::sweep {
namespace {

constexpr std::size_t kWorkers = 8;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

CellConfig stress_cell(std::size_t key) {
  CellConfig config;
  config.set("sweep", "stress").set("key", static_cast<std::uint64_t>(key));
  return config;
}

/// Fresh cache dir per test; restores the disabled state on destruction.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_(std::string(::testing::TempDir()) + name) {
    std::filesystem::remove_all(dir_);
    SweepCache::instance().configure(dir_);
  }
  ~ScopedCacheDir() { SweepCache::instance().configure(""); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Runs `cells` cell bodies concurrently on a private 8-worker engine.
void dispatch(std::size_t cells, const std::function<void(std::size_t)>& body) {
  TaskEngine engine(kWorkers);
  std::vector<TaskEngine::Task> tasks;
  tasks.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    TaskEngine::Task t;
    t.body = [&body, i](WorkerContext&) { body(i); };
    tasks.push_back(std::move(t));
  }
  engine.run(std::move(tasks));
}

TEST(RunnerConcurrency, SingleFlightMemoComputesEachKeyExactlyOnce) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  constexpr std::size_t kKeys = 3;
  constexpr std::size_t kDuplicates = 8;
  SweepRunner runner("stress");
  std::vector<std::atomic<int>> computes(kKeys);
  std::vector<std::atomic<int>> applied(kKeys * kDuplicates);

  dispatch(kKeys * kDuplicates, [&](std::size_t i) {
    const std::size_t key = i % kKeys;
    runner.run(
        stress_cell(key), "cell" + std::to_string(i), {},
        [&] {
          computes[key].fetch_add(1);
          sleep_ms(10);  // hold the key in flight so duplicates pile up
          return std::map<std::string, double>{
              {"value", static_cast<double>(key)}};
        },
        [&](const std::map<std::string, double>& values) {
          if (values.at("value") == static_cast<double>(key)) {
            applied[i].fetch_add(1);
          }
        });
  });

  for (std::size_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(computes[key].load(), 1)
        << "key " << key << " computed more than once";
  }
  for (std::size_t i = 0; i < kKeys * kDuplicates; ++i) {
    EXPECT_EQ(applied[i].load(), 1) << "cell " << i << " not applied";
  }
  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.computed, kKeys);
  EXPECT_EQ(stats.memo_hits, kKeys * (kDuplicates - 1));
  EXPECT_EQ(stats.failed, 0u);
}

TEST(RunnerConcurrency, MemoParkedCountsOnlyWaitsOnInFlightEntries) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  SweepCache::instance().configure("");
  const auto sweep_pair = [](SweepRunner& runner, std::size_t workers,
                             bool hold_for_park) {
    TaskEngine engine(workers);
    std::vector<TaskEngine::Task> tasks(2);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].body = [&runner, hold_for_park, i](WorkerContext&) {
        runner.run(
            stress_cell(0), "cell" + std::to_string(i), {},
            [&] {
              // The leader holds the key in flight until the other cell
              // has parked on it (bounded, so a regression fails rather
              // than hangs).
              const auto give_up = std::chrono::steady_clock::now() +
                                   std::chrono::seconds(30);
              while (hold_for_park && runner.stats().memo_parked == 0 &&
                     std::chrono::steady_clock::now() < give_up) {
                sleep_ms(1);
              }
              return std::map<std::string, double>{{"value", 1.0}};
            },
            [](const std::map<std::string, double>&) {});
      };
    }
    engine.run(std::move(tasks));
  };

  SweepRunner concurrent("parked");
  sweep_pair(concurrent, 4, /*hold_for_park=*/true);
  EXPECT_EQ(concurrent.stats().memo_parked, 1u);
  EXPECT_EQ(concurrent.stats().memo_hits, 1u);
  EXPECT_EQ(concurrent.stats().computed, 1u);

  // Serially the duplicate finds the entry already published: a memo hit
  // that never waited.
  SweepRunner serial("parked");
  sweep_pair(serial, 1, /*hold_for_park=*/false);
  EXPECT_EQ(serial.stats().memo_parked, 0u);
  EXPECT_EQ(serial.stats().memo_hits, 1u);
  EXPECT_EQ(serial.stats().computed, 1u);
}

TEST(RunnerConcurrency, FailedLeaderIsRetriedAndNeverMemoized) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ScopedCacheDir cache("aqua_runner_failed_leader");
  constexpr std::size_t kDuplicates = 8;
  SweepRunner runner("stress");
  std::atomic<int> attempts{0};

  dispatch(kDuplicates, [&](std::size_t i) {
    runner.run(
        stress_cell(0), "cell" + std::to_string(i), {},
        [&]() -> std::map<std::string, double> {
          attempts.fetch_add(1);
          sleep_ms(5);
          throw Error("injected cell failure");
        },
        [](const std::map<std::string, double>&) {
          FAIL() << "a failed cell must never apply values";
        });
  });

  // Every duplicate retried as leader and failed on its own — a failure is
  // never memoized, matching the serial retry semantics.
  EXPECT_EQ(attempts.load(), static_cast<int>(kDuplicates));
  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.failed, kDuplicates);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_FALSE(SweepCache::instance().lookup(stress_cell(0), nullptr))
      << "a failed cell must never be cached";
}

TEST(RunnerConcurrency, PoisonedCellsFailAndNeverTouchTheCache) {
  ScopedCacheDir cache("aqua_runner_poison");
  constexpr std::size_t kCells = 8;
  ::setenv(SweepRunner::kPoisonEnv, "stress:cell3", 1);
  std::atomic<int> poisoned_computes{0};
  {
    SweepRunner runner("stress");
    dispatch(kCells, [&](std::size_t i) {
      runner.run(
          stress_cell(i), "cell" + std::to_string(i), {},
          [&] {
            if (i == 3) poisoned_computes.fetch_add(1);
            return std::map<std::string, double>{
                {"value", static_cast<double>(i)}};
          },
          [](const std::map<std::string, double>&) {});
    });
    EXPECT_EQ(runner.stats().failed, 1u);
    EXPECT_EQ(poisoned_computes.load(), 0);
    EXPECT_FALSE(SweepCache::instance().lookup(stress_cell(3), nullptr))
        << "poison must never be written to the cache";
    EXPECT_TRUE(SweepCache::instance().lookup(stress_cell(1), nullptr));
  }
  {
    // The reverse direction: a warm cache (cell 3 was computed by an
    // unpoisoned earlier run) must not mask the poison.
    ::unsetenv(SweepRunner::kPoisonEnv);
    SweepRunner warm_runner("stress");
    warm_runner.run(
        stress_cell(3), "cell3", {},
        [] { return std::map<std::string, double>{{"value", 3.0}}; },
        [](const std::map<std::string, double>&) {});
    ::setenv(SweepRunner::kPoisonEnv, "stress:cell3", 1);
    SweepRunner poisoned_runner("stress");
    const CellSource src = poisoned_runner.run(
        stress_cell(3), "cell3", {},
        [] { return std::map<std::string, double>{{"value", 3.0}}; },
        [](const std::map<std::string, double>&) {
          FAIL() << "poison must not be maskable by a warm cache";
        });
    EXPECT_EQ(src, CellSource::kFailed);
  }
  ::unsetenv(SweepRunner::kPoisonEnv);
}

TEST(RunnerConcurrency, FailingCellsStayIsolatedFromSiblings) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ScopedCacheDir cache("aqua_runner_isolation");
  constexpr std::size_t kCells = 32;
  SweepRunner runner("stress");
  std::atomic<int> applied{0};

  dispatch(kCells, [&](std::size_t i) {
    runner.run(
        stress_cell(i), "cell" + std::to_string(i), {},
        [&]() -> std::map<std::string, double> {
          sleep_ms(1);
          if (i % 4 == 0) throw Error("injected failure");
          return std::map<std::string, double>{
              {"value", static_cast<double>(i)}};
        },
        [&](const std::map<std::string, double>&) { applied.fetch_add(1); });
  });

  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.failed, kCells / 4);
  EXPECT_EQ(stats.computed, kCells - kCells / 4);
  EXPECT_EQ(applied.load(), static_cast<int>(kCells - kCells / 4));
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(SweepCache::instance().lookup(stress_cell(i), nullptr),
              i % 4 != 0)
        << "cell " << i;
  }
}

TEST(RunnerConcurrency, ConcurrentColdRunWarmsTheCacheForAFreshRunner) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ScopedCacheDir cache("aqua_runner_warm");
  constexpr std::size_t kCells = 24;
  std::atomic<int> computes{0};
  const auto sweep_once = [&](SweepRunner& runner) {
    dispatch(kCells, [&](std::size_t i) {
      runner.run(
          stress_cell(i), "cell" + std::to_string(i), {},
          [&] {
            computes.fetch_add(1);
            return std::map<std::string, double>{
                {"value", static_cast<double>(i)}};
          },
          [](const std::map<std::string, double>&) {});
    });
  };
  SweepRunner cold("stress");
  sweep_once(cold);
  EXPECT_EQ(computes.load(), static_cast<int>(kCells));
  // Torn-tail safety in the small: the concurrently appended cache file
  // must load back complete.
  SweepCache::instance().configure(cache.dir());
  SweepRunner warm("stress");
  sweep_once(warm);
  EXPECT_EQ(computes.load(), static_cast<int>(kCells))
      << "a warm run must not recompute";
  EXPECT_EQ(warm.stats().cache_hits, kCells);
}

// ---------------------------------------------------------------------------
// Cancellation (DESIGN.md §13): tokens at the precedence-chain boundaries
// ---------------------------------------------------------------------------

TEST(RunnerCancellation, ExpiredDeadlineNeverStartsTheCompute) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  SweepCache::instance().configure("");
  SweepRunner runner("cancel");
  int computed = 0;
  const CancelToken expired = CancelToken::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(runner.run(
                stress_cell(0), "cell0", {},
                [&] {
                  ++computed;
                  return std::map<std::string, double>{{"value", 1.0}};
                },
                [](const std::map<std::string, double>&) {
                  FAIL() << "a cancelled cell must never apply";
                },
                expired),
            CellSource::kCancelled);
  EXPECT_EQ(computed, 0);
  EXPECT_EQ(runner.stats().cancelled, 1u);
}

TEST(RunnerCancellation, CancelledResultIsNeverCachedAndRetriesClean) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ScopedCacheDir cache("aqua_runner_cancel_clean");
  SweepRunner runner("cancel");
  CancelToken token = CancelToken::cancellable();
  // The token fires mid-compute: the finished value must be discarded at
  // the post-compute gate — not cached, not applied.
  EXPECT_EQ(runner.run(
                stress_cell(1), "cell1", {},
                [&] {
                  token.cancel();
                  return std::map<std::string, double>{{"value", 2.0}};
                },
                [](const std::map<std::string, double>&) {
                  FAIL() << "a cancelled cell must never apply";
                },
                token),
            CellSource::kCancelled);
  EXPECT_FALSE(SweepCache::instance().lookup(stress_cell(1), nullptr))
      << "a cancelled cell must never be cached";

  // A clean retry (inert token) computes as if the cancel never happened.
  double value = 0.0;
  EXPECT_EQ(runner.run(
                stress_cell(1), "cell1", {},
                [] {
                  return std::map<std::string, double>{{"value", 2.0}};
                },
                [&](const std::map<std::string, double>& v) {
                  value = v.at("value");
                }),
            CellSource::kComputed);
  EXPECT_EQ(value, 2.0);
}

TEST(RunnerCancellation, CancelledLeaderWakesWaitersRetryable) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  SweepCache::instance().configure("");
  SweepRunner runner("cancel");
  CancelToken leader_token = CancelToken::cancellable();
  std::atomic<int> computes{0};
  std::atomic<int> applied{0};
  std::atomic<bool> leader_started{false};

  dispatch(2, [&](std::size_t i) {
    if (i == 0) {
      // Leader: starts the compute, then its token fires. The waiter is
      // parked on the memo by then; it must wake and retry as the new
      // leader, not inherit a cancelled "result".
      const CellSource source = runner.run(
          stress_cell(2), "leader", {},
          [&] {
            leader_started.store(true);
            computes.fetch_add(1);
            sleep_ms(40);  // hold the key so the waiter piles up
            leader_token.cancel();
            return std::map<std::string, double>{{"value", 3.0}};
          },
          [](const std::map<std::string, double>&) {
            FAIL() << "the cancelled leader must never apply";
          },
          leader_token);
      EXPECT_EQ(source, CellSource::kCancelled);
    } else {
      while (!leader_started.load()) sleep_ms(1);
      sleep_ms(5);  // land inside the leader's compute window
      const CellSource source = runner.run(
          stress_cell(2), "waiter", {},
          [&] {
            computes.fetch_add(1);
            return std::map<std::string, double>{{"value", 3.0}};
          },
          [&](const std::map<std::string, double>& v) {
            if (v.at("value") == 3.0) applied.fetch_add(1);
          });
      EXPECT_EQ(source, CellSource::kComputed)
          << "the waiter must retry the abandoned cell, not fail";
    }
  });

  EXPECT_EQ(computes.load(), 2) << "leader once, waiter retry once";
  EXPECT_EQ(applied.load(), 1);
  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.memo_hits, 0u);
}

TEST(RunnerCancellation, MemoWaiterHonorsItsOwnDeadline) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  SweepCache::instance().configure("");
  SweepRunner runner("cancel");
  std::atomic<bool> leader_started{false};

  dispatch(2, [&](std::size_t i) {
    if (i == 0) {
      // Slow leader with no deadline: completes normally.
      const CellSource source = runner.run(
          stress_cell(3), "leader", {},
          [&] {
            leader_started.store(true);
            sleep_ms(150);
            return std::map<std::string, double>{{"value", 4.0}};
          },
          [](const std::map<std::string, double>&) {});
      EXPECT_EQ(source, CellSource::kComputed);
    } else {
      while (!leader_started.load()) sleep_ms(1);
      // Waiter whose deadline expires while parked on the leader's memo:
      // it must give up at a bounded-park slice, not block for the leader.
      const CellSource source = runner.run(
          stress_cell(3), "waiter", {},
          [] {
            ADD_FAILURE() << "the expired waiter must not compute";
            return std::map<std::string, double>{};
          },
          [](const std::map<std::string, double>&) {
            FAIL() << "the expired waiter must never apply";
          },
          CancelToken::with_deadline(std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(20)));
      EXPECT_EQ(source, CellSource::kCancelled);
    }
  });

  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.computed, 1u);
}

TEST(RunnerCancellation, InterruptFlagStopsNewCellsAndResumesBitIdentical) {
  ::unsetenv(SweepRunner::kPoisonEnv);
  ScopedCacheDir cache("aqua_interrupt_resume");

  const auto compute_value = [](std::size_t i) {
    return 100.0 + static_cast<double>(i) * 0.0625;
  };
  constexpr std::size_t kCells = 8;
  std::map<std::string, double> first_pass;

  {
    SweepRunner runner("interrupt");
    for (std::size_t i = 0; i < kCells; ++i) {
      // The "signal" lands after cell 3: the remaining cells must be
      // skipped at the entry gate, before any cache append.
      if (i == 4) set_sweep_interrupted(true);
      const std::string cell = "cell" + std::to_string(i);
      const CellSource source = runner.run(
          stress_cell(10 + i), cell, {},
          [&] {
            return std::map<std::string, double>{{"value", compute_value(i)}};
          },
          [&](const std::map<std::string, double>& v) {
            first_pass[cell] = v.at("value");
          });
      EXPECT_EQ(source, i < 4 ? CellSource::kComputed : CellSource::kCancelled)
          << "cell " << i;
    }
    EXPECT_EQ(runner.stats().cancelled, kCells - 4);
  }
  set_sweep_interrupted(false);
  EXPECT_EQ(first_pass.size(), 4u);

  // Resume on the same cache file, reloaded as a relaunched process would:
  // the finished cells come back from it (no recompute), the interrupted
  // tail computes now, and every value is bit-identical to an
  // uninterrupted run.
  SweepCache::instance().configure(cache.dir());
  SweepRunner resumed("interrupt");
  std::map<std::string, double> second_pass;
  std::size_t recomputed = 0;
  for (std::size_t i = 0; i < kCells; ++i) {
    const std::string cell = "cell" + std::to_string(i);
    const CellSource source = resumed.run(
        stress_cell(10 + i), cell, {},
        [&] {
          ++recomputed;
          return std::map<std::string, double>{{"value", compute_value(i)}};
        },
        [&](const std::map<std::string, double>& v) {
          second_pass[cell] = v.at("value");
        });
    EXPECT_EQ(source, i < 4 ? CellSource::kCache : CellSource::kComputed)
        << "cell " << i;
  }
  EXPECT_EQ(recomputed, kCells - 4);
  for (std::size_t i = 0; i < kCells; ++i) {
    const std::string cell = "cell" + std::to_string(i);
    EXPECT_EQ(second_pass.at(cell), compute_value(i)) << cell;
  }
  for (const auto& [cell, value] : first_pass) {
    EXPECT_EQ(second_pass.at(cell), value) << cell;
  }
}

}  // namespace
}  // namespace aqua::sweep
