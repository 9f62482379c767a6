/// TaskEngine unit tests: placement (strict / loose / unpinned lanes),
/// submission-order guarantees, worker-local state reuse, stealing under
/// injected delays, exception isolation, nested-run inlining, the
/// per-task trace span, and the AQUA_SWEEP_WORKERS env contract.

#include "sweep/task_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace aqua::sweep {
namespace {

using Task = TaskEngine::Task;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(TaskEngine, RunsEveryTaskExactlyOnce) {
  TaskEngine engine(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.body = [&hits, i](WorkerContext&) { hits[i].fetch_add(1); };
    tasks.push_back(std::move(t));
  }
  engine.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
  const TaskEngine::Stats stats = engine.last_run_stats();
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_EQ(stats.shared_claimed, kTasks);  // all unpinned
  std::uint64_t per_worker_total = 0;
  ASSERT_EQ(stats.per_worker.size(), 4u);
  for (const std::uint64_t n : stats.per_worker) per_worker_total += n;
  EXPECT_EQ(per_worker_total, kTasks);
}

TEST(TaskEngine, StrictTasksRunInSubmissionOrderOnOneWorker) {
  TaskEngine engine(4);
  constexpr std::size_t kTasks = 16;
  std::mutex m;
  std::vector<std::size_t> order;
  std::set<std::size_t> workers_seen;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.affinity = 2;  // same home for the whole chain
    t.strict = true;
    t.body = [&, i](WorkerContext& ctx) {
      std::lock_guard lock(m);
      order.push_back(i);
      workers_seen.insert(ctx.worker());
    };
    tasks.push_back(std::move(t));
  }
  engine.run(std::move(tasks));
  ASSERT_EQ(order.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(workers_seen.size(), 1u) << "strict chain must never migrate";
  EXPECT_EQ(engine.last_run_stats().strict_executed, kTasks);
  EXPECT_EQ(engine.last_run_stats().stolen, 0u);
}

TEST(TaskEngine, IdleWorkersStealLooseTasks) {
  TaskEngine engine(2);
  constexpr std::size_t kTasks = 8;
  std::set<std::size_t> workers_seen;
  std::mutex m;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.affinity = 0;  // everything homes on worker 0; worker 1 must steal
    t.body = [&](WorkerContext& ctx) {
      sleep_ms(20);
      std::lock_guard lock(m);
      workers_seen.insert(ctx.worker());
    };
    tasks.push_back(std::move(t));
  }
  engine.run(std::move(tasks));
  const TaskEngine::Stats stats = engine.last_run_stats();
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_GE(stats.stolen, 1u) << "an idle worker left 20ms cells unstolen";
  EXPECT_EQ(workers_seen.size(), 2u);
}

TEST(TaskEngine, WorkerLocalStateIsReusedOnTheHomeWorker) {
  TaskEngine engine(1);
  constexpr std::size_t kTasks = 6;
  std::atomic<int> builds{0};
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.affinity = 0;
    t.body = [&](WorkerContext& ctx) {
      int& counter = ctx.local<int>(7, [&] {
        builds.fetch_add(1);
        return new int(0);
      });
      ++counter;
    };
    tasks.push_back(std::move(t));
  }
  engine.run(std::move(tasks));
  EXPECT_EQ(builds.load(), 1) << "one build, then worker-local reuse";
  const TaskEngine::Stats stats = engine.last_run_stats();
  EXPECT_EQ(stats.local_misses, 1u);
  EXPECT_EQ(stats.local_hits, kTasks - 1);
}

TEST(TaskEngine, WorkerLocalStateDoesNotLeakAcrossBatches) {
  TaskEngine engine(1);
  std::atomic<int> builds{0};
  const auto batch = [&] {
    std::vector<Task> tasks(1);
    tasks[0].affinity = 0;
    tasks[0].body = [&](WorkerContext& ctx) {
      ctx.local<int>(7, [&] {
        builds.fetch_add(1);
        return new int(0);
      });
    };
    engine.run(std::move(tasks));
  };
  batch();
  batch();
  EXPECT_EQ(builds.load(), 2) << "each run() starts with fresh local state";
}

TEST(TaskEngine, FirstExceptionRethrowsAfterTheBatchDrains) {
  TaskEngine engine(2);
  constexpr std::size_t kTasks = 12;
  std::atomic<int> completed{0};
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.body = [&, i](WorkerContext&) {
      if (i == 3) throw Error("cell 3 exploded");
      completed.fetch_add(1);
    };
    tasks.push_back(std::move(t));
  }
  EXPECT_THROW(engine.run(std::move(tasks)), Error);
  EXPECT_EQ(completed.load(), static_cast<int>(kTasks) - 1)
      << "a throwing task must not abort its siblings";
}

TEST(TaskEngine, NestedRunFromAWorkerExecutesInline) {
  TaskEngine engine(1);  // one worker: a blocking nested run would deadlock
  std::atomic<int> inner_done{0};
  std::vector<Task> tasks(1);
  tasks[0].body = [&](WorkerContext&) {
    std::vector<Task> inner(3);
    for (Task& t : inner) {
      t.body = [&](WorkerContext&) { inner_done.fetch_add(1); };
    }
    engine.run(std::move(inner));
  };
  engine.run(std::move(tasks));
  EXPECT_EQ(inner_done.load(), 3);
}

TEST(TaskEngine, ConfigureResizesTheWorkerSet) {
  TaskEngine engine(2);
  EXPECT_EQ(engine.workers(), 2u);
  engine.configure(5);
  EXPECT_EQ(engine.workers(), 5u);
  std::atomic<int> ran{0};
  std::vector<Task> tasks(10);
  for (Task& t : tasks) {
    t.body = [&](WorkerContext&) { ran.fetch_add(1); };
  }
  engine.run(std::move(tasks));
  EXPECT_EQ(ran.load(), 10);
}

// Every task runs inside one `engine.task` span whose arg is its worker,
// so the timeline a trace yields matches the engine's own counts.
TEST(TaskEngine, TracesEachTaskAsOneSpanOnItsWorker) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTasks = 64;
  TaskEngine engine(kWorkers);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  engine.run(std::vector<Task>(kTasks, Task{[](WorkerContext&) {}}));
  tracer.set_enabled(false);
  const std::string json = tracer.to_json();

  std::size_t spans = 0;
  for (const obs::TraceEvent& e : tracer.snapshot_events()) {
    if (std::string(e.name) != obs::kEngineTaskSpan) continue;
    ++spans;
    EXPECT_EQ(std::string(e.category), "engine");
    EXPECT_GE(e.arg, 0);
    EXPECT_LT(e.arg, static_cast<std::int64_t>(kWorkers));
  }
  tracer.clear();
  EXPECT_EQ(spans, kTasks);

  const obs::TimelineSummary t = obs::summarize_worker_timeline(
      obs::trace_events_of(obs::parse_json(json)));
  EXPECT_EQ(t.tasks, kTasks);
  const TaskEngine::Stats stats = engine.last_run_stats();
  std::vector<std::uint64_t> traced(kWorkers, 0);
  for (const obs::WorkerTimelineRow& row : t.workers) {
    ASSERT_LT(row.worker, kWorkers);
    traced[row.worker] = row.tasks;
  }
  EXPECT_EQ(traced, stats.per_worker);
}

TEST(TaskEngine, WorkersFromEnvContract) {
  ::setenv(TaskEngine::kWorkersEnv, "3", 1);
  EXPECT_EQ(TaskEngine::workers_from_env(), 3u);
  ::setenv(TaskEngine::kWorkersEnv, "0", 1);
  EXPECT_THROW(TaskEngine::workers_from_env(), Error);
  ::setenv(TaskEngine::kWorkersEnv, "soggy", 1);
  EXPECT_THROW(TaskEngine::workers_from_env(), Error);
  ::unsetenv(TaskEngine::kWorkersEnv);
  EXPECT_GE(TaskEngine::workers_from_env(), 1u);
}

}  // namespace
}  // namespace aqua::sweep
