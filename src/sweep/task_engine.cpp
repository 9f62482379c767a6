#include "sweep/task_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua::sweep {

namespace {

/// Engine-wide instrumentation, shown in metrics snapshots and run
/// reports.
struct EngineMetrics {
  obs::Counter& executed =
      obs::Registry::instance().counter("engine.tasks_executed");
  obs::Counter& shared_claimed =
      obs::Registry::instance().counter("engine.shared_claimed");
  obs::Counter& runs = obs::Registry::instance().counter("engine.runs");
  obs::Gauge& workers = obs::Registry::instance().gauge("engine.workers");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

thread_local TaskEngine* tls_engine = nullptr;

}  // namespace

// ---------------------------------------------------------------- batch --

struct TaskEngine::Batch {
  /// Owner pops the strict lane front-to-back (submission order, never
  /// stolen) and the loose lane front-to-back; thieves take from the loose
  /// back — the tasks the owner would reach last.
  struct WorkerQueue {
    std::mutex m;
    std::vector<std::uint32_t> strict;
    std::size_t strict_head = 0;
    std::vector<std::uint32_t> loose;
    std::size_t loose_head = 0;
    std::size_t loose_tail = 0;
    /// Lock-free estimate of the stealable (loose) backlog for victim
    /// selection (maintained under m, read with relaxed loads by thieves).
    /// Strict tasks are never stealable, so they are not advertised.
    std::atomic<std::size_t> stealable{0};

    void refresh_stealable() {
      stealable.store(loose_tail - loose_head, std::memory_order_relaxed);
    }
  };

  std::vector<Task> tasks;
  std::vector<WorkerQueue> queues;
  std::vector<std::uint32_t> shared;       ///< unpinned task indices
  std::atomic<std::size_t> shared_next{0};

  std::atomic<std::size_t> remaining{0};   ///< tasks not yet finished
  std::mutex done_m;
  std::condition_variable done_cv;
  std::size_t drained_workers = 0;  ///< workers that left drain() (under done_m)

  std::mutex error_m;
  std::exception_ptr first_error;

  // Run counters (relaxed; folded into Stats after the batch).
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> strict_executed{0};
  std::atomic<std::uint64_t> shared_claimed{0};
  std::atomic<std::uint64_t> stolen{0};
  std::atomic<std::uint64_t> local_hits{0};
  std::atomic<std::uint64_t> local_misses{0};
  std::vector<std::atomic<std::uint64_t>> per_worker;

  explicit Batch(std::size_t workers)
      : queues(workers), per_worker(workers) {}

  void note_done() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(done_m);
      done_cv.notify_all();
    }
  }

  void record_error(std::exception_ptr e) {
    std::lock_guard lock(error_m);
    if (!first_error) first_error = std::move(e);
  }
};

// ------------------------------------------------------- worker context --

void WorkerContext::note_local(bool hit) {
  if (engine_ == nullptr || engine_->batch_ == nullptr) return;
  (hit ? engine_->batch_->local_hits : engine_->batch_->local_misses)
      .fetch_add(1, std::memory_order_relaxed);
}

// --------------------------------------------------------------- engine --

std::size_t TaskEngine::workers_from_env() {
  const char* env = std::getenv(kWorkersEnv);
  if (env == nullptr || env[0] == '\0') {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  require(end != env && *end == '\0' && value >= 1,
          std::string(kWorkersEnv) + " must be a positive integer, got '" +
              env + "'");
  return static_cast<std::size_t>(value);
}

TaskEngine::TaskEngine(std::size_t workers) {
  start_workers(workers == 0 ? workers_from_env() : workers);
}

TaskEngine::~TaskEngine() { stop_workers(); }

TaskEngine& TaskEngine::shared() {
  // Function-local static: constructed on first use, stopped and joined
  // at process exit. The metrics registry it reports into is constructed
  // earlier (the constructor touches it), so static destruction order
  // keeps it alive until the workers are gone.
  static TaskEngine engine;
  return engine;
}

void TaskEngine::configure(std::size_t workers) {
  std::lock_guard run_lock(run_mutex_);
  stop_workers();
  start_workers(workers == 0 ? workers_from_env() : workers);
}

std::size_t TaskEngine::workers() const { return worker_count_; }

void TaskEngine::start_workers(std::size_t n) {
  require(n >= 1, "TaskEngine needs at least one worker");
  {
    std::lock_guard lock(mutex_);
    stop_ = false;
  }
  worker_count_ = n;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  engine_metrics().workers.set(static_cast<double>(n));
}

void TaskEngine::stop_workers() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  worker_count_ = 0;
}

void TaskEngine::run(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  // A nested run from inside a worker executes inline: blocking the worker
  // on its own engine would deadlock a one-worker configuration.
  if (tls_engine == this) {
    run_inline(tasks);
    return;
  }
  std::lock_guard run_lock(run_mutex_);
  AQUA_TRACE_SCOPE_ARG("engine.run", "engine", tasks.size());

  Batch batch(worker_count_);
  batch.tasks = std::move(tasks);
  batch.remaining.store(batch.tasks.size(), std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < batch.tasks.size(); ++i) {
    const Task& t = batch.tasks[i];
    if (t.affinity == kUnpinned && !t.strict) {
      batch.shared.push_back(i);
      continue;
    }
    Batch::WorkerQueue& q = batch.queues[t.affinity % worker_count_];
    (t.strict ? q.strict : q.loose).push_back(i);
  }
  for (Batch::WorkerQueue& q : batch.queues) {
    q.loose_tail = q.loose.size();
    q.refresh_stealable();
  }

  {
    std::lock_guard lock(mutex_);
    batch_ = &batch;
    ++epoch_;
  }
  cv_.notify_all();

  {
    std::unique_lock lock(batch.done_m);
    batch.done_cv.wait(lock, [&] {
      return batch.remaining.load(std::memory_order_acquire) == 0 &&
             batch.drained_workers == worker_count_;
    });
  }
  {
    std::lock_guard lock(mutex_);
    batch_ = nullptr;
  }

  engine_metrics().runs.add();
  Stats stats;
  stats.executed = batch.executed.load();
  stats.strict_executed = batch.strict_executed.load();
  stats.shared_claimed = batch.shared_claimed.load();
  stats.stolen = batch.stolen.load();
  stats.local_hits = batch.local_hits.load();
  stats.local_misses = batch.local_misses.load();
  stats.per_worker.reserve(worker_count_);
  for (const auto& c : batch.per_worker) stats.per_worker.push_back(c.load());
  {
    std::lock_guard lock(stats_mutex_);
    last_stats_ = std::move(stats);
  }

  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void TaskEngine::run_inline(std::vector<Task>& tasks) {
  // Serial, submission order, one shared context for the whole nested
  // batch (so worker-local state reuse matches a one-worker engine).
  std::exception_ptr first_error;
  WorkerContext ctx(nullptr, 0, 1);
  for (Task& t : tasks) {
    try {
      t.body(ctx);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

TaskEngine::Stats TaskEngine::last_run_stats() const {
  std::lock_guard lock(stats_mutex_);
  return last_stats_;
}

void TaskEngine::worker_loop(std::size_t id) {
  tls_engine = this;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) return;
      seen_epoch = epoch_;
      batch = batch_;
    }
    {
      // Fresh context per batch: cached solver state must not leak across
      // experiments (and its memory is released when the sweep ends).
      WorkerContext ctx(this, id, worker_count_);
      drain(*batch, ctx);
    }
    {
      std::lock_guard lock(batch->done_m);
      ++batch->drained_workers;
      batch->done_cv.notify_all();
    }
  }
}

void TaskEngine::execute(Batch& batch, WorkerContext& ctx,
                         std::function<void(WorkerContext&)>& body,
                         bool strict) {
  {
    AQUA_TRACE_SCOPE_ARG("engine.task", "engine", ctx.worker());
    try {
      body(ctx);
    } catch (...) {
      batch.record_error(std::current_exception());
    }
  }
  batch.executed.fetch_add(1, std::memory_order_relaxed);
  if (strict) batch.strict_executed.fetch_add(1, std::memory_order_relaxed);
  batch.per_worker[ctx.worker()].fetch_add(1, std::memory_order_relaxed);
  engine_metrics().executed.add();
  batch.note_done();
}

void TaskEngine::drain(Batch& batch, WorkerContext& ctx) {
  const std::size_t id = ctx.worker();
  Batch::WorkerQueue& own = batch.queues[id];

  const auto pop_own = [&](std::uint32_t* out, bool* strict) {
    std::lock_guard lock(own.m);
    if (own.strict_head < own.strict.size()) {
      *out = own.strict[own.strict_head++];
      *strict = true;
    } else if (own.loose_head < own.loose_tail) {
      *out = own.loose[own.loose_head++];
      *strict = false;
    } else {
      return false;
    }
    own.refresh_stealable();
    return true;
  };

  const auto claim_shared = [&](std::uint32_t* out) {
    const std::size_t i =
        batch.shared_next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.shared.size()) return false;
    *out = batch.shared[i];
    batch.shared_claimed.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // Victim = the worker advertising the largest stealable (loose) backlog;
  // the steal takes from the back — the tasks the victim would reach last.
  const auto steal = [&](std::uint32_t* out) {
    for (;;) {
      std::size_t victim = batch.queues.size();
      std::size_t best = 0;
      for (std::size_t w = 0; w < batch.queues.size(); ++w) {
        if (w == id) continue;
        const std::size_t stealable =
            batch.queues[w].stealable.load(std::memory_order_relaxed);
        if (stealable > best) {
          best = stealable;
          victim = w;
        }
      }
      if (victim == batch.queues.size()) return false;
      Batch::WorkerQueue& q = batch.queues[victim];
      {
        std::lock_guard lock(q.m);
        if (q.loose_head < q.loose_tail) {
          *out = q.loose[--q.loose_tail];
          q.refresh_stealable();
          batch.stolen.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
      // The victim's loose lane emptied between the scan and the lock;
      // rescan (the estimate is refreshed, so this terminates).
    }
  };

  for (;;) {
    std::uint32_t idx = 0;
    bool strict = false;
    if (pop_own(&idx, &strict)) {
      execute(batch, ctx, batch.tasks[idx].body, strict);
      continue;
    }
    if (claim_shared(&idx)) {
      engine_metrics().shared_claimed.add();
      execute(batch, ctx, batch.tasks[idx].body, false);
      continue;
    }
    if (steal(&idx)) {
      execute(batch, ctx, batch.tasks[idx].body, false);
      continue;
    }
    // Nothing queued, claimable, or stealable: whatever is left is already
    // running elsewhere. Stay until the whole batch has drained anyway:
    // returning early, which destroys this worker's context and solver
    // state while the others still compute, measured 6-20% slower on the
    // thermal sweeps (perfbench freqcap, 4 workers on a 4-core host).
    std::unique_lock lock(batch.done_m);
    batch.done_cv.wait(lock, [&] {
      return batch.remaining.load(std::memory_order_acquire) == 0;
    });
    return;
  }
}

}  // namespace aqua::sweep
