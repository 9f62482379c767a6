#include "sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sweep/cache.hpp"
#include "sweep/task_engine.hpp"

namespace aqua::sweep {

namespace {

using SteadyClock = std::chrono::steady_clock;

double us_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

}  // namespace

const char* to_string(CellSource source) {
  switch (source) {
    case CellSource::kComputed: return "computed";
    case CellSource::kMemo: return "memo";
    case CellSource::kCache: return "cache";
    case CellSource::kFailed: return "failed";
    case CellSource::kCancelled: return "cancelled";
  }
  return "?";
}

SweepRunner::SweepRunner(std::string sweep)
    : sweep_(std::move(sweep)) {
  const char* env = std::getenv(kPoisonEnv);
  if (env == nullptr) return;
  // "sweep:cell,sweep:cell" — keep only this sweep's cells.
  const std::string_view spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item = spec.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon != std::string_view::npos && item.substr(0, colon) == sweep_) {
      poisons_.emplace_back(item.substr(colon + 1));
    }
    pos = comma + 1;
  }
}

void SweepRunner::report_failed(const std::string& cell,
                                const std::string& error) const {
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  report.emit("degraded_result", [&](obs::JsonWriter& w) {
    w.add("stage", "experiment")
        .add("what", "sweep_cell_failed")
        .add("sweep", sweep_)
        .add("cell", cell)
        .add("error", error);
  });
}

CellSource SweepRunner::run(
    const CellConfig& config, const std::string& cell,
    const CellPolicy& /*policy*/,
    const std::function<std::map<std::string, double>()>& compute,
    const std::function<void(const std::map<std::string, double>&)>& apply,
    const CancelToken& token) {
  // The cost ledger times every phase the cell passes through; record_cost
  // folds the result into the per-runner breakdown on every exit path.
  CellCost cost;
  const auto run_start = SteadyClock::now();
  const auto finish = [&](CellSource source) {
    cost.total_us = us_since(run_start);
    record_cost(cell, source, cost);
    return source;
  };
  const auto record_cancelled = [&] {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return finish(CellSource::kCancelled);
  };

  // 0. Cancellation gate: a cell whose token already fired (or that starts
  // after SIGINT/SIGTERM raised the process-wide interrupt flag) does no
  // work at all. Cancelled cells are retryable, not failures: a re-run on
  // the same cache serves every finished cell and computes only the rest.
  if (token.cancelled() || sweep_interrupted()) {
    return record_cancelled();
  }

  SweepCache& cache = SweepCache::instance();

  // 1. Poison: deterministic fault injection always fails the cell, and a
  // poisoned cell must never reach the cache (in either direction).
  if (std::find(poisons_.begin(), poisons_.end(), cell) != poisons_.end()) {
    const auto t0 = SteadyClock::now();
    report_failed(cell,
                  std::string("cell poisoned by ") + kPoisonEnv + ": " + cell);
    cost.serialize_us += us_since(t0);
    cache.count_skip();
    failed_.fetch_add(1, std::memory_order_relaxed);
    return finish(CellSource::kFailed);
  }

  const auto key_start = SteadyClock::now();
  const std::string canonical = config.canonical();
  cost.key_us += us_since(key_start);

  // 2. In-process memo, single-flight: the first cell to reach a canonical
  // key becomes its leader and carries on down the precedence chain;
  // concurrent cells with the same key park on the entry (releasing the
  // map lock) and are served as memo hits once the leader publishes. The
  // map lock is only ever held for map/flag operations, never across a
  // cache probe or a compute.
  std::shared_ptr<MemoEntry> entry;
  const auto memo_start = SteadyClock::now();
  for (;;) {
    std::unique_lock lock(memo_mutex_);
    const auto it = memo_.find(canonical);
    if (it == memo_.end()) {
      entry = std::make_shared<MemoEntry>();
      memo_.emplace(canonical, entry);
      break;  // leader: this cell computes (or cache-serves) the key
    }
    const std::shared_ptr<MemoEntry> waiting = it->second;
    if (!waiting->ready && !waiting->abandoned) {
      memo_parked_.fetch_add(1, std::memory_order_relaxed);
    }
    while (!waiting->ready && !waiting->abandoned) {
      if (!token.active()) {
        waiting->cv.wait(lock);
        continue;
      }
      if (token.cancelled()) {
        cost.memo_us += us_since(memo_start);
        return record_cancelled();
      }
      // Bounded park: honors the deadline even while a slow leader holds
      // the key, and notices an explicit cancel() (which has no cv to
      // signal) within one slice.
      const auto slice = std::min(
          token.deadline(), SteadyClock::now() + std::chrono::milliseconds(20));
      waiting->cv.wait_until(lock, slice);
    }
    if (waiting->abandoned) {
      continue;  // leader failed or was cancelled: retry as leader
    }
    const std::map<std::string, double> values = waiting->values;
    lock.unlock();
    cost.memo_us += us_since(memo_start);
    const auto t0 = SteadyClock::now();
    apply(values);
    cost.apply_us += us_since(t0);
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    return finish(CellSource::kMemo);
  }
  cost.memo_us += us_since(memo_start);

  // The leader abandons the entry on every non-publishing exit so waiters
  // re-enter the chain with their own cell's name and token.
  const auto abandon = [&] {
    std::lock_guard lock(memo_mutex_);
    entry->abandoned = true;
    memo_.erase(canonical);
    entry->cv.notify_all();
  };
  const auto publish = [&](const std::map<std::string, double>& values) {
    std::lock_guard lock(memo_mutex_);
    entry->values = values;
    entry->ready = true;
    entry->cv.notify_all();
  };

  // 3. Content-addressed cache: warm cells skip the compute entirely.
  {
    const auto t0 = SteadyClock::now();
    std::map<std::string, double> values;
    const bool hit = cache.lookup(config, &values);
    cost.cache_us += us_since(t0);
    if (hit) {
      publish(values);
      const auto t1 = SteadyClock::now();
      apply(values);
      cost.apply_us += us_since(t1);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return finish(CellSource::kCache);
    }
  }

  // Last pre-compute cancellation gate: the solve is the expensive part,
  // so a cell whose deadline fired while it queued or parked never starts
  // one. The leader abandons so waiters retry with their own tokens.
  if (token.cancelled() || sweep_interrupted()) {
    abandon();
    return record_cancelled();
  }

  // 4. Compute, isolate-and-continue. Failed cells are never memoized (a
  // later identical cell retries, matching the serial semantics) and never
  // cached. The compute runs on this thread from start to finish, so this
  // thread's work tally diffed around it is exactly the cell's solver and
  // DES work (see cost.hpp), on every exit path.
  const obs::WorkTally work_before = obs::thread_work();
  const auto compute_start = SteadyClock::now();
  const auto end_compute = [&] {
    cost.compute_us += us_since(compute_start);
    cost.work += obs::thread_work() - work_before;
  };
  std::map<std::string, double> values;
  try {
    values = compute();
  } catch (const std::exception& e) {
    end_compute();
    abandon();
    const auto t0 = SteadyClock::now();
    report_failed(cell, e.what());
    cost.serialize_us += us_since(t0);
    failed_.fetch_add(1, std::memory_order_relaxed);
    return finish(CellSource::kFailed);
  }
  end_compute();

  // A leader cancelled mid-compute discards its values: nothing is cached
  // or published (the abandoned-leader contract — waiters wake with a
  // retryable abandon, not a phantom result from a request whose client
  // already gave up).
  if (token.cancelled()) {
    abandon();
    return record_cancelled();
  }

  publish(values);
  const auto apply_start = SteadyClock::now();
  apply(values);
  cost.apply_us += us_since(apply_start);
  const auto serialize_start = SteadyClock::now();
  cache.store(config, values);
  cost.serialize_us += us_since(serialize_start);
  computed_.fetch_add(1, std::memory_order_relaxed);
  return finish(CellSource::kComputed);
}

void SweepRunner::record_cost(const std::string& cell, CellSource source,
                              const CellCost& cost) {
  {
    std::lock_guard lock(cost_mutex_);
    ++cost_.cells;
    cost_.sum.merge(cost);
  }
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  report.emit("cell_cost", [&](obs::JsonWriter& w) {
    w.add("sweep", sweep_)
        .add("cell", cell)
        .add("source", to_string(source))
        .add("total_us", cost.total_us)
        .add("key_us", cost.key_us)
        .add("memo_us", cost.memo_us)
        .add("cache_us", cost.cache_us)
        .add("compute_us", cost.compute_us)
        .add("solve_us", cost.solve_us())
        .add("serialize_us", cost.serialize_us)
        .add("apply_us", cost.apply_us)
        .add("solves", cost.work.solves)
        .add("cg_iterations", cost.work.cg_iterations)
        .add("precond_applies", cost.work.precond_applies)
        .add("des_events", cost.work.des_events);
  });
}

CostBreakdown SweepRunner::cost() const {
  std::lock_guard lock(cost_mutex_);
  return cost_;
}

SweepRunner::Stats SweepRunner::stats() const {
  Stats s;
  s.computed = computed_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.memo_parked = memo_parked_.load(std::memory_order_relaxed);
  return s;
}

void SweepRunner::emit_report() const {
  obs::RunReport& report = obs::RunReport::instance();
  if (!report.enabled()) return;
  const Stats s = stats();
  const SweepCache::Stats c = SweepCache::instance().stats();
  report.emit("sweep", [&](obs::JsonWriter& w) {
    w.add("sweep", sweep_)
        .add("cells", static_cast<std::uint64_t>(s.cells()))
        .add("computed", static_cast<std::uint64_t>(s.computed))
        .add("memo_hits", static_cast<std::uint64_t>(s.memo_hits))
        .add("cache_hits", static_cast<std::uint64_t>(s.cache_hits))
        .add("failed", static_cast<std::uint64_t>(s.failed))
        .add("cancelled", static_cast<std::uint64_t>(s.cancelled))
        .add("memo_parked", static_cast<std::uint64_t>(s.memo_parked))
        .add("cache_enabled", SweepCache::instance().enabled())
        .add("cache_stores", c.stores)
        .add("cache_skips", c.skips);
  });
}

void dispatch_cells(std::size_t count,
                    const std::function<void(std::size_t)>& body) {
  AQUA_TRACE_SCOPE_ARG("sweep.dispatch_cells", "sweep", count);
  std::vector<TaskEngine::Task> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TaskEngine::Task task;
    task.body = [i, &body](WorkerContext&) { body(i); };
    tasks.push_back(std::move(task));
  }
  TaskEngine::shared().run(std::move(tasks));
}

}  // namespace aqua::sweep
