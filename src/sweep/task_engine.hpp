#pragma once

/// In-process task-parallel sweep engine (DESIGN.md §10).
///
/// One process, all cores: every sweep cell becomes a task in a batch, and
/// a fixed set of persistent workers drains the batch through worker-local
/// queues in the mxtasking style — a one-element LIFO slot for follow-on
/// work a task spawns on its own worker, a strict FIFO lane that never
/// moves, a loose lane the owner drains front-to-back, a shared claim
/// queue for unpinned tasks, and back-of-queue stealing between workers so
/// a tail of slow cells never leaves fast workers idle.
///
/// Affinity annotations place tasks:
///
///   * `affinity = kUnpinned` (default): the task lands in the shared
///     claim queue and runs on whichever worker grabs it first (DES-only
///     NPB cells, per-cell-fresh thermal solves).
///   * `affinity = h, strict = false` ("loose"): the task is queued on its
///     home worker `h % workers` so cells sharing a cached thermal model /
///     multigrid hierarchy land together and reuse worker-local solver
///     state without locks — but an idle worker may still steal it from
///     the back of the queue (it then rebuilds the state it needs, which
///     costs work, never correctness).
///   * `strict = true`: the task runs on its home worker in submission
///     order, never stolen. This is for history-dependent chains whose
///     low-order bits must match the serial run exactly — e.g. the NPB
///     frequency-cap cells, whose warm-started solve sequence is part of
///     the golden corpus.
///
/// Determinism contract: workers only ever write results through their
/// task's own pre-sized slot (a table cell owned by exactly one task), so
/// the assembled table is byte-identical to the serial order regardless of
/// completion order. Loose/unpinned tasks must therefore be pure in their
/// slot values (the same robustness the shard partition already demands);
/// strict tasks additionally keep their exact solve chain.
///
/// Env contract:
///   AQUA_SWEEP_WORKERS=N  -> worker count of the shared engine (N >= 1;
///     unset = hardware concurrency; 1 = serial reference order). Tests
///     repoint programmatically with TaskEngine::shared().configure(n).
///
/// Worker-local state (`WorkerContext::local<T>`) lives for one run():
/// batches are independent and a sweep's cached solver state must not leak
/// into the next experiment's chains.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace aqua::sweep {

class TaskEngine;

/// Handed to every task body: identifies the executing worker and owns its
/// lock-free local state. Only the worker's own thread ever touches a
/// context, so none of this needs synchronization.
class WorkerContext {
 public:
  [[nodiscard]] std::size_t worker() const { return worker_; }
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Worker-local state slot: built by `make` on this worker's first use
  /// of `key`, reused by every later task that runs here. The canonical
  /// use is a per-worker MaxFrequencyFinder whose cached multigrid
  /// hierarchy is shared by all same-affinity cells without locks.
  template <class T, class Make>
  T& local(std::uint64_t key, Make&& make) {
    Slot& slot = slots_[key];
    if (!slot.value) {
      slot.value = std::shared_ptr<void>(std::shared_ptr<T>(make()));
      slot.type = &typeid(T);
      note_local(false);
    } else {
      require(*slot.type == typeid(T),
              "WorkerContext::local: slot type mismatch");
      note_local(true);
    }
    return *static_cast<T*>(slot.value.get());
  }

  /// Pushes follow-on work into this worker's one-element LIFO slot: it
  /// runs next on this worker, before any queued task. At most one spawn
  /// may be pending at a time (the slot is a slot, not a queue).
  void spawn_local(std::function<void(WorkerContext&)> body);

 private:
  friend class TaskEngine;
  WorkerContext(TaskEngine* engine, std::size_t worker, std::size_t workers)
      : engine_(engine), worker_(worker), workers_(workers) {}

  void note_local(bool hit);

  struct Slot {
    std::shared_ptr<void> value;
    const std::type_info* type = nullptr;
  };

  TaskEngine* engine_;
  std::size_t worker_;
  std::size_t workers_;
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::function<void(WorkerContext&)> lifo_slot_;
};

class TaskEngine {
 public:
  static constexpr const char* kWorkersEnv = "AQUA_SWEEP_WORKERS";
  /// Affinity value meaning "no placement preference" (shared claim queue).
  static constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};

  struct Task {
    std::function<void(WorkerContext&)> body;
    std::uint64_t affinity = kUnpinned;
    bool strict = false;
  };

  /// `workers == 0` reads AQUA_SWEEP_WORKERS (malformed or zero values
  /// throw aqua::Error), falling back to hardware concurrency.
  explicit TaskEngine(std::size_t workers = 0);
  ~TaskEngine();

  TaskEngine(const TaskEngine&) = delete;
  TaskEngine& operator=(const TaskEngine&) = delete;

  /// The process-wide engine every sweep driver runs on, sized from
  /// AQUA_SWEEP_WORKERS on first use.
  static TaskEngine& shared();

  /// Re-sizes the worker set (joins and respawns; only between runs).
  /// `workers == 0` re-reads the env contract. Tests use this to compare
  /// serial (1) and task-parallel (N) executions in one process.
  void configure(std::size_t workers);

  [[nodiscard]] std::size_t workers() const;

  /// Executes every task and blocks until the batch drains. Task
  /// exceptions do not abort the batch; the first one rethrows after all
  /// tasks finish. Calls from inside an engine worker (nested sweeps)
  /// execute the batch inline, serially, on the calling worker. Calls
  /// from several non-worker threads serialize.
  void run(std::vector<Task> tasks);

  /// Counters of the most recent completed run().
  struct Stats {
    std::uint64_t executed = 0;        ///< tasks run (== batch size)
    std::uint64_t strict_executed = 0; ///< of which strict-lane
    std::uint64_t shared_claimed = 0;  ///< unpinned tasks claimed
    std::uint64_t stolen = 0;          ///< loose tasks taken off-home
    std::uint64_t lifo_spawned = 0;    ///< tasks run from the LIFO slot
    std::uint64_t local_hits = 0;      ///< WorkerContext::local reuses
    std::uint64_t local_misses = 0;    ///< WorkerContext::local builds
    std::vector<std::uint64_t> per_worker;  ///< tasks executed per worker
  };
  [[nodiscard]] Stats last_run_stats() const;

  /// Resolves the env contract without constructing an engine (benches
  /// report it as provenance).
  static std::size_t workers_from_env();

 private:
  friend class WorkerContext;
  struct Batch;

  void start_workers(std::size_t n);
  void stop_workers();
  void worker_loop(std::size_t id);
  void drain(Batch& batch, WorkerContext& ctx);
  /// `span` is the flight-recorder task-span name (how the task reached
  /// this worker); `chain` is the task's dependent-chain id or
  /// FlightRecorder::kNoChain.
  void execute(Batch& batch, WorkerContext& ctx,
               std::function<void(WorkerContext&)>& body, bool strict,
               const char* span, std::uint32_t chain);
  void run_inline(std::vector<Task>& tasks);

  std::vector<std::thread> workers_;
  std::size_t worker_count_ = 0;

  std::mutex run_mutex_;  ///< one batch at a time

  std::mutex mutex_;  ///< guards batch_/epoch_/stop_ handoff
  std::condition_variable cv_;
  Batch* batch_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  mutable std::mutex stats_mutex_;
  Stats last_stats_;
};

}  // namespace aqua::sweep
