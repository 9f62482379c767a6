#pragma once

/// SweepRunner: the one code path every Fig. 7-13 sweep cell goes through
/// (DESIGN.md §9). It composes, in fixed precedence order:
///
///   1. poison          (AQUA_FAULT_CELL cells always fail, emit a
///                       `degraded_result` record, and are NEVER written
///                       to the cache)
///   2. in-process memo (dedupe of identical cells inside one sweep —
///                       e.g. two cooling options capping at the same
///                       frequency share one DES run). Under the task
///                       engine the memo is single-flight: the first
///                       worker to reach a canonical key becomes its
///                       leader and computes; concurrent workers block on
///                       that key's entry (not on a global lock) and are
///                       served as memo hits, so each key computes exactly
///                       once per sweep. A leader that fails or is
///                       cancelled abandons the entry and waiters retry
///                       from the top of the precedence chain.
///                       A parked waiter holds its engine worker for the
///                       leader's whole compute, so a sweep that sees
///                       duplicate keys before dispatch runs them in one
///                       task (npb_experiment groups each program's
///                       equal-cap slots); the memo stays the dedupe of
///                       record. `Stats::memo_parked` counts the parks.
///   3. content cache   (AQUA_SWEEP_CACHE warm hits skip the compute; the
///                       one persistent cell store, for kill/resume)
///   4. compute         (isolate-and-continue: a throwing cell emits a
///                       `degraded_result` record, is never cached, and
///                       does not abort the sweep)
///
/// Poison outranks memo/cache on purpose: deterministic fault injection
/// must not be maskable by a warm cache.
///
/// AQUA_FAULT_CELL=<sweep>:<cell>[,<sweep>:<cell>...] names the poisoned
/// cells by this runner's sweep name and the caller's display cell name;
/// it is read at construction, so tests can repoint it.
///
/// Cancellation (DESIGN.md §13): run() takes an optional CancelToken and
/// checks it at the chain boundaries — on entry (where it also honors the
/// process-wide sweep interrupt flag), while parked on a single-flight
/// memo entry (the wait is bounded by the token's deadline), before the
/// compute, and after it. A cancelled cell returns CellSource::kCancelled
/// and is retryable by contract: never reported as failed, never cached,
/// and a cancelled leader abandons its memo entry so waiters wake and
/// retry as leaders instead of inheriting a phantom failure.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/cell_key.hpp"
#include "sweep/cost.hpp"
#include "sweep/interrupt.hpp"

namespace aqua::sweep {

/// Where a cell's values came from.
enum class CellSource {
  kComputed,
  kMemo,
  kCache,
  kFailed,
  /// The cell's CancelToken fired (deadline or explicit cancel) or the
  /// process-wide sweep interrupt flag is up. Retryable: nothing was
  /// reported or cached, and `apply` did not run.
  kCancelled,
};

/// Stable lowercase name ("computed", "memo", ... — the `cell_cost`
/// run-report records carry it).
const char* to_string(CellSource source);

/// Per-cell options. None is left: `run` ignores its policy argument.
struct CellPolicy {
  bool shardable = true;  ///< Unread in src/; ROADMAP item 10 deletes it.
};

class SweepRunner {
 public:
  static constexpr const char* kPoisonEnv = "AQUA_FAULT_CELL";

  /// `sweep` names the runner in run-report records and AQUA_FAULT_CELL
  /// specs. The poison spec is read at construction.
  explicit SweepRunner(std::string sweep);

  /// Runs one cell. `compute` produces the cell's values; `apply` writes
  /// values (from whichever source) into the caller's table. `apply` runs
  /// for every source except kFailed and kCancelled. `token` bounds the
  /// cell cooperatively (see file comment); the default inert token never
  /// cancels.
  CellSource run(const CellConfig& config, const std::string& cell,
                 const CellPolicy& policy,  // unread; ROADMAP item 10 drops it
                 const std::function<std::map<std::string, double>()>& compute,
                 const std::function<void(const std::map<std::string, double>&)>&
                     apply,
                 const CancelToken& token = {});

  struct Stats {
    std::size_t computed = 0;
    std::size_t memo_hits = 0;
    std::size_t cache_hits = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    /// Times a cell parked on an in-flight memo entry (a wait, not a
    /// source: a parked cell ends up in one of the counts above).
    std::size_t memo_parked = 0;
    [[nodiscard]] std::size_t cells() const {
      return computed + memo_hits + cache_hits + failed + cancelled;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Aggregated per-cell cost ledger (DESIGN.md §11): phase wall times and
  /// solver/DES work summed over every run() call so far. Always on — the
  /// per-cell overhead is a handful of clock reads and two copies of the
  /// thread's work tally. Individual `cell_cost` run-report records are
  /// only emitted when reporting is enabled.
  [[nodiscard]] CostBreakdown cost() const;

  /// Emits a "sweep" run-report record with this runner's counters (no-op
  /// when reporting is off).
  void emit_report() const;

 private:
  /// Folds one cell's cost into the ledger and, when reporting is on,
  /// emits its `cell_cost` record.
  void record_cost(const std::string& cell, CellSource source,
                   const CellCost& cost);
  /// Emits the failed cell's `degraded_result` run-report record.
  void report_failed(const std::string& cell, const std::string& error) const;

  std::string sweep_;
  std::vector<std::string> poisons_;  ///< this sweep's AQUA_FAULT_CELL cells

  /// Single-flight memo entry: one per canonical key. `memo_mutex_` only
  /// guards the map and entry state flips — never a compute. Waiters block
  /// on the entry's cv; `ready` publishes values, erasure from the map
  /// (leader failed / cancelled) wakes waiters to retry as leaders.
  struct MemoEntry {
    std::condition_variable cv;
    bool ready = false;
    bool abandoned = false;
    std::map<std::string, double> values;
  };

  std::mutex memo_mutex_;
  std::unordered_map<std::string, std::shared_ptr<MemoEntry>> memo_;

  mutable std::mutex cost_mutex_;
  CostBreakdown cost_;

  std::atomic<std::size_t> computed_{0};
  std::atomic<std::size_t> memo_hits_{0};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> memo_parked_{0};
};

/// Dispatches `count` independent, placement-free cells as unpinned tasks
/// on the shared TaskEngine: workers claim the next unclaimed cell index
/// in ascending order, so slow cells never leave fast workers idle and a
/// driver that numbers its longest cells first starts them first. Every
/// thermal sweep goes through here; only NPB's DES groups, which run
/// several cells per task, build a TaskEngine batch directly.
void dispatch_cells(std::size_t count,
                    const std::function<void(std::size_t)>& body);

}  // namespace aqua::sweep
