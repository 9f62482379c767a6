#pragma once

/// Per-cell cost ledger types (DESIGN.md §11): where a sweep cell's wall
/// time went, phase by phase, plus the solver/DES work counters it caused.
/// SweepRunner fills one CellCost per cell, emits it as a `cell_cost`
/// run-report record, and folds it into a per-runner CostBreakdown that the
/// figure benches publish under the BENCH_*.json `cost_breakdown` key
/// (schema_version 5).

#include <cstdint>

namespace aqua::sweep {

/// One cell's phase attribution. All wall times are exact per cell; the
/// work counters (cg_iterations / vcycles / solve wall / DES events) are
/// snapshot-diffs of the process-wide registry counters around the
/// compute, so with AQUA_SWEEP_WORKERS > 1 concurrent cells may attribute
/// each other's work — exact in serial / 1-worker runs, approximate under
/// parallelism (the totals are always right).
struct CellCost {
  double total_us = 0.0;      ///< whole SweepRunner::run call
  double key_us = 0.0;        ///< canonical-key rendering
  double memo_us = 0.0;       ///< memo map ops + single-flight waiting
  double cache_us = 0.0;      ///< content-cache lookup
  double compute_us = 0.0;    ///< the compute closure (solve + DES + misc)
  double solve_us = 0.0;      ///< solver wall inside the compute
  double serialize_us = 0.0;  ///< cache store / failure report
  double apply_us = 0.0;      ///< the caller's table-write closure
  std::uint64_t cg_iterations = 0;
  std::uint64_t vcycles = 0;
  std::uint64_t des_events = 0;
};

/// Sum of CellCosts over one runner (one sweep). `cells` counts every
/// run() call, whatever its source.
struct CostBreakdown {
  std::uint64_t cells = 0;
  double total_us = 0.0;
  double key_us = 0.0;
  double memo_us = 0.0;
  double cache_us = 0.0;
  double compute_us = 0.0;
  double solve_us = 0.0;
  double serialize_us = 0.0;
  double apply_us = 0.0;
  std::uint64_t cg_iterations = 0;
  std::uint64_t vcycles = 0;
  std::uint64_t des_events = 0;

  void merge(const CellCost& cost) {
    ++cells;
    total_us += cost.total_us;
    key_us += cost.key_us;
    memo_us += cost.memo_us;
    cache_us += cost.cache_us;
    compute_us += cost.compute_us;
    solve_us += cost.solve_us;
    serialize_us += cost.serialize_us;
    apply_us += cost.apply_us;
    cg_iterations += cost.cg_iterations;
    vcycles += cost.vcycles;
    des_events += cost.des_events;
  }

  void merge(const CostBreakdown& other) {
    cells += other.cells;
    total_us += other.total_us;
    key_us += other.key_us;
    memo_us += other.memo_us;
    cache_us += other.cache_us;
    compute_us += other.compute_us;
    solve_us += other.solve_us;
    serialize_us += other.serialize_us;
    apply_us += other.apply_us;
    cg_iterations += other.cg_iterations;
    vcycles += other.vcycles;
    des_events += other.des_events;
  }
};

}  // namespace aqua::sweep
