#pragma once

/// Per-cell cost ledger types (DESIGN.md §11): where a sweep cell's wall
/// time went, phase by phase, plus the solver/DES work it caused.
/// SweepRunner fills one CellCost per cell, emits it as a `cell_cost`
/// run-report record, and sums it into a per-runner CostBreakdown that the
/// figure benches publish under the BENCH_*.json `cost_breakdown` key
/// (schema_version 4 onwards).
///
/// Every field is exact per cell at any worker count. The wall times are
/// the cell's own clock reads. The work is the diff of the computing
/// thread's obs::WorkTally around the compute: a cell computes start to
/// finish on one thread (an engine worker, a service worker, or inline in
/// a nested run), so no other cell's work lands in its diff.

#include <cstdint>

#include "obs/metrics.hpp"

namespace aqua::sweep {

/// One cell's phase attribution, or the sum of many.
struct CellCost {
  double total_us = 0.0;      ///< whole SweepRunner::run call
  double key_us = 0.0;        ///< canonical-key rendering
  double memo_us = 0.0;       ///< memo map ops + single-flight waiting
  double cache_us = 0.0;      ///< content-cache lookup
  double compute_us = 0.0;    ///< the compute closure (solve + DES + misc)
  double serialize_us = 0.0;  ///< cache store / failure report
  double apply_us = 0.0;      ///< the caller's table-write closure
  obs::WorkTally work;        ///< solver and DES work inside the compute

  /// Solver wall time inside the compute (a part of compute_us).
  [[nodiscard]] double solve_us() const {
    return static_cast<double>(work.solver_ns) / 1e3;
  }

  void merge(const CellCost& other) {
    total_us += other.total_us;
    key_us += other.key_us;
    memo_us += other.memo_us;
    cache_us += other.cache_us;
    compute_us += other.compute_us;
    serialize_us += other.serialize_us;
    apply_us += other.apply_us;
    work += other.work;
  }
};

/// One runner's (one sweep's) ledger: `cells` counts every run() call,
/// whatever its source, and `sum` is their CellCosts summed.
struct CostBreakdown {
  std::uint64_t cells = 0;
  CellCost sum;
};

}  // namespace aqua::sweep
