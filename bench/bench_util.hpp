#pragma once

/// Shared plumbing for the experiment bench binaries: every bench prints
/// its paper-style table(s) first, then runs its google-benchmark
/// micro-timings. `AQUA_NPB_SCALE` (env) scales the NPB instruction counts
/// (default 0.5) so the full-system figures can be traded between fidelity
/// and wall time.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "common/table.hpp"
#include "core/experiments.hpp"

namespace aqua::bench {

/// Prints the figure banner ("=== Figure 7: ... ===").
void banner(const std::string& id, const std::string& description);

/// Exit code for an interrupted sweep driver (128 + SIGINT, the shell
/// convention).
inline constexpr int kInterruptedExit = 130;

/// Installs the SIGINT/SIGTERM sweep interrupt guard (DESIGN.md §13): the
/// long-running fig drivers call this first so an interrupt stops new
/// cells at the runner's entry gate instead of killing the process
/// mid-cache-write.
void install_interrupt_guard();

/// When the interrupt guard fired during the sweep, prints the
/// flushed-at-a-cell-boundary / AQUA_SWEEP_CACHE hint and returns true —
/// the driver then returns kInterruptedExit instead of publishing a
/// partial table and BENCH json.
bool interrupted_epilogue(const std::string& id);

/// Renders a frequency-vs-chips experiment as the paper's series table
/// (rows = chip counts, columns = cooling options, "-" = cannot be drawn).
Table freq_vs_chips_table(const FreqVsChipsData& data);

/// Renders an NPB experiment: per-benchmark relative execution times plus
/// the absolute frequency row.
Table npb_table(const NpbData& data);

/// NPB instruction scale from AQUA_NPB_SCALE (default 0.5).
double npb_scale();

/// Standard tail: parse benchmark flags and run registered micro-benches.
int run_microbenchmarks(int argc, char** argv);

/// Version of the BENCH_*.json schema, written as "schema_version" in
/// every file. Bump when keys change meaning or disappear; consumers
/// should skip files with a newer version than they understand.
/// History: 1 = flat key map (implicit, unversioned); 2 = adds
/// schema_version + git provenance; 3 = adds the sweep_* provenance keys
/// (cells, journal resumes, cache hits, dedupes, partition holes,
/// failures); 4 = adds the nested "cost_breakdown" object (per-phase wall
/// times and solver/DES work from the sweep cost ledger, DESIGN.md §11);
/// 5 = drops the resume-journal keys (`sweep_resumed` and the ledger's
/// journal lookup time) with the journal itself; 6 = drops the
/// partition-hole count with the multi-process sweep partition.
inline constexpr int kSchemaVersion = 6;

/// Machine-readable counterpart of the printed tables: a flat ordered
/// key -> value map written as `BENCH_<name>.json` in the working
/// directory (EXPERIMENTS.md documents the format). Every file carries
/// "bench", "schema_version" (kSchemaVersion) and "git" (`git describe`
/// of the configured tree) before the bench's own keys. Values are JSON
/// numbers, booleans or strings; insertion order is preserved.
///
/// Constructing a JsonReport also retargets the obs tracer's default
/// output to TRACE_<name>.json (explicit AQUA_TRACE=<path> wins), and
/// write() snapshots the metrics registry into the run report when
/// AQUA_METRICS is on.
class JsonReport {
 public:
  explicit JsonReport(std::string name);

  JsonReport& add(const std::string& key, double value, int decimals = 6);
  JsonReport& add(const std::string& key, std::int64_t value);
  JsonReport& add(const std::string& key, std::size_t value);
  JsonReport& add(const std::string& key, bool value);
  JsonReport& add(const std::string& key, const std::string& value);

  /// Expands the solver part of a work tally into `<prefix>_solves`,
  /// `_iterations`, `_vcycles` and `_solver_seconds` (CG time summed
  /// across threads) entries.
  JsonReport& add_stats(const std::string& prefix, const obs::WorkTally& work);

  /// Expands a sweep's cell-provenance counters into `sweep_cells`,
  /// `sweep_cache_hits`, `sweep_deduped` and `sweep_failed` — the numbers
  /// the CI warm-cache gate reads back from BENCH_*.json.
  JsonReport& add_sweep_provenance(std::size_t cells, std::size_t cached,
                                   std::size_t deduped, std::size_t failed);

  /// Writes the sweep cost ledger as the nested "cost_breakdown" object
  /// (schema_version 4): cells, the per-phase *_us wall times, and the
  /// cg_iterations / vcycles / des_events work counters. `trace_tools
  /// perf-gate` flattens it to dotted `cost_breakdown.*` metrics and gates
  /// the work counters as deterministic work.
  JsonReport& add_cost_breakdown(const sweep::CostBreakdown& cost);

  /// Writes `BENCH_<name>.json` and prints the path; returns it.
  std::string write() const;

 private:
  JsonReport& add_raw(const std::string& key, std::string rendered);

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace aqua::bench
