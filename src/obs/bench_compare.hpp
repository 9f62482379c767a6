#pragma once

/// Noise-aware BENCH_*.json comparison — the core of `trace_tools
/// perf-gate` (DESIGN.md §11). A fresh bench report is compared against the
/// median of k committed baseline reports (bench/baselines/): the median
/// absorbs run-to-run noise in the baselines, and per-kind relative
/// thresholds absorb machine-to-machine noise in the fresh run.
///
/// Metrics fall into two kinds with different gate rules:
///
///   * timing (`*_seconds`, `*_wall_seconds`, `*_us`, `*_ns`, `*_ms`):
///     regress only when the fresh value is SLOWER than the baseline
///     median by more than the timing threshold (faster is never a
///     failure). Wall clocks vary across machines, so CI passes a generous
///     threshold here and relies on the work metrics for precision.
///   * rate (`*_per_sec`): throughput; regresses only when the fresh value
///     is SLOWER (lower) than the median by more than the timing threshold
///     — the timing rule with the direction inverted.
///   * work (every other numeric key: iterations, v-cycles, solve counts,
///     cell counts, max_chips, ...): these are deterministic outputs of
///     the simulator, so drift in EITHER direction beyond the work
///     threshold is a regression — a drop usually means the comparison
///     basis changed and the baselines must be regenerated deliberately
///     (bench/update_baselines.sh).
///
/// `schema_version` and non-numeric values (bench name, git provenance)
/// are never compared; metrics present on only one side are skipped and
/// counted, not failed, so adding a key does not break the gate against
/// old baselines.

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Flattens one BENCH_*.json into numeric metrics (nested objects become
/// dotted keys, e.g. cost_breakdown.solve_us). Throws on unreadable or
/// malformed files.
std::map<std::string, double> load_bench_metrics(const std::string& path);

/// "bench" field of a BENCH_*.json (empty when absent).
std::string bench_name_of(const std::string& path);

enum class MetricKind { kTiming, kRate, kWork, kIgnored };

/// Classifies a flattened metric key (suffix match on the timing/rate
/// units, after dropping a trailing per-worker-count `_w<digits>` tag).
MetricKind classify_metric(std::string_view key);

struct GateThresholds {
  double timing = 0.5;  ///< fresh may be up to 50% slower than the median
  double work = 0.10;   ///< fresh may drift up to 10% from the median
};

struct GateFinding {
  std::string metric;
  MetricKind kind = MetricKind::kWork;
  double fresh = 0.0;
  double baseline = 0.0;  ///< median over the baseline reports
  double ratio = 0.0;     ///< fresh / baseline (0 when baseline is 0)
  double threshold = 0.0;
  bool regression = false;
};

struct GateResult {
  std::vector<GateFinding> findings;  ///< compared metrics, worst first
  std::size_t compared = 0;
  std::size_t regressions = 0;
  std::size_t skipped = 0;  ///< present on only one side / non-comparable
  [[nodiscard]] bool passed() const { return regressions == 0; }
};

/// Median of the per-baseline values for one metric.
double median_of(std::vector<double> values);

/// Compares `fresh` against the median of `baselines` metric-by-metric.
/// Baselines must be non-empty. A metric whose baseline median is 0 gates
/// exactly (work: fresh must be 0; timing: skipped).
GateResult gate_bench(const std::map<std::string, double>& fresh,
                      const std::vector<std::map<std::string, double>>&
                          baselines,
                      const GateThresholds& thresholds = {});

}  // namespace aqua::obs
