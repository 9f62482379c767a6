#pragma once

/// The benchmark's workloads and the plumbing they share. A run measures
/// the untraced path (the library's own experiment functions and server)
/// and prints the end-to-end metrics; with --trace 1 it measures untraced
/// sets first, then replays the same cells through span-wrapped calls and
/// prints the per-layer metrics instead.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"
#include "layers.hpp"
#include "service/server.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string root;     ///< checkout root (goldens in <root>/perfbench/golden)
  std::string workdir;  ///< scratch directory inside the checkout
  std::size_t workers = 4;
};

/// What a run prints: verdict notes, labeled metrics, then the result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> lines;
  std::map<std::string, double> metrics;  ///< the result line's metrics

  void note(const std::string& text) { notes.push_back(text); }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL " + why);
  }
  void line(const std::string& name, double value, const std::string& unit) {
    lines.push_back({name, {value, unit}});
  }
};

/// The end-to-end metrics of the result line, with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_units();

/// Prints the result line's end-to-end metrics (already in
/// report.metrics) and the end-to-end metrics that are printed but not
/// gated: latency_p50_ms (see perfbench/README.md) and error_rate, which
/// is `failed / attempted` of the result line.
void report_end_to_end(Report& report, double latency_p50_ms);

Report run_freqcap(const RunOptions& options);
Report run_npb(const RunOptions& options);
Report run_service_mix(const RunOptions& options);

// --- set-up, shared by the main run and its set-up probes ---------------

/// Batch workloads: the sweep engine's workers (chip models are built by
/// the workload right after).
void batch_setup(std::size_t workers);

/// service_mix: a fresh cache directory holding a copy of the pre-warmed
/// file, loaded through SweepCache::configure, and a started server.
std::unique_ptr<aqua::service::SweepServer> service_setup(
    const std::string& prewarm_dir, const std::string& cache_dir,
    std::size_t workers);

/// setup_s: median over 31 fresh processes of the time from spawn to the
/// point where the first timed cell would start. Workloads probe after
/// their timed work (batch) or the pre-warm (service_mix): a millisecond of
/// set-up on a CPU that has just come out of idle read up to 1.7x slower.
double measure_setup(const RunOptions& options, Report& report,
                     const std::vector<std::string>& extra_args = {});

// --- child-process modes --------------------------------------------------

int probe_setup_main(const RunOptions& options,
                     const std::map<std::string, std::string>& args);
int prewarm_main(const RunOptions& options,
                 const std::map<std::string, std::string>& args);
int loadgen_main(const std::map<std::string, std::string>& args);
int des_rss_probe_main();
/// Regenerates perfbench/golden/ from the current library (default seed).
int write_goldens(const RunOptions& options);
/// The tables one untraced set renders (freqcap; npb at seed 1).
Tables freqcap_golden_tables();
Tables npb_golden_tables();

// --- shared helpers ---------------------------------------------------------

std::string golden_file(const RunOptions& options, const std::string& name);

/// Diffs `actual` against `golden`; each mismatched line is one failed
/// operation and the first one is reported.
void check_tables(const Tables& golden, const Tables& actual,
                  const std::string& what, Report& report);

void check_verdicts(const std::vector<Verdict>& verdicts, bool print,
                    Report& report);

/// Fails the run when a traced value falls outside the untraced runs'
/// [min, max] widened by `slack` of their median.
void check_within_spread(const std::string& name,
                         const std::vector<double>& untraced,
                         const std::vector<double>& traced, double slack,
                         Report& report);

/// Full value set of a frequency-cap cell, as the library's sweeps store it.
std::map<std::string, double> cap_values(const aqua::FrequencyCap& cap);

/// Traced-run bracket: SpanScope recording plus the library tracer.
void begin_trace();
/// Moves recorded spans and the library's spans into `spans`.
void collect_trace(std::vector<Span>& spans);
void end_trace();
/// Links `spans`, writes them to <workdir>/spans-<workload>.jsonl.
void finish_spans(const RunOptions& options, std::vector<Span>& spans);

/// Copies the per-layer metrics into the report (result line and lines).
void report_layers(const std::map<std::string, double>& metrics,
                   Report& report);

}  // namespace perfbench
