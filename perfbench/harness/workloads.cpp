#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "sweep/cache.hpp"
#include "sweep/task_engine.hpp"

namespace perfbench {

namespace fs = std::filesystem;

const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"setup_s", "s"}, {"wall_s", "s"},           {"cpu_s", "s"},
      {"peak_rss_mb", "MB"}, {"latency_p99_ms", "ms"}};
  return units;
}

void report_end_to_end(Report& report, double latency_p50_ms) {
  for (const auto& [name, unit] : end_to_end_units()) {
    report.line(name, report.metrics[name], unit);
  }
  report.line("latency_p50_ms", latency_p50_ms, "ms");
  report.line("error_rate",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
              "ratio");
}

void batch_setup(std::size_t workers) {
  aqua::sweep::TaskEngine::shared().configure(workers);
}

std::unique_ptr<aqua::service::SweepServer> service_setup(
    const std::string& prewarm_dir, const std::string& cache_dir,
    std::size_t workers) {
  const std::string file = aqua::sweep::SweepCache::kFileName;
  fs::remove_all(cache_dir);
  fs::create_directories(cache_dir);
  fs::copy_file(fs::path(prewarm_dir) / file, fs::path(cache_dir) / file);
  {
    SpanScope load("cache.configure");
    aqua::sweep::SweepCache::instance().configure(cache_dir);
  }
  aqua::service::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.workers = workers;
  auto server = std::make_unique<aqua::service::SweepServer>(config);
  server->start();
  return server;
}

double measure_setup(const RunOptions& options, Report& report,
                     const std::vector<std::string>& extra_args) {
  constexpr int kProbes = 31;
  std::vector<std::string> args{"--mode",     "probe-setup",
                                "--workload", options.workload,
                                "--root",     options.root,
                                "--workdir",  options.workdir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<double> samples;
  for (int i = 0; i < kProbes; ++i) {
    const ChildResult child = run_self(args);
    std::istringstream in(child.out);
    std::string word;
    std::int64_t ready_ns = 0;
    while (in >> word) {
      if (word == "ready") in >> ready_ns;
    }
    if (child.exit_code != 0 || ready_ns <= child.spawn_ns) {
      report.fail("set-up probe did not report ready (exit " +
                  std::to_string(child.exit_code) + ")");
      continue;
    }
    samples.push_back(static_cast<double>(ready_ns - child.spawn_ns) / 1e9);
  }
  return median(samples);
}

std::string golden_file(const RunOptions& options, const std::string& name) {
  return (fs::path(options.root) / "perfbench" / "golden" / name).string();
}

void check_tables(const Tables& golden, const Tables& actual,
                  const std::string& what, Report& report) {
  if (golden.empty()) {
    report.failed += 1;
    report.fail(what + ": no golden tables to compare against");
    return;
  }
  const std::vector<Mismatch> mismatches = diff_tables(golden, actual);
  if (mismatches.empty()) return;
  report.failed += mismatches.size();
  const Mismatch& m = mismatches.front();
  report.fail(what + ": " + std::to_string(mismatches.size()) +
              " table line(s) differ from the golden; first in " + m.section +
              " line " + std::to_string(m.line) + ": expected '" + m.expected +
              "', got '" + m.actual + "'");
}

void check_verdicts(const std::vector<Verdict>& verdicts, bool print,
                    Report& report) {
  for (const Verdict& v : verdicts) {
    if (!v.ok) {
      report.failed += 1;
      report.fail("paper shape: " + v.claim + " (measured " + v.measured + ")");
    } else if (print) {
      report.note("PASS paper shape: " + v.claim + " (measured " + v.measured +
                  ")");
    }
  }
}

void check_within_spread(const std::string& name,
                         const std::vector<double>& untraced,
                         const std::vector<double>& traced, double slack,
                         Report& report) {
  if (untraced.empty()) return;
  const double lo = *std::min_element(untraced.begin(), untraced.end());
  const double hi = *std::max_element(untraced.begin(), untraced.end());
  const double pad = slack * median(untraced);
  for (double value : traced) {
    if (value < lo - pad || value > hi + pad) {
      std::ostringstream os;
      os << "traced " << name << " " << value << " outside the untraced spread ["
         << lo << ", " << hi << "] +/- " << pad;
      report.fail(os.str());
      return;
    }
  }
  std::ostringstream os;
  os << "PASS traced " << name << " within the untraced spread [" << lo << ", "
     << hi << "]";
  report.note(os.str());
}

std::map<std::string, double> cap_values(const aqua::FrequencyCap& cap) {
  std::map<std::string, double> values{{"feasible", cap.feasible ? 1.0 : 0.0}};
  if (cap.feasible) {
    values["step"] = static_cast<double>(cap.step_index);
    values["hz"] = cap.frequency.value();
    values["ghz"] = cap.frequency.gigahertz();
    values["max_temperature_c"] = cap.max_temperature_c;
    values["chip_power_w"] = cap.chip_power.value();
    values["total_power_w"] = cap.total_power.value();
  }
  return values;
}

void begin_trace() {
  aqua::obs::Tracer& tracer = aqua::obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  set_recording(true);
}

void collect_trace(std::vector<Span>& spans) {
  std::vector<Span> ours = drain_spans();
  spans.insert(spans.end(), ours.begin(), ours.end());
  aqua::obs::Tracer& tracer = aqua::obs::Tracer::instance();
  import_library_spans(spans, tracer.snapshot_events(), library_span_names());
  tracer.clear();
}

void end_trace() {
  set_recording(false);
  aqua::obs::Tracer::instance().set_enabled(false);
}

void finish_spans(const RunOptions& options, std::vector<Span>& spans) {
  link_spans(spans);
  const fs::path path =
      fs::path(options.workdir) / ("spans-" + options.workload + ".jsonl");
  std::ofstream out(path);
  write_spans(out, spans);
}

void report_layers(const std::map<std::string, double>& metrics,
                   Report& report) {
  for (const auto& [name, unit] : per_layer_units()) {
    const auto it = metrics.find(name);
    const double value = it == metrics.end() ? 0.0 : it->second;
    report.metrics[name] = value;
    report.line(name, value, unit);
  }
}

}  // namespace perfbench
