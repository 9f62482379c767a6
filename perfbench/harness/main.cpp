/// aqua_perfbench: the outside-in benchmark of the AquaCMP pipeline (see
/// perfbench/README.md). perfbench/run.py builds it and runs
///
///   aqua_perfbench --workload freqcap|npb|service_mix --seed N
///                  --seconds S --trace 0|1 --root <checkout> --workdir <dir>
///
/// which prints verdict notes, every metric as "name value unit", and as
/// its last line one JSON object {"correct","attempted","failed","metrics"}.
/// The same executable serves its own child processes (--mode
/// probe-setup | prewarm | loadgen | probe-des-rss), and --mode
/// write-golden regenerates perfbench/golden/ from the current library.

#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "power/chip_model.hpp"
#include "proc.hpp"
#include "sweep/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream os;
  os << std::setprecision(12) << value;
  return os.str();
}

void print_report(const Report& report,
                  const std::vector<std::pair<std::string, std::string>>& units) {
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const auto& [name, value] : report.lines) {
    std::cout << std::left << std::setw(30) << name << " "
              << json_number(value.first) << " " << value.second << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : units) {
    const auto it = report.metrics.find(name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int probe_setup_main(const RunOptions& options,
                     const std::map<std::string, std::string>& args) {
  if (options.workload == "service_mix") {
    auto server = service_setup(
        args.at("prewarm-dir"),
        (fs::path(options.workdir) / "cache-probe").string(), options.workers);
    std::cout << "ready " << now_ns() << std::endl;
    server->stop();
    aqua::sweep::SweepCache::instance().configure("");
    return 0;
  }
  batch_setup(options.workers);
  // The chip models each batch workload builds before its first cell.
  const aqua::ChipModel low = aqua::make_low_power_cmp();
  const aqua::ChipModel high = aqua::make_high_frequency_cmp();
  if (options.workload == "freqcap") {
    const aqua::ChipModel e5 = aqua::make_xeon_e5_2667v4();
    const aqua::ChipModel phi = aqua::make_xeon_phi_7290();
  }
  std::cout << "ready " << now_ns() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Before any library singleton reads the environment.
  scrub_environment(4);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const auto get = [&](const char* key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  try {
    RunOptions options;
    options.workload = get("workload", "");
    options.seed = std::stoull(get("seed", "1"));
    options.seconds = std::stod(get("seconds", "20"));
    options.trace = get("trace", "0") == "1";
    options.root = get("root", ".");
    options.workdir = get("workdir", ".bench_build/work");
    const std::string mode = get("mode", "run");
    if (mode == "loadgen") return loadgen_main(args);
    if (mode == "probe-des-rss") return des_rss_probe_main();
    fs::create_directories(options.workdir);
    if (mode == "probe-setup") return probe_setup_main(options, args);
    if (mode == "prewarm") return prewarm_main(options, args);
    if (mode == "write-golden") return write_goldens(options);
    if (mode != "run") {
      std::cerr << "perfbench: unknown mode " << mode << "\n";
      return 2;
    }

    Report report;
    if (options.workload == "freqcap") {
      report = run_freqcap(options);
    } else if (options.workload == "npb") {
      report = run_npb(options);
    } else if (options.workload == "service_mix") {
      report = run_service_mix(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (freqcap, npb or service_mix)\n";
      return 2;
    }
    std::cout << "perfbench workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    print_report(report, options.trace ? per_layer_units() : end_to_end_units());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
