#pragma once

/// Process plumbing: clocks, resource usage, the environment contract and
/// spawning this executable for the set-up probes, the pre-warm and the
/// load generator.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady clock (CLOCK_MONOTONIC, shared by every process on the host).
double now_s();
std::int64_t now_ns();

/// User + system CPU time of this process, seconds.
double cpu_seconds();
/// High-water resident set of this process, MB.
double peak_rss_mb();
/// Resident set right now, MB.
double current_rss_mb();

/// Removes every AQUA_* variable from the environment and pins the sweep
/// engine at `workers`, so a run always measures the default path
/// whatever the caller exported (cache, resume, fault cells, shards,
/// tracing, PDES, idle-skip and queue knobs).
void scrub_environment(std::size_t workers);

struct ChildResult {
  int exit_code = -1;
  std::string out;            ///< the child's standard output
  std::int64_t spawn_ns = 0;  ///< now_ns() just before the spawn
};

/// Runs this executable with `args`, collects its standard output and
/// waits for it to exit.
ChildResult run_self(const std::vector<std::string>& args);

}  // namespace perfbench
