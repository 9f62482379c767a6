#pragma once

/// Shared plumbing for the golden-corpus regression tests: exact text
/// renderers for the experiment result types (every double in shortest
/// round-trip form, so "matches the golden file" means "bit-identical
/// numerics"), a golden-file comparator with an AQUA_UPDATE_GOLDEN=1
/// regeneration path, and env/work-probe helpers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiments.hpp"
#include "obs/metrics.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"

#ifndef AQUA_GOLDEN_DIR
#error "AQUA_GOLDEN_DIR must point at the golden corpus directory"
#endif

namespace aqua::sweep_golden {

inline void clear_sweep_env() {
  ::unsetenv(sweep::SweepRunner::kPoisonEnv);
  ::unsetenv(sweep::TaskEngine::kWorkersEnv);
}

/// d -> shortest round-trip decimal, "-" for a missing optional.
inline std::string exact(double d) { return sweep::format_double_exact(d); }
inline std::string exact(const std::optional<double>& d) {
  return d.has_value() ? exact(*d) : std::string("-");
}

inline std::string render(const FreqVsChipsData& data) {
  std::ostringstream os;
  os << "freq_vs_chips chip=" << data.chip_name
     << " max_chips=" << data.max_chips
     << " threshold_c=" << exact(data.threshold_c) << "\n";
  for (const FreqVsChipsSeries& s : data.series) {
    for (std::size_t n = 0; n < s.ghz.size(); ++n) {
      os << "cell chips=" << (n + 1) << " cooling=" << to_string(s.cooling)
         << " ghz=" << exact(s.ghz[n]) << "\n";
    }
  }
  return os.str();
}

inline std::string render(const NpbData& data) {
  std::ostringstream os;
  os << "npb chip=" << data.chip_name << " chips=" << data.chips
     << " threads=" << data.threads
     << " baseline=" << to_string(data.baseline) << "\n";
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    os << "cap cooling=" << to_string(data.coolings[k])
       << " feasible=" << (data.caps[k].feasible ? 1 : 0);
    if (data.caps[k].feasible) {
      os << " hz=" << exact(data.caps[k].frequency.value())
         << " max_temperature_c=" << exact(data.caps[k].max_temperature_c)
         << " chip_power_w=" << exact(data.caps[k].chip_power.value());
    }
    os << "\n";
  }
  for (const NpbRow& row : data.rows) {
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      os << "cell bench=" << row.benchmark
         << " cooling=" << to_string(data.coolings[k])
         << " seconds=" << exact(row.seconds[k])
         << " rel=" << exact(row.relative[k]) << "\n";
    }
  }
  return os.str();
}

inline std::string render(const std::vector<HtcSweepPoint>& points) {
  std::ostringstream os;
  os << "htc_sweep points=" << points.size() << "\n";
  for (const HtcSweepPoint& p : points) {
    os << "cell htc=" << exact(p.htc)
       << " temperature_c=" << exact(p.temperature_c)
       << " failed=" << (p.failed ? 1 : 0) << "\n";
  }
  return os.str();
}

inline std::string render(const std::vector<RotationPoint>& points) {
  std::ostringstream os;
  os << "rotation_sweep points=" << points.size() << "\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << "cell step=" << i << " ghz=" << exact(points[i].ghz)
       << " no_flip_c=" << exact(points[i].temperature_no_flip_c)
       << " flip_c=" << exact(points[i].temperature_flip_c)
       << " failed=" << (points[i].failed ? 1 : 0) << "\n";
  }
  return os.str();
}

/// Contents of tests/golden/<name>; fails the test when the file is
/// missing.
inline std::string read_golden(const std::string& name) {
  const std::string path = std::string(AQUA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in.is_open()) {
    ADD_FAILURE() << "missing golden file " << path
                  << " — regenerate with AQUA_UPDATE_GOLDEN=1 ctest -R golden";
    return {};
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares `text` with tests/golden/<name>; AQUA_UPDATE_GOLDEN=1 rewrites
/// the file instead (the corpus regeneration path).
inline void expect_matches_golden(const std::string& name,
                                  const std::string& text) {
  if (std::getenv("AQUA_UPDATE_GOLDEN") != nullptr) {
    const std::string path = std::string(AQUA_GOLDEN_DIR) + "/" + name;
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    return;
  }
  EXPECT_EQ(read_golden(name), text)
      << "output diverged from golden " << name
      << " — if the change is intended, regenerate with "
         "AQUA_UPDATE_GOLDEN=1";
}

/// Work done by one run: thermal solves + simulated DES instructions. A
/// fully warm (cache-served) run must report zero of both — stronger than
/// any wall-clock assertion and immune to machine noise.
///
/// Both read process-wide registry counters, not the calling thread's
/// obs::WorkTally: the probed runs compute their cells on engine workers,
/// so the test thread's tally would read zero even for a cold run.
struct WorkProbe {
  std::uint64_t solves_before =
      obs::Registry::instance().counter("solver.solves").value();
  std::uint64_t instr_before =
      obs::Registry::instance().counter("perf.instructions").value();

  [[nodiscard]] std::uint64_t solves() const {
    return obs::Registry::instance().counter("solver.solves").value() -
           solves_before;
  }
  [[nodiscard]] std::uint64_t des_instructions() const {
    return obs::Registry::instance().counter("perf.instructions").value() -
           instr_before;
  }
};

}  // namespace aqua::sweep_golden
