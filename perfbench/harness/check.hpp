#pragma once

/// Output checks. Every workload renders its figure tables at the precision
/// the figure benches print (0.1 GHz caps, 0.1 C temperatures, 3-decimal
/// relative NPB times) and diffs them line by line against the golden
/// tables stored in perfbench/golden/, so a change that moves results only
/// below the printed precision still passes. The paper-shape checks of
/// examples/verify_reproduction.cpp run on the same data.

#include <map>
#include <string>
#include <vector>

#include "core/experiments.hpp"

namespace perfbench {

/// Named rendered tables. File form: a "## <name>" line opens each
/// section, followed by the section's rendered lines.
using Tables = std::map<std::string, std::string>;

std::string format_tables(const Tables& tables);
Tables parse_tables(const std::string& text);
/// Empty when the file is missing.
Tables load_tables(const std::string& path);
void save_tables(const std::string& path, const Tables& tables);

struct Mismatch {
  std::string section;
  std::size_t line = 0;  ///< 1-based within the section
  std::string expected;
  std::string actual;
};

/// Lines of `actual` that differ from `golden`, section by section. A
/// section present on only one side contributes one mismatch per line.
std::vector<Mismatch> diff_tables(const Tables& golden, const Tables& actual);

/// The sections of `tables` whose names end in `suffix`.
Tables select(const Tables& tables, const std::string& suffix);

std::string render_freq_vs_chips(const aqua::FreqVsChipsData& data);
std::string render_htc(
    const std::vector<std::vector<aqua::HtcSweepPoint>>& per_chip,
    const std::vector<double>& htcs);
std::string render_rotation(const std::vector<aqua::RotationPoint>& air,
                            const std::vector<aqua::RotationPoint>& water);
/// The cap row (seed-independent) and the relative-time rows.
std::string render_npb_caps(const aqua::NpbData& data);
std::string render_npb_times(const aqua::NpbData& data);

struct Verdict {
  std::string claim;
  bool ok = false;
  std::string measured;
};

/// Coolant ordering, the water-pipe 7-chip (low-power) / 8-chip
/// (high-frequency) boundaries, immersion carrying 8 low-power chips, and
/// the flip gain at the top VFS step under water.
std::vector<Verdict> freqcap_shape(
    const aqua::FreqVsChipsData& fig07, const aqua::FreqVsChipsData& fig08,
    const std::vector<aqua::RotationPoint>& water_rotation);

/// Water beats water pipe on the Fig. 10 configuration.
Verdict npb_shape(const aqua::NpbData& fig10);

}  // namespace perfbench
