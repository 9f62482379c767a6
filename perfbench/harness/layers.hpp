#pragma once

/// Per-layer metrics of the traced run: self times from the linked spans,
/// the counters the layers already publish (solver.* and perf.* registry
/// counters, ExecStats), and the sweep engine's batch occupancy.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perf/system.hpp"
#include "spans.hpp"

namespace perfbench {

/// Library tracer spans imported below the benchmark's own spans.
const std::vector<const char*>& library_span_names();

/// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_units();

/// Process-wide registry counters published by the solver and the DES.
struct Counters {
  std::uint64_t solves = 0;
  std::uint64_t cg_iterations = 0;
  std::uint64_t vcycles = 0;
  std::uint64_t des_events = 0;
  std::uint64_t noc_ticks = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t instructions = 0;

  static Counters read();
  [[nodiscard]] Counters operator-(const Counters& before) const;
  Counters& operator+=(const Counters& other);
};

/// Simulated totals summed over the ExecStats of traced DES cells.
struct DesTotals {
  std::uint64_t sim_cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  void add(const aqua::ExecStats& stats);
};

struct LayerInputs {
  std::vector<Span> spans;  ///< linked (link_spans)
  Counters counters;        ///< deltas over the traced sets
  DesTotals des;
  double memo_hits = 0.0;
  std::size_t workers = 4;
  double sets = 1.0;        ///< counts and times are reported per set
};

/// Every per-layer metric; those the inputs do not determine are 0.
std::map<std::string, double> layer_metrics(const LayerInputs& in);

}  // namespace perfbench
