#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

bool is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

std::uint64_t counter(const char* name) {
  return aqua::obs::Registry::instance().counter(name).value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<const char*>& library_span_names() {
  static const std::vector<const char*> names{
      "freq_cap.find",    "thermal.assemble",         "thermal.solve_steady",
      "multigrid.build",  "multigrid.refresh_values", "solver.cg",
      "power.block_powers", "perf.cmp_run"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"freq_cap.find.calls", "count"},
      {"freq_cap.find.self_ms", "ms"},
      {"freq_cap.solves_per_find", "ratio"},
      {"thermal.assemble.calls", "count"},
      {"thermal.assemble.ms", "ms"},
      {"thermal.refresh.ms", "ms"},
      {"thermal.solve_cold.ms", "ms"},
      {"thermal.solve_warm.ms", "ms"},
      {"solver.cg_iterations", "count"},
      {"solver.iters_per_solve", "ratio"},
      {"solver.vcycles", "count"},
      {"power.block_powers.calls", "count"},
      {"power.block_powers.us", "us"},
      {"des.setup.ms", "ms"},
      {"des.setup.rss_mb", "MB"},
      {"des.run.self_ms", "ms"},
      {"des.run.cell_p50_ms", "ms"},
      {"des.ns_per_event", "ns"},
      {"des.events", "count"},
      {"des.noc_ticks", "count"},
      {"des.noc_packets", "count"},
      {"des.instructions", "count"},
      {"des.sim_cycles", "count"},
      {"des.l1_miss_rate", "ratio"},
      {"des.l2_miss_rate", "ratio"},
      {"sweep.cells", "count"},
      {"sweep.memo_hits", "count"},
      {"sweep.overhead_ms", "ms"},
      {"engine.busy_frac", "ratio"},
      {"engine.idle_tail_ms", "ms"},
      {"cache.load.ms", "ms"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.stores", "count"},
      {"cache.hit_ratio", "ratio"},
      {"service.lat_cache.p50_ms", "ms"},
      {"service.lat_memo.p50_ms", "ms"},
      {"service.lat_computed.p50_ms", "ms"},
      {"service.lat_computed.p99_ms", "ms"},
      {"service.ping.p99_ms", "ms"},
      {"service.accepted", "count"},
      {"service.rejected_overload", "count"},
      {"loadgen.late.p99_ms", "ms"},
      {"loadgen.outstanding.max", "count"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

Counters Counters::read() {
  Counters c;
  c.solves = counter("solver.solves");
  c.cg_iterations = counter("solver.cg_iterations");
  c.vcycles = counter("solver.vcycles");
  c.des_events = counter("perf.events");
  c.noc_ticks = counter("perf.noc_ticks");
  c.noc_packets = counter("perf.noc_packets");
  c.instructions = counter("perf.instructions");
  return c;
}

Counters Counters::operator-(const Counters& before) const {
  Counters d;
  d.solves = solves - before.solves;
  d.cg_iterations = cg_iterations - before.cg_iterations;
  d.vcycles = vcycles - before.vcycles;
  d.des_events = des_events - before.des_events;
  d.noc_ticks = noc_ticks - before.noc_ticks;
  d.noc_packets = noc_packets - before.noc_packets;
  d.instructions = instructions - before.instructions;
  return d;
}

Counters& Counters::operator+=(const Counters& other) {
  solves += other.solves;
  cg_iterations += other.cg_iterations;
  vcycles += other.vcycles;
  des_events += other.des_events;
  noc_ticks += other.noc_ticks;
  noc_packets += other.noc_packets;
  instructions += other.instructions;
  return *this;
}

void DesTotals::add(const aqua::ExecStats& stats) {
  sim_cycles += stats.cycles;
  l1_hits += stats.l1_hits;
  l1_misses += stats.l1_misses;
  l2_hits += stats.l2_data_hits;
  l2_misses += stats.l2_data_misses;
}

std::map<std::string, double> layer_metrics(const LayerInputs& in) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : per_layer_units()) m[name] = 0.0;
  const std::vector<Span>& spans = in.spans;
  const std::vector<double> self = self_times(spans);
  const double per_set = 1.0 / std::max(1.0, in.sets);

  // A steady solve that contains the lazy multigrid build is a cold solve.
  std::vector<bool> cold(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!is(spans[i].name, "multigrid.build")) continue;
    for (std::int64_t p = spans[i].parent; p >= 0; p = spans[p].parent) {
      if (is(spans[p].name, "thermal.solve_steady")) {
        cold[static_cast<std::size_t>(p)] = true;
        break;
      }
    }
  }

  struct Interval {
    double start;
    double end;
    std::uint32_t thread;
  };
  std::vector<Interval> batches;
  std::vector<Interval> tasks;
  std::vector<double> des_cells_ms;
  double find_calls = 0, find_self = 0, find_solves = 0;
  double assemble_calls = 0, assemble_ms = 0, refresh_ms = 0;
  double cold_ms = 0, warm_ms = 0, power_calls = 0, power_us = 0;
  double des_setup_ms = 0, des_self_ms = 0, des_total_ms = 0;
  double cells = 0, overhead_ms = 0, cache_load_ms = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = s.dur_us() / 1000.0;
    if (is(s.name, "freq_cap.find")) {
      find_calls += 1;
      find_self += self[i] / 1000.0;
    } else if (is(s.name, "thermal.solve_steady")) {
      if (has_ancestor(spans, i, "freq_cap.find")) find_solves += 1;
      (cold[i] ? cold_ms : warm_ms) += ms;
    } else if (is(s.name, "thermal.assemble")) {
      assemble_calls += 1;
      assemble_ms += ms;
    } else if (is(s.name, "multigrid.refresh_values")) {
      refresh_ms += ms;
    } else if (is(s.name, "power.block_powers")) {
      power_calls += 1;
      power_us += s.dur_us();
    } else if (is(s.name, "perf.cmp_construct")) {
      des_setup_ms += ms;
    } else if (is(s.name, "perf.cmp_run")) {
      des_self_ms += self[i] / 1000.0;
      des_total_ms += ms;
      des_cells_ms.push_back(ms);
    } else if (is(s.name, "sweep.run")) {
      cells += 1;
      overhead_ms += self[i] / 1000.0;
    } else if (is(s.name, "engine.run")) {
      batches.push_back({s.start_us, s.end_us, s.thread});
    } else if (is(s.name, "engine.task")) {
      tasks.push_back({s.start_us, s.end_us, s.thread});
    } else if (is(s.name, "cache.configure")) {
      cache_load_ms += ms;
    }
  }

  m["freq_cap.find.calls"] = find_calls * per_set;
  m["freq_cap.find.self_ms"] = find_self * per_set;
  m["freq_cap.solves_per_find"] = ratio(find_solves, find_calls);
  m["thermal.assemble.calls"] = assemble_calls * per_set;
  m["thermal.assemble.ms"] = assemble_ms * per_set;
  m["thermal.refresh.ms"] = refresh_ms * per_set;
  m["thermal.solve_cold.ms"] = cold_ms * per_set;
  m["thermal.solve_warm.ms"] = warm_ms * per_set;
  const Counters& c = in.counters;
  m["solver.cg_iterations"] = static_cast<double>(c.cg_iterations) * per_set;
  m["solver.iters_per_solve"] = ratio(static_cast<double>(c.cg_iterations),
                                      static_cast<double>(c.solves));
  m["solver.vcycles"] = static_cast<double>(c.vcycles) * per_set;
  m["power.block_powers.calls"] = power_calls * per_set;
  m["power.block_powers.us"] = power_us * per_set;
  m["des.setup.ms"] = des_setup_ms * per_set;
  m["des.run.self_ms"] = des_self_ms * per_set;
  m["des.run.cell_p50_ms"] = median(des_cells_ms);
  m["des.ns_per_event"] =
      ratio(des_total_ms * 1e6, static_cast<double>(c.des_events));
  m["des.events"] = static_cast<double>(c.des_events) * per_set;
  m["des.noc_ticks"] = static_cast<double>(c.noc_ticks) * per_set;
  m["des.noc_packets"] = static_cast<double>(c.noc_packets) * per_set;
  m["des.instructions"] = static_cast<double>(c.instructions) * per_set;
  m["des.sim_cycles"] = static_cast<double>(in.des.sim_cycles) * per_set;
  m["des.l1_miss_rate"] =
      ratio(static_cast<double>(in.des.l1_misses),
            static_cast<double>(in.des.l1_hits + in.des.l1_misses));
  m["des.l2_miss_rate"] =
      ratio(static_cast<double>(in.des.l2_misses),
            static_cast<double>(in.des.l2_hits + in.des.l2_misses));
  m["sweep.cells"] = cells * per_set;
  m["sweep.memo_hits"] = in.memo_hits * per_set;
  m["sweep.overhead_ms"] = overhead_ms * per_set;
  m["cache.load.ms"] = cache_load_ms * per_set;

  // Engine occupancy: task time over worker time inside each batch, and
  // the tail from the first worker running dry to the batch's end.
  double busy_us = 0.0;
  double capacity_us = 0.0;
  double tail_us = 0.0;
  for (const Interval& batch : batches) {
    std::map<std::uint32_t, double> last_end;
    for (const Interval& task : tasks) {
      if (task.start < batch.start || task.end > batch.end) continue;
      busy_us += task.end - task.start;
      double& end = last_end[task.thread];
      end = std::max(end, task.end);
    }
    capacity_us += (batch.end - batch.start) * static_cast<double>(in.workers);
    double first_dry = batch.start;
    if (last_end.size() >= in.workers) {
      first_dry = batch.end;
      for (const auto& [thread, end] : last_end) first_dry = std::min(first_dry, end);
    }
    tail_us += batch.end - first_dry;
  }
  m["engine.busy_frac"] = ratio(busy_us, capacity_us);
  m["engine.idle_tail_ms"] = tail_us / 1000.0 * per_set;
  return m;
}

}  // namespace perfbench
