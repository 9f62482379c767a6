#include "bench_util.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/json_writer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sweep/interrupt.hpp"

#ifndef AQUA_GIT_DESCRIBE
#define AQUA_GIT_DESCRIBE "unknown"
#endif

namespace aqua::bench {

void banner(const std::string& id, const std::string& description) {
  std::cout << "\n=== " << id << ": " << description << " ===\n\n";
}

void install_interrupt_guard() { sweep::install_sweep_interrupt_handlers(); }

bool interrupted_epilogue(const std::string& id) {
  if (!sweep::sweep_interrupted()) return false;
  std::cout << "\n[" << id << "] interrupted: remaining cells were skipped; "
               "cache appends are flushed at a cell boundary. "
               "Re-run with AQUA_SWEEP_CACHE pointing at the same directory "
               "to finish the table bit-identically.\n";
  return true;
}

Table freq_vs_chips_table(const FreqVsChipsData& data) {
  std::vector<std::string> header{"chips"};
  for (const FreqVsChipsSeries& s : data.series) {
    header.emplace_back(to_string(s.cooling));
  }
  Table t(std::move(header));
  for (std::size_t n = 0; n < data.max_chips; ++n) {
    t.row().add_int(static_cast<long long>(n + 1));
    for (const FreqVsChipsSeries& s : data.series) {
      if (s.ghz[n].has_value()) {
        t.add(*s.ghz[n], 1);
      } else {
        t.add_missing();
      }
    }
  }
  return t;
}

Table npb_table(const NpbData& data) {
  std::vector<std::string> header{"bench"};
  for (CoolingKind k : data.coolings) header.emplace_back(to_string(k));
  Table t(std::move(header));

  t.row().add("GHz");
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    if (data.caps[k].feasible) {
      t.add(data.caps[k].frequency.gigahertz(), 1);
    } else {
      t.add_missing();
    }
  }
  for (const NpbRow& row : data.rows) {
    t.row().add(row.benchmark);
    for (const auto& rel : row.relative) {
      if (rel.has_value()) {
        t.add(*rel, 3);
      } else {
        t.add_missing();
      }
    }
  }
  return t;
}

double npb_scale() {
  if (const char* env = std::getenv("AQUA_NPB_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.5;
}

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {
  require(!name_.empty(), "JSON report needs a name");
  // Benches are the usual tracing subjects; when AQUA_TRACE=1 picked the
  // generic default path, rename the output after this bench so several
  // traced benches in one directory do not clobber each other. An explicit
  // AQUA_TRACE=<path> always wins.
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled() && !tracer.has_explicit_path()) {
    tracer.set_path("TRACE_" + name_ + ".json");
  }
}

JsonReport& JsonReport::add_raw(const std::string& key, std::string rendered) {
  entries_.emplace_back(key, std::move(rendered));
  return *this;
}

JsonReport& JsonReport::add(const std::string& key, double value,
                            int decimals) {
  if (!std::isfinite(value)) return add_raw(key, "null");
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << value;
  return add_raw(key, os.str());
}

JsonReport& JsonReport::add(const std::string& key, std::int64_t value) {
  return add_raw(key, std::to_string(value));
}

JsonReport& JsonReport::add(const std::string& key, std::size_t value) {
  return add_raw(key, std::to_string(value));
}

JsonReport& JsonReport::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}

JsonReport& JsonReport::add(const std::string& key,
                            const std::string& value) {
  return add_raw(key, "\"" + obs::json_escape(value) + "\"");
}

JsonReport& JsonReport::add_stats(const std::string& prefix,
                                  const obs::WorkTally& work) {
  add(prefix + "_solves", work.solves);
  add(prefix + "_iterations", work.cg_iterations);
  add(prefix + "_vcycles", work.vcycles);
  add(prefix + "_solver_seconds", static_cast<double>(work.solver_ns) * 1e-9,
      6);
  return *this;
}

JsonReport& JsonReport::add_sweep_provenance(std::size_t cells,
                                             std::size_t cached,
                                             std::size_t deduped,
                                             std::size_t failed) {
  add("sweep_cells", cells);
  add("sweep_cache_hits", cached);
  add("sweep_deduped", deduped);
  add("sweep_failed", failed);
  return *this;
}

JsonReport& JsonReport::add_cost_breakdown(const sweep::CostBreakdown& cost) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\n    \"cells\": " << cost.cells;
  const auto field = [&os](const char* key, double value) {
    os << ",\n    \"" << key << "\": " << value;
  };
  const sweep::CellCost& sum = cost.sum;
  field("total_us", sum.total_us);
  field("key_us", sum.key_us);
  field("memo_us", sum.memo_us);
  field("cache_us", sum.cache_us);
  field("compute_us", sum.compute_us);
  field("solve_us", sum.solve_us());
  field("serialize_us", sum.serialize_us);
  field("apply_us", sum.apply_us);
  os << ",\n    \"cg_iterations\": " << sum.work.cg_iterations;
  os << ",\n    \"vcycles\": " << sum.work.vcycles;
  os << ",\n    \"des_events\": " << sum.work.des_events;
  os << "\n  }";
  return add_raw("cost_breakdown", os.str());
}

std::string JsonReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  require(out.good(), "cannot open " + path + " for writing");
  out << "{\n  \"bench\": \"" << obs::json_escape(name_) << "\"";
  out << ",\n  \"schema_version\": " << kSchemaVersion;
  out << ",\n  \"git\": \"" << obs::json_escape(AQUA_GIT_DESCRIBE) << "\"";
  for (const auto& [key, rendered] : entries_) {
    out << ",\n  \"" << obs::json_escape(key) << "\": " << rendered;
  }
  out << "\n}\n";
  ensure(out.good(), "failed writing " + path);
  std::cout << "\n[telemetry] wrote " << path << "\n";

  // When metrics are on, snapshot the registry into the run report so the
  // bench's counters land next to its stage records.
  obs::RunReport& report = obs::RunReport::instance();
  if (report.enabled()) report.emit_metrics_dump();
  return path;
}

int run_microbenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace aqua::bench
