#include "obs/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace_reader.hpp"

namespace aqua::obs {

namespace {

JsonValue load_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue root = parse_json(buf.str());
  if (!root.is_object()) {
    throw std::runtime_error(path + ": bench report is not a JSON object");
  }
  return root;
}

void flatten_into(const JsonValue& obj, const std::string& prefix,
                  std::map<std::string, double>& out) {
  for (const auto& [key, value] : obj.object) {
    const std::string full = prefix.empty() ? key : prefix + "." + key;
    switch (value.kind) {
      case JsonValue::Kind::kNumber:
        out[full] = value.number;
        break;
      case JsonValue::Kind::kObject:
        flatten_into(value, full, out);
        break;
      default:
        break;  // strings, bools, arrays, nulls: provenance, not metrics
    }
  }
}

bool has_suffix(std::string_view key, std::string_view suffix) {
  return key.size() >= suffix.size() &&
         key.substr(key.size() - suffix.size()) == suffix;
}

/// Drops a trailing per-worker-count tag `_w<digits>` (perf_sweep_parallel
/// reports every metric once per worker count: `wall_seconds_w4`, ...), so
/// the stem classifies by its unit suffix like any other key.
std::string_view strip_worker_suffix(std::string_view key) {
  const std::size_t pos = key.rfind("_w");
  if (pos == std::string_view::npos || pos + 2 == key.size()) return key;
  for (const char c : key.substr(pos + 2)) {
    if (c < '0' || c > '9') return key;
  }
  return key.substr(0, pos);
}

}  // namespace

std::map<std::string, double> load_bench_metrics(const std::string& path) {
  std::map<std::string, double> metrics;
  flatten_into(load_bench_json(path), "", metrics);
  return metrics;
}

std::string bench_name_of(const std::string& path) {
  const JsonValue root = load_bench_json(path);
  const JsonValue* name = root.find("bench");
  return name != nullptr && name->kind == JsonValue::Kind::kString
             ? name->string
             : std::string();
}

MetricKind classify_metric(std::string_view full_key) {
  if (full_key == "schema_version") return MetricKind::kIgnored;
  // The per-worker speedup keys are wall-clock ratios: as noisy as the
  // timings they divide, and one-sided the same way a rate is.
  if (full_key.substr(0, 8) == "speedup_") return MetricKind::kRate;
  const std::string_view key = strip_worker_suffix(full_key);
  for (const char* suffix : {"_seconds", "_wall_seconds", "_us", "_ns",
                             "_ms", "seconds"}) {
    if (has_suffix(key, suffix)) return MetricKind::kTiming;
  }
  if (has_suffix(key, "_per_sec") || has_suffix(key, "_per_second")) {
    return MetricKind::kRate;
  }
  return MetricKind::kWork;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

GateResult gate_bench(
    const std::map<std::string, double>& fresh,
    const std::vector<std::map<std::string, double>>& baselines,
    const GateThresholds& thresholds) {
  if (baselines.empty()) {
    throw std::invalid_argument("perf-gate needs at least one baseline");
  }
  GateResult result;
  for (const auto& [key, fresh_value] : fresh) {
    const MetricKind kind = classify_metric(key);
    if (kind == MetricKind::kIgnored) continue;

    std::vector<double> base_values;
    for (const auto& baseline : baselines) {
      const auto it = baseline.find(key);
      if (it != baseline.end()) base_values.push_back(it->second);
    }
    if (base_values.empty()) {
      ++result.skipped;  // new metric: old baselines have no opinion
      continue;
    }
    const double median = median_of(std::move(base_values));

    GateFinding finding;
    finding.metric = key;
    finding.kind = kind;
    finding.fresh = fresh_value;
    finding.baseline = median;
    finding.threshold =
        kind == MetricKind::kWork ? thresholds.work : thresholds.timing;
    if (median != 0.0) {
      finding.ratio = fresh_value / median;
      const double drift = finding.ratio - 1.0;
      switch (kind) {
        case MetricKind::kTiming:  // slower = ratio above 1
          finding.regression = drift > finding.threshold;
          break;
        case MetricKind::kRate:    // slower = ratio below 1
          finding.regression = -drift > finding.threshold;
          break;
        default:                   // deterministic: any drift regresses
          finding.regression = std::abs(drift) > finding.threshold;
          break;
      }
    } else if (kind == MetricKind::kWork) {
      // A zero-median work metric (e.g. sweep_failed) must stay zero.
      finding.ratio = 0.0;
      finding.regression = fresh_value != 0.0;
    } else {
      ++result.skipped;  // zero-median timings/rates carry no signal
      continue;
    }
    ++result.compared;
    if (finding.regression) ++result.regressions;
    result.findings.push_back(std::move(finding));
  }
  // Baseline-only metrics (removed keys) are skipped, not failed: schema
  // evolution is gated by schema_version, not the perf gate.
  for (const auto& baseline : baselines) {
    for (const auto& [key, value] : baseline) {
      if (classify_metric(key) != MetricKind::kIgnored &&
          fresh.find(key) == fresh.end()) {
        ++result.skipped;
      }
    }
    break;  // counting against the first baseline is enough
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const GateFinding& a, const GateFinding& b) {
              if (a.regression != b.regression) return a.regression;
              return std::abs(a.ratio - 1.0) > std::abs(b.ratio - 1.0);
            });
  return result;
}

}  // namespace aqua::obs
