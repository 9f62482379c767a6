#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/json_writer.hpp"

namespace aqua::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "histogram bounds must be strictly ascending");
  }
}

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
}

std::uint64_t Histogram::bucket_value(std::size_t i) const {
  return counts_.at(i).load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double below = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double in_bucket =
        static_cast<double>(counts_[b].load(std::memory_order_relaxed));
    if (below + in_bucket >= target && in_bucket > 0.0) {
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      if (b == bounds_.size()) return lo;  // +inf bucket: report its floor
      const double hi = bounds_[b];
      const double frac = (target - below) / in_bucket;
      return lo + frac * (hi - lo);
    }
    below += in_bucket;
  }
  return bounds_.back();
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

Registry::Registry() {
  const char* env = std::getenv("AQUA_METRICS");
  if (env != nullptr && env[0] != '\0' && std::string_view(env) != "0") {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  // Leaky for the same reason as the tracer: instrument references must
  // stay valid through thread and static teardown.
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Entry& Registry::entry_for(std::string_view name, Kind kind) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{kind, nullptr, nullptr,
                                                  nullptr})
             .first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with another type");
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  Entry& e = entry_for(name, Kind::kCounter);
  std::lock_guard lock(mutex_);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  Entry& e = entry_for(name, Kind::kGauge);
  std::lock_guard lock(mutex_);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  Entry& e = entry_for(name, Kind::kHistogram);
  std::lock_guard lock(mutex_);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *e.histogram;
}

std::string Registry::to_json() const {
  JsonWriter root;
  std::lock_guard lock(mutex_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        if (entry.counter) root.add(name, entry.counter->value());
        break;
      case Kind::kGauge:
        if (entry.gauge) root.add(name, entry.gauge->value());
        break;
      case Kind::kHistogram:
        if (entry.histogram) {
          const Histogram& h = *entry.histogram;
          JsonWriter detail;
          detail.add("count", h.count());
          detail.add("sum", h.sum());
          detail.add("mean", h.mean());
          detail.add("p50", h.quantile(0.5));
          detail.add("p95", h.quantile(0.95));
          std::string buckets = "[";
          for (std::size_t b = 0; b < h.bucket_count(); ++b) {
            if (b != 0) buckets += ", ";
            buckets += std::to_string(h.bucket_value(b));
          }
          buckets += "]";
          detail.add_raw("buckets", buckets);
          std::string bounds = "[";
          for (std::size_t b = 0; b < h.bounds().size(); ++b) {
            if (b != 0) bounds += ", ";
            bounds += json_number(h.bounds()[b]);
          }
          bounds += "]";
          detail.add_raw("bounds", bounds);
          root.add_raw(name, detail.str());
        }
        break;
    }
  }
  return root.str();
}

WorkTally& WorkTally::operator+=(const WorkTally& other) {
  solves += other.solves;
  cg_iterations += other.cg_iterations;
  precond_applies += other.precond_applies;
  solver_ns += other.solver_ns;
  des_events += other.des_events;
  return *this;
}

WorkTally WorkTally::operator-(const WorkTally& before) const {
  WorkTally d;
  d.solves = solves - before.solves;
  d.cg_iterations = cg_iterations - before.cg_iterations;
  d.precond_applies = precond_applies - before.precond_applies;
  d.solver_ns = solver_ns - before.solver_ns;
  d.des_events = des_events - before.des_events;
  return d;
}

WorkTally& thread_work() noexcept {
  thread_local WorkTally tally;
  return tally;
}

}  // namespace aqua::obs
