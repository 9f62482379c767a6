#pragma once

/// Process-wide metrics registry: counters, gauges and fixed-bucket
/// histograms with a lock-free atomic hot path.
///
/// Instruments are created once (registry mutex) and then updated with
/// relaxed atomics only, so call sites cache references:
///
///   static obs::Counter& solves =
///       obs::Registry::instance().counter("solver.solves");
///   solves.add();
///
/// The always-on solver/pool counters cost a handful of relaxed atomic
/// adds per *solve* or *task* (not per iteration), which is noise next to
/// the work they count; finer-grained recording (per-solve histograms,
/// run-report lines) is gated on `Registry::enabled()`, controlled by the
/// env var `AQUA_METRICS` (unset/"0" = off).
///
/// The registry counters are process-wide. Attributing work to one sweep
/// cell uses the calling thread's `WorkTally` instead (see below).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Adds `delta` to an atomic double without std::atomic<double>::fetch_add
/// (not universally available pre-C++20 library support).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, worker count, ...).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept { atomic_add(value_, delta); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations x <= bounds[i]
/// (ascending), with an implicit +inf bucket at the end. Observation is a
/// bucket search plus two relaxed atomic updates.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  /// Number of buckets including the +inf bucket (bounds().size() + 1).
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;

  /// Approximate quantile (linear interpolation inside the bucket; the
  /// +inf bucket reports its lower bound). q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` exponentially spaced upper bounds starting at `start` (handy
/// default for iteration counts and latencies).
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count);

/// Named-instrument registry. Lookup/creation takes a mutex; returned
/// references stay valid for the process lifetime.
class Registry {
 public:
  /// The process registry, configured from AQUA_METRICS on first call.
  static Registry& instance();

  /// Whether gated (non-essential) instrumentation should record.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates with `upper_bounds` on first call; later calls return the
  /// existing histogram (bounds argument ignored).
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);

  /// Renders every instrument (histograms with buckets/sum/count) as one
  /// JSON object — the run report's "metrics" record body.
  [[nodiscard]] std::string to_json() const;

 private:
  Registry();

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, Kind kind);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Solver and DES work done by one thread, in the units of the `solver.*`
/// and `perf.events` registry counters. The code that does the work
/// (solve_cg, CmpSystem::run) adds to the calling thread's tally with
/// plain non-atomic adds, and the same amounts reach the registry
/// counters. A sweep cell computes start to finish on one thread, so the
/// tally diffed around its compute is exactly the work that cell caused,
/// at any worker count (DESIGN.md §11).
struct WorkTally {
  std::uint64_t solves = 0;           ///< solve_cg calls
  std::uint64_t cg_iterations = 0;    ///< CG iterations across those solves
  std::uint64_t precond_applies = 0;  ///< preconditioner applications in CG
  std::uint64_t solver_ns = 0;        ///< wall time inside solve_cg
  std::uint64_t des_events = 0;       ///< DES events scheduled by CmpSystem

  WorkTally& operator+=(const WorkTally& other);
  /// Field-wise difference; `before` must be an earlier reading of the
  /// same thread's tally.
  [[nodiscard]] WorkTally operator-(const WorkTally& before) const;
  bool operator==(const WorkTally&) const = default;
};

/// The calling thread's tally (zero at thread start, never reset).
WorkTally& thread_work() noexcept;

}  // namespace aqua::obs
