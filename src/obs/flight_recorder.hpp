#pragma once

/// Sweep flight recorder (DESIGN.md §11): the task engine's per-worker
/// timeline, recorded through the obs tracer so it lands in the same
/// Chrome-trace file as every other span and costs nothing when tracing is
/// off.
///
/// The engine marks every task transition through this facade:
///
///   * a TaskScope span per executed task, named by how the task reached
///     the worker (`engine.task.strict` / `.loose` / `.unpinned` /
///     `.stolen` / `.lifo`) — the per-worker rows a Chrome/Perfetto view
///     shows, and what `trace_tools timeline` / `critical-path` aggregate;
///   * zero-duration marker events for steals (`engine.steal`) and shared-
///     queue claims (`engine.claim`);
///   * queue-depth samples (`engine.queue_depth`) taken whenever a worker
///     pops its own queue.
///
/// Every event carries one int64 argument packing two 32-bit halves
/// (`pack_pair`): task spans carry (worker, chain), steals (thief, victim),
/// claims (worker, shared index), depth samples (worker, depth). `chain` is
/// the task's affinity truncated to 32 bits — strict tasks with one
/// affinity form one dependent chain, which is exactly what the
/// critical-path analysis groups by — or kNoChain for unpinned work.
///
/// Disabled-mode contract (asserted by tests/obs): when tracing is off,
/// every recorder call — TaskScope construction and destruction included —
/// is one relaxed atomic load and nothing else: no clock read, no
/// allocation, no store. The engine therefore keeps recorder calls inline
/// in its hot loop unconditionally.

#include <cstdint>

#include "obs/trace.hpp"

namespace aqua::obs {

/// Packs two 32-bit halves into a trace-event argument.
constexpr std::int64_t pack_pair(std::uint32_t hi, std::uint32_t lo) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(hi) << 32) |
                                   static_cast<std::uint64_t>(lo));
}
constexpr std::uint32_t pair_hi(std::int64_t packed) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(packed) >> 32);
}
constexpr std::uint32_t pair_lo(std::int64_t packed) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(packed) &
                                    0xFFFFFFFFu);
}

class FlightRecorder {
 public:
  /// Chain half for tasks that belong to no dependent chain (unpinned /
  /// stolen / LIFO-spawned work).
  static constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;

  /// Event names (string literals: the tracer stores the pointers). The
  /// `engine.task.` prefix is the timeline analyzer's selector, so new
  /// task kinds must keep it.
  static constexpr const char* kCategory = "engine";
  static constexpr const char* kTaskStrict = "engine.task.strict";
  static constexpr const char* kTaskLoose = "engine.task.loose";
  static constexpr const char* kTaskUnpinned = "engine.task.unpinned";
  static constexpr const char* kTaskStolen = "engine.task.stolen";
  static constexpr const char* kTaskLifo = "engine.task.lifo";
  static constexpr const char* kSteal = "engine.steal";
  static constexpr const char* kClaim = "engine.claim";
  static constexpr const char* kQueueDepth = "engine.queue_depth";

  static FlightRecorder& instance();

  /// One relaxed atomic load (delegates to the tracer's enable flag).
  [[nodiscard]] bool enabled() const { return tracer_.enabled(); }

  /// RAII task span: records `name` over the task's execution with
  /// arg = pack_pair(worker, chain). `name` must be one of the kTask*
  /// literals (or otherwise outlive the tracer).
  class TaskScope {
   public:
    TaskScope(const char* name, std::uint32_t worker,
              std::uint32_t chain) noexcept {
      Tracer& tracer = Tracer::instance();
      if (tracer.enabled()) {
        name_ = name;
        arg_ = pack_pair(worker, chain);
        start_us_ = tracer.now_us();
      }
    }
    ~TaskScope() {
      if (name_) {
        Tracer& tracer = Tracer::instance();
        tracer.record(name_, kCategory, start_us_,
                      tracer.now_us() - start_us_, arg_);
      }
    }
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    const char* name_ = nullptr;
    double start_us_ = 0.0;
    std::int64_t arg_ = 0;
  };

  /// Marker: `thief` stole a task from `victim`'s loose lane.
  void steal(std::uint32_t thief, std::uint32_t victim) {
    mark(kSteal, pack_pair(thief, victim));
  }

  /// Marker: `worker` claimed shared-queue entry `index`.
  void claim(std::uint32_t worker, std::uint32_t index) {
    mark(kClaim, pack_pair(worker, index));
  }

  /// Sample: `worker`'s own queue depth after a pop.
  void queue_depth(std::uint32_t worker, std::uint32_t depth) {
    mark(kQueueDepth, pack_pair(worker, depth));
  }

 private:
  FlightRecorder() : tracer_(Tracer::instance()) {}

  void mark(const char* name, std::int64_t arg) {
    if (!tracer_.enabled()) return;
    const double now = tracer_.now_us();
    tracer_.record(name, kCategory, now, 0.0, arg);
  }

  Tracer& tracer_;
};

}  // namespace aqua::obs
