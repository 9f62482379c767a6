#pragma once

/// Discrete-event core of the CMP simulator.
///
/// The DES schedule pattern is near-monotonic with short deltas: almost
/// every event lands within a few tens of cycles of `now` (pipeline
/// latencies, `schedule_in(1)` pumps, L1/L2 tag latencies), with a thin
/// far-future tail (DRAM completions behind a busy controller). The default
/// implementation exploits this with a two-tier *calendar queue*:
///
///  - a ring of `kNearHorizon` buckets, one cycle per bucket, for events in
///    `[now, now + kNearHorizon)` — push is an append, pop is a bitmap scan
///    from `now`, both O(1) amortized;
///  - a binary-heap overflow for events at or beyond the horizon.
///
/// Events at the same cycle run in schedule order (a stable sequence number
/// breaks ties) so simulations are fully deterministic. The two tiers
/// preserve this exactly: an overflow entry for cycle `t` was necessarily
/// scheduled while `t` was still beyond the ring horizon, i.e. before every
/// ring entry for `t` existed, so draining the heap first on a tied cycle
/// is precisely FIFO order (tests/perf/test_event_queue_params checks the
/// queue against a plain `(when, seq)` priority-queue oracle).
///
/// Every event is typed: a bare function pointer plus two context pointers
/// and a Message payload stored inline in the entry (72 bytes) — no
/// closure, no allocation, no type-erased callable.

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "perf/params.hpp"
#include "perf/protocol.hpp"

namespace aqua {

/// Deterministic discrete-event queue.
class EventQueue {
 public:
  /// Event handler, invoked as `fn(ctx, target, msg)`. The two pointers
  /// identify the simulator and the core/bank the event acts on; the
  /// Message rides inline.
  using EventFn = void (*)(void* ctx, void* target, const Message& msg);

  /// Width of the calendar ring in cycles. Must be a power of two.
  static constexpr Cycle kNearHorizon = 1024;

  EventQueue();

  /// Schedules `fn(ctx, target, msg)` to run at absolute cycle `when`
  /// (>= now()).
  void schedule(Cycle when, EventFn fn, void* ctx, void* target,
                const Message& msg);

  /// Schedules the event `delay` cycles from now.
  void schedule_in(Cycle delay, EventFn fn, void* ctx, void* target,
                   const Message& msg) {
    schedule(now_ + delay, fn, ctx, target, msg);
  }

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Total events scheduled over the queue's lifetime.
  [[nodiscard]] std::uint64_t scheduled() const { return seq_; }

  /// High-water mark of pending(). Plain members, not atomics: the DES is
  /// single-threaded per instance and schedule() is the hot path.
  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }

  /// Cycle of the earliest pending event; only valid when !empty().
  [[nodiscard]] Cycle next_time() const;

  /// Runs the single earliest event (advancing now()).
  void step();

  /// Runs every event scheduled at the current next_time() cycle.
  void step_cycle();

  /// Runs events until the queue drains or `limit` cycles elapse.
  /// Returns true if the queue drained.
  bool run(Cycle limit = ~Cycle{0});

 private:
  struct Entry {
    Cycle when = 0;
    std::uint64_t seq = 0;
    EventFn fn = nullptr;
    void* ctx = nullptr;
    void* target = nullptr;
    Message msg{};

    void fire() const { fn(ctx, target, msg); }
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// One cycle's events, consumed front-to-back through `next` so pops
  /// never shift the vector; storage is recycled once the bucket drains.
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t next = 0;
  };

  static constexpr std::size_t kBitmapWords = kNearHorizon / 64;

  void push(Entry&& e);
  /// Earliest ring cycle; only valid when ring_count_ > 0.
  [[nodiscard]] Cycle next_ring_time() const;

  std::vector<Bucket> ring_;  ///< kNearHorizon buckets
  std::array<std::uint64_t, kBitmapWords> bitmap_{};  ///< non-empty buckets
  std::size_t ring_count_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace aqua
