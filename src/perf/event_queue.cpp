#include "perf/event_queue.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"

namespace aqua {

EventQueue::EventQueue() {
  static_assert((kNearHorizon & (kNearHorizon - 1)) == 0,
                "ring size must be a power of two");
  static_assert(sizeof(Entry) <= 80, "an event entry fits 80 bytes");
  ring_.resize(static_cast<std::size_t>(kNearHorizon));
}

void EventQueue::push(Entry&& e) {
  // Hot path: build the error string only on failure.
  if (e.when < now_) require(false, "cannot schedule an event in the past");
  ++pending_;
  if (pending_ > max_pending_) max_pending_ = pending_;
  if (e.when - now_ < kNearHorizon) {
    Bucket& b = ring_[e.when & (kNearHorizon - 1)];
    if (b.next == b.entries.size()) {
      // Bucket is logically empty: recycle any consumed storage (keeping
      // its capacity) and flag the slot in the bitmap.
      b.entries.clear();
      b.next = 0;
      const std::size_t slot = e.when & (kNearHorizon - 1);
      bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    b.entries.push_back(std::move(e));
    ++ring_count_;
  } else {
    heap_.push(std::move(e));
  }
}

void EventQueue::schedule(Cycle when, EventFn fn, void* ctx, void* target,
                          const Message& msg) {
  Entry e;
  e.when = when;
  e.seq = seq_++;
  e.fn = fn;
  e.ctx = ctx;
  e.target = target;
  e.msg = msg;
  push(std::move(e));
}

Cycle EventQueue::next_ring_time() const {
  // Scan the bucket bitmap circularly starting at now's slot. The ring
  // holds cycles in [now, now + kNearHorizon), so circular slot distance
  // from now's slot maps monotonically onto cycle order and the first set
  // bit found is the earliest bucket.
  const auto start = static_cast<std::size_t>(now_ & (kNearHorizon - 1));
  std::size_t w = start >> 6;
  std::uint64_t word = bitmap_[w] & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (word != 0) {
      const std::size_t slot =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      const Bucket& b = ring_[slot];
      return b.entries[b.next].when;
    }
    w = (w + 1) & (kBitmapWords - 1);
    word = bitmap_[w];
  }
}

Cycle EventQueue::next_time() const {
  if (pending_ == 0) ensure(false, "next_time on empty event queue");
  if (ring_count_ == 0) return heap_.top().when;
  const Cycle ring_time = next_ring_time();
  if (!heap_.empty() && heap_.top().when < ring_time) return heap_.top().when;
  return ring_time;
}

void EventQueue::step() {
  if (pending_ == 0) ensure(false, "step on empty event queue");

  // Pick the event source for this step. On a tied cycle the heap drains
  // first: its entries were scheduled while the cycle was beyond the ring
  // horizon, i.e. before any ring entry for that cycle, so heap-first is
  // exact FIFO (see the header's determinism note).
  bool from_heap;
  if (ring_count_ == 0) {
    from_heap = true;
  } else {
    from_heap = !heap_.empty() && heap_.top().when <= next_ring_time();
  }

  --pending_;
  if (from_heap) {
    // priority_queue::top is const; the entry must be moved out before pop.
    Entry e = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = e.when;
    e.fire();
    return;
  }

  const Cycle t = next_ring_time();
  const std::size_t slot = static_cast<std::size_t>(t & (kNearHorizon - 1));
  Bucket& b = ring_[slot];
  // Move the entry out and finish all bucket bookkeeping before firing:
  // the callback may schedule into this same bucket (reallocating its
  // vector) or fast-forward now_ past it.
  Entry e = std::move(b.entries[b.next]);
  ++b.next;
  if (b.next == b.entries.size()) {
    b.entries.clear();
    b.next = 0;
    bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  --ring_count_;
  now_ = t;
  e.fire();
}

void EventQueue::step_cycle() {
  if (pending_ == 0) ensure(false, "step_cycle on empty event queue");
  const Cycle t = next_time();
  while (pending_ != 0 && next_time() == t) step();
}

bool EventQueue::run(Cycle limit) {
  while (pending_ != 0) {
    if (next_time() > limit) return false;
    step();
  }
  return true;
}

}  // namespace aqua
