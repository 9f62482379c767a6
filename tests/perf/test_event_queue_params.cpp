#include <gtest/gtest.h>

#include <array>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "perf/event_queue.hpp"
#include "perf/params.hpp"

namespace aqua {
namespace {

// ---------------------------------------------------------- event queue ----

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int hits = 0;
  std::function<void()> chain = [&] {
    ++hits;
    if (hits < 5) q.schedule_in(2, chain);
  };
  q.schedule(0, chain);
  q.run();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(q.now(), 8u);
}

TEST(EventQueue, RunLimitStopsEarly) {
  EventQueue q;
  int hits = 0;
  q.schedule(1, [&] { ++hits; });
  q.schedule(100, [&] { ++hits; });
  EXPECT_FALSE(q.run(50));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule(5, [] {}), Error);
}

TEST(EventQueue, StepCycleRunsAllAtSameTime) {
  EventQueue q;
  int hits = 0;
  q.schedule(4, [&] { ++hits; });
  q.schedule(4, [&] { ++hits; });
  q.schedule(9, [&] { ++hits; });
  q.step_cycle();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(q.next_time(), 9u);
}

// Far-future events overflow the calendar ring into the heap tier; they
// must still fire in time order, including when the queue fast-forwards
// across several empty horizons.
TEST(EventQueue, FarFutureOverflowOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5 * EventQueue::kNearHorizon, [&] { order.push_back(3); });
  q.schedule(EventQueue::kNearHorizon + 7, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(1); });
  q.schedule(9 * EventQueue::kNearHorizon + 1, [&] { order.push_back(4); });
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 9 * EventQueue::kNearHorizon + 1);
}

// When a cycle holds both overflow-heap entries (scheduled while the cycle
// was beyond the horizon) and ring entries (scheduled once it was near),
// the heap entries were necessarily scheduled first, so they must fire
// first to preserve global FIFO order.
TEST(EventQueue, HeapRingTieIsFifo) {
  EventQueue q;
  const Cycle target = EventQueue::kNearHorizon + 6;
  std::vector<int> order;
  q.schedule(target, [&] { order.push_back(1); });  // -> overflow heap
  q.schedule(10, [&q, &order, target] {
    // now == 10: target is inside the horizon, lands in the ring.
    q.schedule(target, [&order] { order.push_back(2); });
  });
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Typed fast-path events share the same sequence counter as closures: a
// mixed same-cycle schedule fires in exact schedule order.
TEST(EventQueue, TypedAndClosureEventsShareFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  auto typed = [](void* ctx, void* target, const Message& msg) {
    static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(msg.line));
    (void)target;
  };
  q.schedule(7, [&] { order.push_back(0); });
  Message m1;
  m1.line = 1;
  q.schedule_typed(7, typed, &order, nullptr, m1);
  q.schedule(7, [&] { order.push_back(2); });
  Message m3;
  m3.line = 3;
  q.schedule_typed(7, typed, &order, nullptr, m3);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.typed_scheduled(), 2u);
  EXPECT_EQ(q.scheduled(), 4u);
}

// ---------------------------------------------------- reference oracle ----

constexpr Cycle kHorizon = EventQueue::kNearHorizon;

/// Deterministic event program shared by the queue under test and the
/// oracle. What an event schedules when it fires depends only on (seed,
/// tag, now), and tags are handed out in schedule order, so both runs stay
/// in lockstep exactly as long as their firing orders agree.
struct EventProgram {
  std::uint64_t seed = 1;
  int max_events = 4000;

  /// Cycles that collect events from both tiers: the initial events aimed
  /// at them land in the overflow heap (scheduled at cycle 0, at or past
  /// the horizon), and handler follow-ups aimed at them from within a
  /// horizon land in the ring — same-cycle ties across the ring/overflow
  /// boundary.
  static constexpr std::array<Cycle, 4> kHot = {
      kHorizon + 6, 2 * kHorizon + 6, 2 * kHorizon + 500, 3 * kHorizon + 1};

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::vector<Cycle> initial() const {
    std::vector<Cycle> out;
    std::uint64_t x = mix(seed);
    for (int i = 0; i < 300; ++i) {
      x = mix(x);
      out.push_back(x % (3 * kHorizon));
    }
    for (const Cycle hot : kHot) {
      out.push_back(hot);
      out.push_back(hot);
    }
    return out;
  }

  /// Absolute cycles of the follow-ups an event `tag` fired at `now`
  /// schedules: same-cycle, short, anywhere in the ring, straddling the
  /// horizon, past it, or onto a hot cycle.
  [[nodiscard]] std::vector<Cycle> follow_ups(int tag, Cycle now) const {
    std::uint64_t x = mix(seed ^ mix(static_cast<std::uint64_t>(tag)) ^
                          (now << 24));
    const auto next = [&x] { return x = mix(x); };
    const std::uint64_t r = next() % 100;
    const int n = r < 45 ? 0 : r < 85 ? 1 : 2;
    std::vector<Cycle> out;
    for (int i = 0; i < n; ++i) {
      switch (next() % 8) {
        case 0:
          out.push_back(now);
          break;
        case 1:
        case 2:
          out.push_back(now + 1 + next() % 16);
          break;
        case 3:
          out.push_back(now + next() % kHorizon);
          break;
        case 4:
          out.push_back(now + kHorizon - 1 + next() % 3);
          break;
        case 5:
          out.push_back(now + kHorizon + next() % (2 * kHorizon));
          break;
        default: {
          std::vector<Cycle> ahead;
          for (const Cycle hot : kHot) {
            if (hot >= now) ahead.push_back(hot);
          }
          out.push_back(ahead.empty() ? now + 1
                                      : ahead[next() % ahead.size()]);
          break;
        }
      }
    }
    return out;
  }
};

using FiringLog = std::vector<std::pair<Cycle, int>>;  ///< (cycle, tag)

/// The reference: one std::priority_queue ordered by (when, seq).
FiringLog run_oracle(const EventProgram& prog) {
  struct Entry {
    Cycle when;
    std::uint64_t seq;
    int tag;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> heap(later);
  std::uint64_t seq = 0;
  int next_tag = 0;
  const auto schedule = [&](Cycle when) {
    heap.push(Entry{when, seq++, next_tag++});
  };
  for (const Cycle when : prog.initial()) schedule(when);
  FiringLog fired;
  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    fired.emplace_back(e.when, e.tag);
    for (const Cycle when : prog.follow_ups(e.tag, e.when)) {
      if (next_tag >= prog.max_events) break;
      schedule(when);
    }
  }
  return fired;
}

/// The same program on the calendar queue: even tags ride the typed fast
/// path, odd tags are closures. Records which tier each schedule entered
/// so the test can prove the interesting cases actually occurred.
struct CalendarRun {
  explicit CalendarRun(const EventProgram& p) : prog(p) {}

  const EventProgram& prog;
  EventQueue q;
  int next_tag = 0;
  FiringLog fired;
  std::vector<bool> overflow;  ///< by tag: entered past the ring horizon
  std::uint64_t handler_overflow = 0;  ///< past-horizon handler schedules

  void schedule(Cycle when) {
    const int tag = next_tag++;
    overflow.push_back(when - q.now() >= kHorizon);
    if (tag % 2 == 0) {
      Message m;
      m.line = static_cast<LineAddr>(tag);
      q.schedule_typed(when, &CalendarRun::typed_fire, this, nullptr, m);
    } else {
      q.schedule(when, [this, tag] { fire(tag); });
    }
  }

  static void typed_fire(void* ctx, void*, const Message& msg) {
    static_cast<CalendarRun*>(ctx)->fire(static_cast<int>(msg.line));
  }

  void fire(int tag) {
    fired.emplace_back(q.now(), tag);
    for (const Cycle when : prog.follow_ups(tag, q.now())) {
      if (next_tag >= prog.max_events) break;
      handler_overflow += when - q.now() >= kHorizon;
      schedule(when);
    }
  }

  FiringLog run() {
    for (const Cycle when : prog.initial()) schedule(when);
    EXPECT_TRUE(q.run());
    return fired;
  }
};

// A randomized program — handler-scheduled follow-ups, mixed typed and
// closure events, schedules past kNearHorizon, and same-cycle ties across
// the ring/overflow boundary — fires in exactly the order of a plain
// (when, seq) priority queue.
TEST(EventQueue, CalendarMatchesHeapOnRandomSchedule) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const EventProgram prog{seed};
    CalendarRun cal(prog);
    const FiringLog got = cal.run();
    const FiringLog want = run_oracle(prog);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(got.size(), static_cast<std::size_t>(cal.next_tag));

    // The program must have exercised what the oracle is there to check.
    EXPECT_GT(cal.q.typed_scheduled(), 0u);
    EXPECT_LT(cal.q.typed_scheduled(), cal.q.scheduled());
    EXPECT_GT(cal.handler_overflow, 0u) << "seed " << seed;
    std::size_t tied_cycles = 0;
    for (std::size_t i = 0; i < got.size();) {
      std::size_t j = i;
      bool ring = false;
      bool heap = false;
      for (; j < got.size() && got[j].first == got[i].first; ++j) {
        (cal.overflow[static_cast<std::size_t>(got[j].second)] ? heap : ring) =
            true;
      }
      tied_cycles += ring && heap;
      i = j;
    }
    EXPECT_GT(tied_cycles, 0u) << "seed " << seed;
  }
}

// --------------------------------------------------------------- params ----

TEST(Params, TileCoordRoundTrip) {
  CmpConfig cfg;
  cfg.chips = 4;
  for (NodeId id = 0; id < cfg.total_tiles(); ++id) {
    EXPECT_EQ(tile_id(cfg, tile_coord(cfg, id)), id);
  }
}

TEST(Params, CoreTilesOnBottomRow) {
  CmpConfig cfg;
  cfg.chips = 2;
  for (std::size_t chip = 0; chip < 2; ++chip) {
    for (std::size_t c = 0; c < cfg.cores_per_chip; ++c) {
      const TileCoord t = tile_coord(cfg, core_tile(cfg, chip, c));
      EXPECT_EQ(t.y, 0u);
      EXPECT_EQ(t.x, c);
      EXPECT_EQ(t.z, chip);
    }
  }
}

TEST(Params, L2TilesAboveBottomRow) {
  CmpConfig cfg;
  cfg.chips = 2;
  std::set<NodeId> seen;
  for (std::size_t chip = 0; chip < 2; ++chip) {
    for (std::size_t b = 0; b < cfg.l2_banks_per_chip; ++b) {
      const NodeId id = l2_tile(cfg, chip, b);
      EXPECT_TRUE(seen.insert(id).second);  // all distinct
      EXPECT_GE(tile_coord(cfg, id).y, 1u);
    }
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(Params, HomeTileInterleavesAcrossAllBanks) {
  CmpConfig cfg;
  cfg.chips = 2;
  std::set<NodeId> homes;
  for (LineAddr line = 0; line < 1000; ++line) {
    homes.insert(home_tile(cfg, line));
  }
  // Every one of the 24 banks is a home for some line.
  EXPECT_EQ(homes.size(), cfg.total_l2_banks());
}

TEST(Params, DerivedCounts) {
  CmpConfig cfg;
  cfg.chips = 6;
  EXPECT_EQ(cfg.total_tiles(), 96u);
  EXPECT_EQ(cfg.total_cores(), 24u);  // the paper's 24 threads
  EXPECT_EQ(cfg.total_l2_banks(), 72u);
  cfg.chips = 8;
  EXPECT_EQ(cfg.total_cores(), 32u);  // and 32 threads
}

TEST(Params, OutOfRangeThrows) {
  CmpConfig cfg;
  EXPECT_THROW(core_tile(cfg, 0, 99), Error);
  EXPECT_THROW(l2_tile(cfg, 2, 0), Error);
}

}  // namespace
}  // namespace aqua
