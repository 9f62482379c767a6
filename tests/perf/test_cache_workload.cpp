#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "perf/cache.hpp"
#include "perf/line_table.hpp"
#include "perf/protocol.hpp"
#include "perf/workload.hpp"

namespace aqua {
namespace {

// ---------------------------------------------------------------- cache ----

struct TagOnly {
  int tag = 0;
};

TEST(Cache, HitAfterInsert) {
  SetAssocCache<TagOnly> c(1024, 64, 4);
  c.insert(100, TagOnly{7});
  ASSERT_NE(c.find(100), nullptr);
  EXPECT_EQ(c.find(100)->tag, 7);
  EXPECT_EQ(c.find(200), nullptr);
}

TEST(Cache, SetsAndWays) {
  SetAssocCache<TagOnly> c(128 * 1024, 64, 8);
  EXPECT_EQ(c.assoc(), 8u);
  EXPECT_EQ(c.sets(), 256u);
}

TEST(Cache, LruEviction) {
  // 2 sets, 2 ways. Lines 0, 2, 4 share set 0.
  SetAssocCache<TagOnly> c(4 * 64, 64, 2);
  c.insert(0, TagOnly{});
  c.insert(2, TagOnly{});
  c.find(0);  // 0 is now MRU
  const auto evicted = c.insert(4, TagOnly{});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, 2u);  // LRU way displaced
  EXPECT_NE(c.find(0), nullptr);
  EXPECT_NE(c.find(4), nullptr);
}

TEST(Cache, CanEvictFilterRespected) {
  SetAssocCache<TagOnly> c(2 * 64, 64, 2);  // 1 set, 2 ways
  c.insert(0, TagOnly{});
  c.insert(1, TagOnly{});
  bool inserted = true;
  const auto evicted = c.insert(
      2, TagOnly{}, inserted,
      [](LineAddr, const TagOnly&) { return false; });  // nothing evictable
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(c.find(2), nullptr);
}

TEST(Cache, SelectiveEviction) {
  SetAssocCache<TagOnly> c(2 * 64, 64, 2);
  c.insert(0, TagOnly{});
  c.insert(1, TagOnly{});
  c.find(1);  // 0 is LRU
  bool inserted = false;
  // Only line 1 may be evicted, despite 0 being LRU.
  const auto evicted =
      c.insert(2, TagOnly{}, inserted,
               [](LineAddr l, const TagOnly&) { return l == 1; });
  ASSERT_TRUE(inserted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, 1u);
}

TEST(Cache, OverwriteInPlace) {
  SetAssocCache<TagOnly> c(1024, 64, 4);
  c.insert(5, TagOnly{1});
  c.insert(5, TagOnly{2});
  EXPECT_EQ(c.find(5)->tag, 2);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, EraseAndPeek) {
  SetAssocCache<TagOnly> c(1024, 64, 4);
  c.insert(9, TagOnly{3});
  EXPECT_NE(c.peek(9), nullptr);
  c.erase(9);
  EXPECT_EQ(c.peek(9), nullptr);
  c.erase(9);  // idempotent
}

// A cache gives a set's ways storage only when the set is first filled:
// a fresh L2 bank (2048 sets x 8 ways) holds only its set heads, each new
// set adds exactly one set's ways, and refilling, overwriting, erasing or
// evicting within filled sets adds nothing.
TEST(Cache, StorageGrowsOnlyWithTouchedSets) {
  SetAssocCache<TagOnly> c(1024 * 1024, 64, 8);
  ASSERT_EQ(c.sets(), 2048u);
  const std::size_t fresh = c.state_bytes();
  EXPECT_LE(fresh, 32u * 1024);
  EXPECT_EQ(c.sets_filled(), 0u);
  const std::size_t per_set = 8 * (sizeof(LineAddr) + 1 + sizeof(TagOnly));

  // The lookups, misses and erases of an empty cache allocate nothing.
  EXPECT_EQ(c.find(5), nullptr);
  EXPECT_EQ(c.peek(~LineAddr{0}), nullptr);
  c.erase(5);
  EXPECT_EQ(c.state_bytes(), fresh);

  for (std::size_t k = 1; k <= 64; ++k) {
    const LineAddr line = (k * 37) % 2048;  // a new set each time
    c.insert(line, TagOnly{static_cast<int>(k)});
    ASSERT_EQ(c.sets_filled(), k);
    ASSERT_EQ(c.state_bytes(), fresh + k * per_set);
  }
  // Twenty lines per filled set: fills, evictions, overwrites and erases
  // all stay inside the 64 sets' storage.
  for (LineAddr j = 0; j < 20; ++j) {
    for (std::size_t k = 1; k <= 64; ++k) {
      const LineAddr line = (k * 37) % 2048 + j * 2048;
      c.insert(line, TagOnly{static_cast<int>(j)});
      c.insert(line, TagOnly{static_cast<int>(j + 1)});
      if (j % 3 == 0) c.erase(line);
    }
  }
  EXPECT_EQ(c.sets_filled(), 64u);
  EXPECT_EQ(c.state_bytes(), fresh + 64 * per_set);
  EXPECT_EQ(c.occupancy(), 64u * 8);
}

/// The tag store SetAssocCache replaced, kept verbatim in behavior as the
/// oracle: one {valid, line, lru, state} record per way, a global LRU
/// clock, `line % sets` indexing and a std::function eviction filter.
template <class LineState>
class WayArrayCache {
 public:
  WayArrayCache(std::size_t capacity_bytes, std::size_t line_bytes,
                std::size_t assoc)
      : assoc_(assoc), sets_(capacity_bytes / line_bytes / assoc) {
    ways_.resize(sets_ * assoc_);
  }

  LineState* find(LineAddr line) {
    Way* w = lookup(line);
    if (w == nullptr) return nullptr;
    w->lru = ++clock_;
    return &w->state;
  }

  const LineState* peek(LineAddr line) {
    Way* w = lookup(line);
    return w == nullptr ? nullptr : &w->state;
  }

  struct Evicted {
    LineAddr line;
    LineState state;
  };

  std::optional<Evicted> insert(
      LineAddr line, LineState state, bool& inserted,
      const std::function<bool(LineAddr, const LineState&)>& can_evict) {
    inserted = true;
    if (Way* w = lookup(line); w != nullptr) {
      w->state = state;
      w->lru = ++clock_;
      return std::nullopt;
    }
    Way* base = &ways_[(line % sets_) * assoc_];
    for (std::size_t i = 0; i < assoc_; ++i) {
      if (!base[i].valid) {
        base[i] = Way{true, line, ++clock_, state};
        return std::nullopt;
      }
    }
    Way* victim = nullptr;
    for (std::size_t i = 0; i < assoc_; ++i) {
      if (!can_evict(base[i].line, base[i].state)) continue;
      if (victim == nullptr || base[i].lru < victim->lru) victim = &base[i];
    }
    if (victim == nullptr) {
      inserted = false;
      return std::nullopt;
    }
    Evicted out{victim->line, victim->state};
    *victim = Way{true, line, ++clock_, state};
    return out;
  }

  void erase(LineAddr line) {
    if (Way* w = lookup(line); w != nullptr) w->valid = false;
  }

  [[nodiscard]] std::size_t occupancy() const {
    std::size_t n = 0;
    for (const Way& w : ways_) n += w.valid ? 1 : 0;
    return n;
  }

  void for_each(const std::function<void(LineAddr, LineState&)>& visit) {
    for (Way& w : ways_) {
      if (w.valid) visit(w.line, w.state);
    }
  }

 private:
  struct Way {
    bool valid = false;
    LineAddr line = 0;
    std::uint64_t lru = 0;
    LineState state{};
  };

  Way* lookup(LineAddr line) {
    Way* base = &ways_[(line % sets_) * assoc_];
    for (std::size_t i = 0; i < assoc_; ++i) {
      if (base[i].valid && base[i].line == line) return &base[i];
    }
    return nullptr;
  }

  std::size_t assoc_;
  std::size_t sets_;
  std::uint64_t clock_ = 0;
  std::vector<Way> ways_;
};

template <class Cache>
std::vector<std::pair<LineAddr, int>> contents(Cache& c) {
  std::vector<std::pair<LineAddr, int>> out;
  c.for_each(
      [&out](LineAddr line, TagOnly& s) { out.emplace_back(line, s.tag); });
  return out;
}

// Random find / peek / insert (plain, vetoed, rejected) / overwrite / erase
// traffic on a few crowded sets — power-of-two (mask) and odd (modulo) set
// counts — with lines 0, ~0 and ~0 - 1 in the mix: the split-array cache
// answers every operation exactly as the way-array oracle does, victims
// and storage order included. The lines in play widen over the first half
// of the run, so sets are first filled (and given storage) between
// operations on sets filled long before; a set counts as filled from its
// first accepted insert. A pointer from find stays valid, and keeps
// pointing at its line, until an insert fills a new set.
TEST(Cache, MatchesWayArrayOracleOnRandomOps) {
  struct Geometry {
    std::size_t sets;
    std::size_t assoc;
  };
  for (const Geometry g : {Geometry{4, 4}, Geometry{3, 2}, Geometry{8, 8},
                           Geometry{1, 32}, Geometry{64, 4},
                           Geometry{96, 2}}) {
    SCOPED_TRACE(testing::Message() << g.sets << " sets x " << g.assoc);
    SetAssocCache<TagOnly> cache(g.sets * g.assoc * 64, 64, g.assoc);
    WayArrayCache<TagOnly> oracle(g.sets * g.assoc * 64, 64, g.assoc);
    ASSERT_EQ(cache.sets(), g.sets);

    std::vector<LineAddr> pool = {0, ~LineAddr{0}, ~LineAddr{0} - 1,
                                  LineAddr{1} << 63};
    for (LineAddr l = 1; pool.size() < 3 * g.sets * g.assoc; ++l) {
      pool.push_back(l * 7919);
    }
    Xoshiro256 rng(g.sets * 100 + g.assoc);
    std::size_t evictions = 0;
    std::size_t rejections = 0;
    std::set<std::size_t> filled;  // sets with an accepted insert so far
    LineAddr held_line = 0;
    const TagOnly* held = nullptr;  // last find hit, under the contract
    constexpr int kSteps = 20000;
    for (int step = 0; step < kSteps; ++step) {
      const std::size_t in_play = std::min(
          pool.size(), 1 + static_cast<std::size_t>(step) * 2 *
                               pool.size() / kSteps);
      const LineAddr line = pool[rng.uniform_index(in_play)];
      const int tag = step;
      const std::size_t sets_before = cache.sets_filled();
      switch (rng.uniform_index(6)) {
        case 0: {
          TagOnly* a = cache.find(line);
          TagOnly* b = oracle.find(line);
          ASSERT_EQ(a == nullptr, b == nullptr) << "find " << line;
          if (a != nullptr) {
            ASSERT_EQ(a->tag, b->tag);
            held_line = line;
            held = a;
          }
          break;
        }
        case 1: {
          const TagOnly* a = cache.peek(line);
          const TagOnly* b = oracle.peek(line);
          ASSERT_EQ(a == nullptr, b == nullptr) << "peek " << line;
          if (a != nullptr) {
            ASSERT_EQ(a->tag, b->tag);
          }
          break;
        }
        case 2: {
          const auto a = cache.insert(line, TagOnly{tag});
          bool inserted = false;
          const auto b = oracle.insert(
              line, TagOnly{tag}, inserted,
              [](LineAddr, const TagOnly&) { return true; });
          ASSERT_EQ(a.has_value(), b.has_value()) << "insert " << line;
          if (a) {
            ASSERT_EQ(a->line, b->line);
            ASSERT_EQ(a->state.tag, b->state.tag);
            ++evictions;
          }
          filled.insert(line % g.sets);
          break;
        }
        case 3:
        case 4: {
          // Vetoes depend on the candidate's line and state; a third of
          // the draws veto everything, forcing rejected inserts.
          const std::uint64_t salt = rng.uniform_index(3);
          const auto veto = [salt](LineAddr l, const TagOnly& s) {
            return salt != 0 && ((l ^ static_cast<LineAddr>(s.tag) ^ salt) & 1);
          };
          bool in_a = false;
          bool in_b = false;
          const auto a = cache.insert(line, TagOnly{tag}, in_a, veto);
          const auto b = oracle.insert(line, TagOnly{tag}, in_b, veto);
          ASSERT_EQ(in_a, in_b) << "vetoed insert " << line;
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a) {
            ASSERT_EQ(a->line, b->line);
            ASSERT_EQ(a->state.tag, b->state.tag);
          }
          rejections += in_a ? 0 : 1;
          if (in_a) filled.insert(line % g.sets);
          break;
        }
        default:
          cache.erase(line);
          oracle.erase(line);
          break;
      }
      ASSERT_EQ(cache.occupancy(), oracle.occupancy()) << "step " << step;
      ASSERT_EQ(cache.sets_filled(), filled.size()) << "step " << step;
      if (cache.sets_filled() != sets_before) held = nullptr;
      if (held != nullptr) {
        const TagOnly* now = cache.peek(held_line);
        if (now == nullptr) {
          held = nullptr;  // evicted or erased: nothing to compare
        } else {
          ASSERT_EQ(now, held) << "step " << step;
          ASSERT_EQ(held->tag, oracle.peek(held_line)->tag);
        }
      }
      if (step % 500 == 0) {
        ASSERT_EQ(contents(cache), contents(oracle));
      }
    }
    EXPECT_EQ(contents(cache), contents(oracle));
    EXPECT_EQ(cache.sets_filled(), g.sets);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(rejections, 0u);
  }
}

// ----------------------------------------------------------- line table ----

/// Multiplicative inverse of an odd 64-bit value (Newton iteration).
std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

// Lines spaced by the inverse of the hash multiplier hash to adjacent
// products, so they share a home slot at every table size: one long probe
// cluster that every doubling rehashes. Each entry must keep its value
// through the growths, never-inserted lines must stay absent, and 0 and ~0
// are ordinary keys.
TEST(LineTable, CollidingLinesSurviveGrowth) {
  const std::uint64_t step = inverse_mod_2_64(0x9E3779B97F4A7C15ULL);
  ASSERT_EQ(step * 0x9E3779B97F4A7C15ULL, 1u);
  std::vector<LineAddr> lines = {0, ~LineAddr{0}};
  for (std::uint64_t j = 1; j <= 300; ++j) lines.push_back(12345 + j * step);
  for (std::uint64_t j = 0; j < 300; ++j) lines.push_back(j * 72 + 5);

  LineTable<std::uint64_t> table;
  std::map<LineAddr, std::uint64_t> oracle;
  std::size_t capacity = table.capacity();
  std::size_t growths = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const LineAddr line = lines[i];
    ASSERT_EQ(table.find(line), nullptr) << "before insert " << line;
    table[line] = i * 3 + 1;
    oracle[line] = i * 3 + 1;
    if (table.capacity() != capacity) {
      ++growths;
      capacity = table.capacity();
      // Every entry so far survived the rehash.
      for (const auto& [l, v] : oracle) {
        const std::uint64_t* got = table.find(l);
        ASSERT_NE(got, nullptr) << "lost " << l << " at capacity " << capacity;
        ASSERT_EQ(*got, v);
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
    ASSERT_LE(table.size() * 4, table.capacity() * 3);
  }
  EXPECT_GE(growths, 5u);
  EXPECT_EQ(capacity & (capacity - 1), 0u);  // power of two

  // Updates through operator[] hit the existing entry, not a new one.
  table[0] += 10;
  table[~LineAddr{0}] += 10;
  oracle[0] += 10;
  oracle[~LineAddr{0}] += 10;
  EXPECT_EQ(table.size(), oracle.size());

  std::map<LineAddr, std::uint64_t> visited;
  table.for_each(
      [&visited](LineAddr l, const std::uint64_t& v) { visited[l] = v; });
  EXPECT_EQ(visited, oracle);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(12345), nullptr);
}

// Occupancy is a per-table bitmap, so a slot holds only the line and its
// value (40 bytes for a 32-byte entry, a directory slot's size) and no key
// is reserved: 0 — the line of every never-used slot — and ~0 are absent
// until inserted, then keep their values through every doubling, and a
// line whose probe path crosses their slots is not mistaken for them.
TEST(LineTable, BitmapKeepsZeroAndAllOnesAsKeysThroughGrowth) {
  struct Entry {
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
  };
  LineTable<Entry> table;
  const auto bitmap_bytes = [&table] {
    return (table.capacity() + 63) / 64 * sizeof(std::uint64_t);
  };
  EXPECT_EQ(table.state_bytes(), table.capacity() * 40 + bitmap_bytes());
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(~LineAddr{0}), nullptr);

  table[0].a = 11;
  EXPECT_EQ(table.find(~LineAddr{0}), nullptr);
  table[~LineAddr{0}].a = 22;
  EXPECT_EQ(table.size(), 2u);

  std::size_t capacity = table.capacity();
  std::size_t growths = 0;
  for (LineAddr l = 1; l <= 2000; ++l) {
    table[l * 0x10001].a = l;
    if (table.capacity() == capacity) continue;
    ++growths;
    capacity = table.capacity();
    ASSERT_NE(table.find(0), nullptr) << "capacity " << capacity;
    ASSERT_EQ(table.find(0)->a, 11u);
    ASSERT_NE(table.find(~LineAddr{0}), nullptr) << "capacity " << capacity;
    ASSERT_EQ(table.find(~LineAddr{0})->a, 22u);
    ASSERT_EQ(table.state_bytes(), capacity * 40 + bitmap_bytes());
  }
  EXPECT_GE(growths, 7u);
  EXPECT_EQ(table.size(), 2002u);
  EXPECT_EQ(table[0].a, 11u);  // an update, not a second key 0
  EXPECT_EQ(table.size(), 2002u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(~LineAddr{0} - 1), nullptr);
  std::size_t visited = 0;
  table.for_each([&visited](LineAddr, const Entry&) { ++visited; });
  EXPECT_EQ(visited, 2002u);
}

// ------------------------------------------------------------- protocol ----

TEST(Protocol, VcClassesPartitionMessages) {
  // Table 1: one VC per message class.
  EXPECT_EQ(vc_class_of(MsgType::kGetS), 0);
  EXPECT_EQ(vc_class_of(MsgType::kGetM), 0);
  EXPECT_EQ(vc_class_of(MsgType::kPutM), 0);
  EXPECT_EQ(vc_class_of(MsgType::kFwdGetS), 1);
  EXPECT_EQ(vc_class_of(MsgType::kInv), 1);
  EXPECT_EQ(vc_class_of(MsgType::kData), 2);
  EXPECT_EQ(vc_class_of(MsgType::kUnblock), 2);
  EXPECT_EQ(vc_class_of(MsgType::kInvAck), 2);
}

TEST(Protocol, DataMessagesAreFiveFlits) {
  EXPECT_TRUE(carries_data(MsgType::kData));
  EXPECT_TRUE(carries_data(MsgType::kDataE));
  EXPECT_TRUE(carries_data(MsgType::kDataM));
  EXPECT_TRUE(carries_data(MsgType::kPutM));
  EXPECT_FALSE(carries_data(MsgType::kGetS));
  EXPECT_FALSE(carries_data(MsgType::kInv));
  EXPECT_FALSE(carries_data(MsgType::kWBAck));
}

// ------------------------------------------------------------- workload ----

TEST(Workload, SuiteHasNineNpbPrograms) {
  const auto suite = npb_suite();
  ASSERT_EQ(suite.size(), 9u);
  const std::set<std::string> names = {"bt", "cg", "ep", "ft", "is",
                                       "lu", "mg", "sp", "ua"};
  std::set<std::string> got;
  for (const auto& p : suite) got.insert(p.name);
  EXPECT_EQ(got, names);
}

TEST(Workload, LookupByName) {
  EXPECT_EQ(npb_profile("cg").name, "cg");
  EXPECT_THROW(npb_profile("zz"), Error);
}

TEST(Workload, EpIsMostComputeBound) {
  const auto suite = npb_suite();
  double ep_mem = 1.0;
  for (const auto& p : suite) {
    if (p.name == "ep") ep_mem = p.mem_fraction;
  }
  for (const auto& p : suite) {
    if (p.name != "ep") {
      EXPECT_GT(p.mem_fraction, ep_mem);
    }
  }
}

TEST(Workload, TraceIsDeterministic) {
  const WorkloadProfile p = npb_profile("cg");
  TraceGenerator a(p, 3, 8, 42);
  TraceGenerator b(p, 3, 8, 42);
  for (int i = 0; i < 2000; ++i) {
    const TraceOp oa = a.next();
    const TraceOp ob = b.next();
    EXPECT_EQ(static_cast<int>(oa.kind), static_cast<int>(ob.kind));
    EXPECT_EQ(oa.line, ob.line);
    EXPECT_EQ(oa.compute_cycles, ob.compute_cycles);
    EXPECT_EQ(oa.is_store, ob.is_store);
  }
}

TEST(Workload, ThreadsDiffer) {
  const WorkloadProfile p = npb_profile("cg");
  TraceGenerator a(p, 0, 8, 42);
  TraceGenerator b(p, 1, 8, 42);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next().line == b.next().line;
  EXPECT_LT(same, 50);
}

TEST(Workload, EveryThreadEmitsSameBarrierCount) {
  // Anything else deadlocks the simulated OpenMP barrier.
  for (const WorkloadProfile& p : npb_suite()) {
    std::vector<std::size_t> barriers;
    for (std::size_t t = 0; t < 4; ++t) {
      TraceGenerator gen(p, t, 4, 7);
      std::size_t n = 0;
      for (;;) {
        const TraceOp op = gen.next();
        if (op.kind == TraceOp::Kind::kDone) break;
        if (op.kind == TraceOp::Kind::kBarrier) ++n;
      }
      barriers.push_back(n);
      EXPECT_EQ(n, p.phases - 1) << p.name;
    }
    for (std::size_t n : barriers) EXPECT_EQ(n, barriers.front()) << p.name;
  }
}

TEST(Workload, InstructionBudgetHonored) {
  WorkloadProfile p = npb_profile("bt");
  p.instructions_per_thread = 10000;
  TraceGenerator gen(p, 0, 4, 1);
  while (gen.next().kind != TraceOp::Kind::kDone) {
  }
  EXPECT_GE(gen.instructions_issued(), 10000u);
  EXPECT_LT(gen.instructions_issued(), 10500u);  // one op of overshoot max
}

TEST(Workload, MemFractionApproximatelyHonored) {
  WorkloadProfile p = npb_profile("is");  // mem 0.48
  p.instructions_per_thread = 200000;
  TraceGenerator gen(p, 0, 4, 1);
  std::uint64_t mem_ops = 0;
  for (;;) {
    const TraceOp op = gen.next();
    if (op.kind == TraceOp::Kind::kDone) break;
    mem_ops += op.kind == TraceOp::Kind::kMemory;
  }
  const double measured =
      static_cast<double>(mem_ops) /
      static_cast<double>(gen.instructions_issued());
  EXPECT_NEAR(measured, p.mem_fraction, 0.05);
}

TEST(Workload, AddressRegionsDisjointWithoutHaloExchange) {
  WorkloadProfile p = npb_profile("ft");
  p.instructions_per_thread = 20000;
  p.neighbor_fraction = 0.0;  // halo exchange deliberately crosses regions
  TraceGenerator g0(p, 0, 4, 9);
  TraceGenerator g1(p, 1, 4, 9);
  std::set<LineAddr> private0;
  auto collect = [](TraceGenerator& g, std::set<LineAddr>& priv) {
    for (;;) {
      const TraceOp op = g.next();
      if (op.kind == TraceOp::Kind::kDone) break;
      if (op.kind == TraceOp::Kind::kMemory && op.line < (LineAddr{1} << 40)) {
        priv.insert(op.line);
      }
    }
  };
  std::set<LineAddr> private1;
  collect(g0, private0);
  collect(g1, private1);
  for (LineAddr l : private0) EXPECT_EQ(private1.count(l), 0u);
}

TEST(Workload, HaloExchangeTargetsNeighborRegions) {
  WorkloadProfile p = npb_profile("bt");  // neighbor-heavy stencil
  p.instructions_per_thread = 30000;
  p.neighbor_fraction = 1.0;  // every shared access is a halo touch
  p.streaming_fraction = 0.0;
  const std::size_t threads = 4;
  TraceGenerator gen(p, 1, threads, 5);
  bool touched_left = false;
  bool touched_right = false;
  for (;;) {
    const TraceOp op = gen.next();
    if (op.kind == TraceOp::Kind::kDone) break;
    if (op.kind != TraceOp::Kind::kMemory) continue;
    const LineAddr region = op.line >> 24;  // thread_id + 1 of the owner
    if (region == 1) touched_left = true;   // thread 0's region
    if (region == 3) touched_right = true;  // thread 2's region
    // Never the global heap and never a non-adjacent thread.
    EXPECT_LT(op.line, LineAddr{1} << 40);
    EXPECT_TRUE(region >= 1 && region <= threads);
    EXPECT_NE(region, 4u + 1u);
  }
  EXPECT_TRUE(touched_left);
  EXPECT_TRUE(touched_right);
}

TEST(Workload, DoneIsSticky) {
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 100;
  TraceGenerator gen(p, 0, 1, 1);
  while (gen.next().kind != TraceOp::Kind::kDone) {
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gen.next().kind, TraceOp::Kind::kDone);
  }
}

}  // namespace
}  // namespace aqua
