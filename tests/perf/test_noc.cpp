#include "perf/noc.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aqua {
namespace {

struct Harness {
  explicit Harness(std::size_t chips = 1) {
    config.chips = chips;
    mesh = std::make_unique<Mesh3d>(
        config, [this](const Packet& p) { delivered.push_back(p); });
  }

  /// Ticks until quiet (bounded).
  void drain(Cycle start = 1, Cycle limit = 100000) {
    Cycle t = start;
    while (mesh->active() && t < limit) mesh->tick(t++);
    now = t;
  }

  CmpConfig config;
  std::unique_ptr<Mesh3d> mesh;
  std::vector<Packet> delivered;
  Cycle now = 0;
};

Packet make_packet(NodeId src, NodeId dst, std::uint8_t vc = 0,
                   std::uint8_t flits = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.vc = vc;
  p.flits = flits;
  p.msg.line = (static_cast<LineAddr>(src) << 32) | dst;
  return p;
}

TEST(Noc, RoutesXThenYThenZ) {
  Harness h(2);
  const Mesh3d& m = *h.mesh;
  // From (0,0,0) to (3,2,1): first X.
  const NodeId src = tile_id(h.config, {0, 0, 0});
  const NodeId dst = tile_id(h.config, {3, 2, 1});
  EXPECT_EQ(m.route(src, dst), Mesh3d::kXPos);
  // Same x: Y next.
  EXPECT_EQ(m.route(tile_id(h.config, {3, 0, 0}), dst), Mesh3d::kYPos);
  // Same x and y: Z.
  EXPECT_EQ(m.route(tile_id(h.config, {3, 2, 0}), dst), Mesh3d::kUp);
  // At destination: local.
  EXPECT_EQ(m.route(dst, dst), Mesh3d::kLocal);
  // Negative directions.
  EXPECT_EQ(m.route(dst, src), Mesh3d::kXNeg);
}

TEST(Noc, NeighborEdges) {
  Harness h(2);
  NodeId out;
  EXPECT_FALSE(h.mesh->neighbor(tile_id(h.config, {0, 0, 0}), Mesh3d::kXNeg, out));
  EXPECT_FALSE(h.mesh->neighbor(tile_id(h.config, {3, 0, 0}), Mesh3d::kXPos, out));
  EXPECT_FALSE(h.mesh->neighbor(tile_id(h.config, {0, 0, 1}), Mesh3d::kUp, out));
  EXPECT_TRUE(h.mesh->neighbor(tile_id(h.config, {0, 0, 0}), Mesh3d::kUp, out));
  EXPECT_EQ(out, tile_id(h.config, {0, 0, 1}));
}

TEST(Noc, LocalDeliveryBypassesNetwork) {
  Harness h;
  h.mesh->inject(0, make_packet(5, 5));
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_FALSE(h.mesh->active());
}

TEST(Noc, SinglePacketLatency) {
  Harness h;
  // 1 flit, 2 hops: (0,0) -> (2,0). Per hop: 2 cycles RC/VSA + 1 ST/LT + 1
  // link; ejection at the last router.
  h.mesh->inject(0, make_packet(0, 2));
  h.drain();
  ASSERT_EQ(h.delivered.size(), 1u);
  const double lat = h.mesh->stats().average_latency();
  EXPECT_GE(lat, 6.0);
  EXPECT_LE(lat, 14.0);
  EXPECT_EQ(h.mesh->stats().total_hops, 2u);
}

TEST(Noc, DataPacketSerialization) {
  Harness h;
  h.mesh->inject(0, make_packet(0, 3, 2, 5));
  h.drain();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.mesh->stats().flits_delivered, 5u);
  // 5 flits serialize: tail arrives ~4 cycles after head.
  EXPECT_GE(h.mesh->stats().average_latency(), 10.0);
}

TEST(Noc, SameVcSameSrcDstStaysOrdered) {
  Harness h(2);
  const NodeId src = tile_id(h.config, {0, 0, 0});
  const NodeId dst = tile_id(h.config, {3, 2, 1});
  for (int i = 0; i < 20; ++i) {
    Packet p = make_packet(src, dst, 0);
    p.msg.acks = i;
    h.mesh->inject(0, p);
  }
  h.drain();
  ASSERT_EQ(h.delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(h.delivered[i].msg.acks, i);
}

// Packets park in slab slots that are recycled once a tail ejects. On
// chip 0, a 1-hop packet A ejects while a 5-flit packet B is still crossing
// the chip; C (B's route, same VC, right behind it) and D are injected
// next, so C takes the slot A just freed while B's runs are buffered ahead
// of it. Running the same chip-0 traffic again beside a busy chip 1 (its
// packets hold and free slots throughout, and DOR never routes them
// through chip 0) shuffles every slot assignment; chip 0 must see the same
// delivery cycles, order and payloads either way.
TEST(Noc, SlotReuseKeepsRunsApart) {
  using Log = std::vector<std::pair<Cycle, std::int32_t>>;  // (cycle, acks)
  const auto run = [](bool busy_chip1) {
    Harness h(2);
    const auto tile = [&h](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
      return tile_id(h.config, {x, y, z});
    };
    const auto send = [&h](Cycle now, NodeId src, NodeId dst,
                           std::uint8_t flits, std::int32_t acks) {
      Packet p = make_packet(src, dst, 2, flits);
      p.msg.acks = acks;
      h.mesh->inject(now, p);
    };
    Cycle now = 0;
    send(now, tile(0, 0, 0), tile(3, 3, 0), 5, 1);  // B
    send(now, tile(1, 1, 0), tile(2, 1, 0), 1, 2);  // A
    Log log;
    std::size_t seen = 0;
    bool c_sent = false;
    for (now = 1; h.mesh->active() || !c_sent; ++now) {
      if (busy_chip1 && now < 60 && now % 3 == 0) {
        const auto k = static_cast<std::uint32_t>(now / 3);
        send(now, tile(k % 4, (k / 4) % 4, 1), tile(3 - k % 4, 3, 1), 5,
             100 + static_cast<std::int32_t>(k));
      }
      h.mesh->tick(now);
      for (; seen < h.delivered.size(); ++seen) {
        const Packet& p = h.delivered[seen];
        if (p.msg.acks < 100) log.emplace_back(now, p.msg.acks);
        // Payloads come back intact from whichever slot they rode in.
        EXPECT_EQ(p.msg.line, (static_cast<LineAddr>(p.src) << 32) | p.dst);
        if (p.msg.acks == 2 && !c_sent) {
          EXPECT_TRUE(h.mesh->active());  // B is still in flight
          send(now, tile(0, 0, 0), tile(3, 3, 0), 5, 3);  // C
          send(now, tile(0, 2, 0), tile(3, 2, 0), 1, 4);  // D
          c_sent = true;
        }
      }
      if (now > 10000) break;
    }
    EXPECT_TRUE(h.mesh->credit_invariants_ok());
    return log;
  };
  const Log alone = run(false);
  const Log beside = run(true);
  ASSERT_EQ(alone.size(), 4u);
  EXPECT_EQ(alone[0].second, 2);  // A first
  // B before C on their shared VC path.
  const auto pos = [&alone](std::int32_t acks) {
    for (std::size_t i = 0; i < alone.size(); ++i) {
      if (alone[i].second == acks) return i;
    }
    return alone.size();
  };
  EXPECT_LT(pos(1), pos(3));
  EXPECT_EQ(alone, beside);
}

TEST(Noc, AllToAllStressAllDelivered) {
  Harness h(4);
  Xoshiro256 rng(77);
  const std::size_t tiles = h.config.total_tiles();
  std::size_t sent = 0;
  Cycle t = 0;
  std::map<std::uint64_t, int> outstanding;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 8; ++k) {
      const NodeId src = static_cast<NodeId>(rng.uniform_index(tiles));
      const NodeId dst = static_cast<NodeId>(rng.uniform_index(tiles));
      if (src == dst) continue;
      const auto vc = static_cast<std::uint8_t>(rng.uniform_index(3));
      const auto flits = static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 5 : 1);
      h.mesh->inject(t, make_packet(src, dst, vc, flits));
      ++sent;
    }
    h.mesh->tick(++t);
    // Credit flow: every freed slot goes back upstream, none is minted.
    ASSERT_TRUE(h.mesh->credit_invariants_ok()) << "cycle " << t;
  }
  while (h.mesh->active() && t < 100000) h.mesh->tick(++t);
  EXPECT_FALSE(h.mesh->active()) << "packets stuck in the mesh";
  EXPECT_TRUE(h.mesh->credit_invariants_ok());
  EXPECT_EQ(h.delivered.size(), sent);
  EXPECT_EQ(h.mesh->stats().packets_delivered, sent);
}

// The host contract: tick every cycle while active(), and never while
// idle. stats().ticks then counts exactly those cycles — idle gaps between
// busy spells add none, and neither does a tile-local packet.
TEST(Noc, TicksCountEveryActiveCycleAcrossIdleGaps) {
  Harness h(2);
  Xoshiro256 rng(31);
  const std::size_t tiles = h.config.total_tiles();
  std::size_t sent = 0;
  std::uint64_t active_cycles = 0;
  Cycle t = 0;
  for (int spell = 0; spell < 5; ++spell) {
    t += 40 + 13 * static_cast<Cycle>(spell);  // idle gap: no ticks
    const NodeId local = static_cast<NodeId>(rng.uniform_index(tiles));
    h.mesh->inject(t, make_packet(local, local));
    ++sent;
    EXPECT_FALSE(h.mesh->active()) << "a tile-local packet activated it";
    // Spell 0 is one control packet: its first ticks fall inside the
    // router pipeline, cycles on which nothing can move.
    const int packets = spell == 0 ? 1 : 4 * spell;
    for (int k = 0; k < packets; ++k) {
      const NodeId src = static_cast<NodeId>(rng.uniform_index(tiles));
      NodeId dst = static_cast<NodeId>(rng.uniform_index(tiles));
      if (dst == src) dst = static_cast<NodeId>((src + 1) % tiles);
      const auto vc = static_cast<std::uint8_t>(rng.uniform_index(3));
      const auto flits = static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 5 : 1);
      h.mesh->inject(t, make_packet(src, dst, vc, flits));
      ++sent;
    }
    ASSERT_TRUE(h.mesh->active());
    while (h.mesh->active() && t < 100000) {
      h.mesh->tick(++t);
      ++active_cycles;
    }
    ASSERT_FALSE(h.mesh->active()) << "spell " << spell << " did not drain";
  }
  EXPECT_EQ(h.delivered.size(), sent);
  EXPECT_EQ(h.mesh->stats().ticks, active_cycles);
}

TEST(Noc, HeavyContentionOnOneSinkDrains) {
  Harness h;
  // Everyone floods tile 15 (corner): wormhole + credits must not wedge.
  std::size_t sent = 0;
  for (NodeId src = 0; src < 15; ++src) {
    for (int i = 0; i < 10; ++i) {
      h.mesh->inject(0, make_packet(src, 15, static_cast<std::uint8_t>(i % 3),
                                    5));
      ++sent;
    }
  }
  h.drain();
  EXPECT_EQ(h.delivered.size(), sent);
}

TEST(Noc, VerticalLinksCarryTraffic) {
  Harness h(8);
  const NodeId bottom = tile_id(h.config, {1, 1, 0});
  const NodeId top = tile_id(h.config, {1, 1, 7});
  h.mesh->inject(0, make_packet(bottom, top));
  h.drain();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.mesh->stats().total_hops, 7u);  // pure vertical path
}

TEST(Noc, StatsAverageHops) {
  Harness h;
  h.mesh->inject(0, make_packet(0, 1));   // 1 hop
  h.drain();
  h.mesh->inject(h.now, make_packet(0, 15));  // 3+3 hops
  h.drain(h.now + 1);
  EXPECT_DOUBLE_EQ(h.mesh->stats().average_hops(), 3.5);
}

TEST(Noc, RejectsBadPackets) {
  Harness h;
  Packet p = make_packet(0, 99);
  EXPECT_THROW(h.mesh->inject(0, p), Error);
  Packet q = make_packet(0, 1, 7);
  EXPECT_THROW(h.mesh->inject(0, q), Error);
}

// ---------------------------------------------------------------------------
// Fault rerouting: a failed link is removed from the adjacency and every
// pair still reaches its destination over a recomputed shortest path.
// ---------------------------------------------------------------------------

TEST(Noc, FailedLinkIsRoutedAround) {
  Harness h;
  const NodeId a = tile_id(h.config, {0, 0, 0});
  const NodeId b = tile_id(h.config, {1, 0, 0});
  h.mesh->fail_link(a, b);
  // DOR would go kXPos over the dead link; the reroute table must not.
  EXPECT_NE(h.mesh->route(a, b), Mesh3d::kXPos);
  h.mesh->inject(0, make_packet(a, b));
  h.drain();
  ASSERT_EQ(h.delivered.size(), 1u);
  // Shortest surviving path is a 3-hop detour through row 1.
  EXPECT_EQ(h.mesh->stats().total_hops, 3u);
}

TEST(Noc, UnaffectedPairsKeepDorPaths) {
  Harness h;
  h.mesh->fail_link(tile_id(h.config, {0, 0, 0}), tile_id(h.config, {1, 0, 0}));
  // A pair whose DOR path never touches the dead link keeps its DOR port.
  const NodeId src = tile_id(h.config, {0, 2, 0});
  const NodeId dst = tile_id(h.config, {3, 3, 0});
  EXPECT_EQ(h.mesh->route(src, dst), Mesh3d::kXPos);
}

TEST(Noc, FaultedAllToAllStillDrains) {
  Harness h(2);
  h.mesh->fail_link(tile_id(h.config, {1, 1, 0}), tile_id(h.config, {2, 1, 0}));
  h.mesh->fail_link(tile_id(h.config, {3, 2, 1}), tile_id(h.config, {3, 3, 1}));
  Xoshiro256 rng(13);
  const std::size_t tiles = h.config.total_tiles();
  std::size_t sent = 0;
  Cycle t = 0;
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 6; ++k) {
      const NodeId src = static_cast<NodeId>(rng.uniform_index(tiles));
      const NodeId dst = static_cast<NodeId>(rng.uniform_index(tiles));
      if (src == dst) continue;
      const auto vc = static_cast<std::uint8_t>(rng.uniform_index(3));
      const auto flits = static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 5 : 1);
      h.mesh->inject(t, make_packet(src, dst, vc, flits));
      ++sent;
    }
    h.mesh->tick(++t);
  }
  while (h.mesh->active() && t < 100000) h.mesh->tick(++t);
  EXPECT_FALSE(h.mesh->active()) << "packets stuck in the faulted mesh";
  EXPECT_EQ(h.delivered.size(), sent);
}

// The coherence protocol, and the exhaustive checker that verifies it
// (support/coherence_checker.hpp), assume FIFO delivery per (source,
// destination, message class): one VC per class and one route per pair.
// Random all-to-all traffic, numbered per (source, destination, VC), must
// eject in injection order under contention.
void expect_pair_fifo(Harness& h, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t tiles = h.config.total_tiles();
  using Pair = std::tuple<NodeId, NodeId, std::uint8_t>;  // src, dst, VC
  std::map<Pair, std::int32_t> sent;
  Cycle t = 0;
  for (int round = 0; round < 60; ++round) {
    for (int k = 0; k < 10; ++k) {
      // Few endpoints, so pairs repeat while earlier packets are in flight.
      const auto src = static_cast<NodeId>(rng.uniform_index(tiles / 4));
      const auto dst = static_cast<NodeId>(tiles - 1 - rng.uniform_index(4));
      const auto vc = static_cast<std::uint8_t>(rng.uniform_index(3));
      const auto flits = static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 5 : 1);
      Packet p = make_packet(src, dst, vc, flits);
      p.msg.acks = sent[Pair(src, dst, vc)]++;
      h.mesh->inject(t, p);
    }
    h.mesh->tick(++t);
  }
  while (h.mesh->active() && t < 100000) h.mesh->tick(++t);
  ASSERT_FALSE(h.mesh->active()) << "packets stuck in the mesh";
  std::map<Pair, std::int32_t> next;
  for (const Packet& p : h.delivered) {
    const std::int32_t expected = next[Pair(p.src, p.dst, p.vc)]++;
    EXPECT_EQ(p.msg.acks, expected)
        << "pair " << p.src << " -> " << p.dst << " on VC " << int{p.vc};
  }
  EXPECT_EQ(next, sent);
}

TEST(Noc, PairDeliveryIsFifoPerClass) {
  Harness h(2);
  expect_pair_fifo(h, 5);
}

TEST(Noc, PairDeliveryIsFifoPerClassAroundAFailedLink) {
  Harness h(2);
  const NodeId a = tile_id(h.config, {1, 0, 0});
  const NodeId b = tile_id(h.config, {2, 0, 0});
  h.mesh->fail_link(a, b);
  // Pairs whose dimension-order path crossed the link now detour.
  ASSERT_NE(h.mesh->route(a, tile_id(h.config, {3, 3, 1})), Mesh3d::kXPos);
  expect_pair_fifo(h, 5);
}

TEST(Noc, RejectsFaultsAfterTraffic) {
  Harness h;
  h.mesh->inject(0, make_packet(0, 2));
  h.drain();
  EXPECT_THROW(
      h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                        tile_id(h.config, {1, 0, 0})),
      Error);
}

TEST(Noc, RejectsPartitioningFault) {
  Harness h;
  // Cutting every link of a corner tile leaves it unreachable — the mesh
  // must refuse, not deadlock later.
  EXPECT_THROW(
      {
        h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                          tile_id(h.config, {1, 0, 0}));
        h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                          tile_id(h.config, {0, 1, 0}));
      },
      Error);
}

// ---------------------------------------------------------------------------
// Deadlock freedom (Dally and Seitz, IEEE TC 1987): a wormhole network
// whose channel-dependency graph is acyclic cannot deadlock. A channel is a
// directed link. Each message class has its own VC on every link and all
// classes route alike, so every class's graph is this one graph. A packet
// that arrives over one channel and leaves over the next makes the first
// depend on the second.
// ---------------------------------------------------------------------------

/// True if the channel-dependency graph of `mesh`'s routing, over every
/// (src, dst) pair, has a cycle. A route that does not reach its
/// destination fails the test.
bool dependency_graph_has_cycle(const Mesh3d& mesh) {
  const std::size_t tiles = mesh.config().total_tiles();
  const std::size_t channels = tiles * Mesh3d::kPortCount;
  std::vector<std::vector<std::size_t>> depends_on(channels);
  std::vector<std::size_t> in_degree(channels, 0);
  for (NodeId src = 0; src < tiles; ++src) {
    for (NodeId dst = 0; dst < tiles; ++dst) {
      std::size_t held = channels;  // none yet: the packet is at its source
      NodeId at = src;
      for (std::size_t hops = 0; at != dst; ++hops) {
        const Mesh3d::Port port = mesh.route(at, dst);
        NodeId next = 0;
        if (hops >= tiles || !mesh.neighbor(at, port, next)) {
          ADD_FAILURE() << "route " << src << " -> " << dst
                        << " does not arrive";
          return true;
        }
        const std::size_t channel = at * Mesh3d::kPortCount + port;
        if (held != channels) {
          depends_on[held].push_back(channel);
          ++in_degree[channel];
        }
        held = channel;
        at = next;
      }
    }
  }
  // Kahn's algorithm: the graph is acyclic iff every channel can be peeled
  // off once the channels that depend on it are gone.
  std::vector<std::size_t> ready;
  for (std::size_t c = 0; c < channels; ++c) {
    if (in_degree[c] == 0) ready.push_back(c);
  }
  std::size_t peeled = 0;
  while (!ready.empty()) {
    const std::size_t c = ready.back();
    ready.pop_back();
    ++peeled;
    for (const std::size_t d : depends_on[c]) {
      if (--in_degree[d] == 0) ready.push_back(d);
    }
  }
  return peeled != channels;
}

TEST(NocDeadlock, FaultFreeMeshesHaveAcyclicDependencies) {
  for (const std::size_t chips : {1, 2, 4, 6, 8}) {
    Harness h(chips);
    EXPECT_FALSE(dependency_graph_has_cycle(*h.mesh)) << chips << " chips";
  }
}

// The one link fault an output uses: calibrate_link_ratio's failed x-link
// on the 1-chip mesh (resilience/availability.cpp).
TEST(NocDeadlock, CalibrationLinkFaultIsAcyclic) {
  Harness h;
  h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                    tile_id(h.config, {1, 0, 0}));
  EXPECT_FALSE(dependency_graph_has_cycle(*h.mesh));
}

// The checker is not vacuous, and it records a known deviation that a
// deadlock-free detour (an up*/down* tree or an escape VC) must remove: on
// the 1-chip mesh, the shortest-path detour around any failed in-plane link
// that touches an interior tile (x and y in 1..2; tiles 5, 6, 9 and 10),
// such as the x-link between tiles 5 and 6, closes a dependency cycle,
// while the 12 links between perimeter tiles, the calibration link among
// them, do not.
TEST(NocDeadlock, InteriorLinkFaultsCloseACycle) {
  const CmpConfig config;
  const auto interior = [&](TileCoord c) {
    return c.x > 0 && c.x + 1 < config.mesh_x && c.y > 0 &&
           c.y + 1 < config.mesh_y;
  };
  std::size_t links = 0;
  std::size_t cyclic = 0;
  for (std::uint32_t y = 0; y < config.mesh_y; ++y) {
    for (std::uint32_t x = 0; x < config.mesh_x; ++x) {
      const TileCoord a{x, y, 0};
      for (const TileCoord b :
           {TileCoord{x + 1, y, 0}, TileCoord{x, y + 1, 0}}) {
        if (b.x >= config.mesh_x || b.y >= config.mesh_y) continue;
        Harness h;
        h.mesh->fail_link(tile_id(config, a), tile_id(config, b));
        const bool cycle = dependency_graph_has_cycle(*h.mesh);
        EXPECT_EQ(cycle, interior(a) || interior(b))
            << "link (" << a.x << "," << a.y << ")-(" << b.x << "," << b.y
            << ")";
        ++links;
        cyclic += cycle;
      }
    }
  }
  EXPECT_EQ(links, 24u);
  EXPECT_EQ(cyclic, 12u);
}

}  // namespace
}  // namespace aqua
