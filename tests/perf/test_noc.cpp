#include "perf/noc.hpp"

#include <gtest/gtest.h>

#include <map>

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
// Fault rerouting (perf/faults.hpp): a failed link or router is removed
// from the adjacency and every surviving pair still reaches its
// destination over a recomputed shortest path.
// ---------------------------------------------------------------------------

TEST(Noc, FailedLinkIsRoutedAround) {
  Harness h;
  const NodeId a = tile_id(h.config, {0, 0, 0});
  const NodeId b = tile_id(h.config, {1, 0, 0});
  h.mesh->fail_link(a, b);
  EXPECT_TRUE(h.mesh->faulted());
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

TEST(Noc, FailedRouterRoutesAroundAndRejectsEndpoints) {
  Harness h;
  const NodeId dead = tile_id(h.config, {1, 1, 0});
  h.mesh->fail_router(dead);
  EXPECT_TRUE(h.mesh->router_dead(dead));
  // Traffic that DOR would push through (1,1) must detour and deliver.
  const NodeId src = tile_id(h.config, {0, 1, 0});
  const NodeId dst = tile_id(h.config, {2, 1, 0});
  h.mesh->inject(0, make_packet(src, dst));
  h.drain();
  ASSERT_EQ(h.delivered.size(), 1u);
  // Endpoints on the dead router are a hard error, not silent loss.
  EXPECT_THROW(h.mesh->inject(h.now, make_packet(dead, dst)), Error);
  EXPECT_THROW(h.mesh->inject(h.now, make_packet(src, dead)), Error);
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
  // Cutting every link of a corner tile without killing the router leaves
  // an unreachable live node — the mesh must refuse, not deadlock later.
  EXPECT_THROW(
      {
        h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                          tile_id(h.config, {1, 0, 0}));
        h.mesh->fail_link(tile_id(h.config, {0, 0, 0}),
                          tile_id(h.config, {0, 1, 0}));
      },
      Error);
}

}  // namespace
}  // namespace aqua
