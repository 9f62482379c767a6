/// DES determinism: the same seed (and failed links) must reproduce a
/// simulation bit for bit — every timing-visible ExecStats field. The event
/// queue's own ordering contract (global FIFO within a cycle across the
/// calendar ring and its overflow heap) is checked against a reference
/// priority queue in test_event_queue_params.cpp; these cases pin the
/// system-level consequence across workloads, with and without failed links.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perf/system.hpp"
#include "perf/workload.hpp"

namespace aqua {
namespace {

// FT is streaming/all-to-all, CG irregular and memory-bound — together
// they exercise data packets, forwards, invalidations and barriers.
const std::vector<std::string> kWorkloads = {"ft", "cg"};

/// One failed mesh link, as a pair of tile coordinates.
struct Link {
  TileCoord a;
  TileCoord b;
};

ExecStats run_once(const std::string& workload, std::size_t chips,
                   std::uint64_t seed, const std::vector<Link>& links = {}) {
  CmpConfig cfg;
  cfg.chips = chips;
  WorkloadProfile p = npb_profile(workload);
  p.instructions_per_thread = 2000;
  CmpSystem system(cfg, p, gigahertz(1.6), seed);
  for (const Link& l : links) {
    system.fail_link(tile_id(cfg, l.a), tile_id(cfg, l.b));
  }
  return system.run();
}

/// Every timing-visible field must match (seconds is cycles/frequency, so
/// deterministic too).
void expect_identical(const ExecStats& a, const ExecStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.mem_ops, b.mem_ops) << label;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << label;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << label;
  EXPECT_EQ(a.l2_data_hits, b.l2_data_hits) << label;
  EXPECT_EQ(a.l2_data_misses, b.l2_data_misses) << label;
  EXPECT_EQ(a.dram_accesses, b.dram_accesses) << label;
  EXPECT_EQ(a.coherence_forwards, b.coherence_forwards) << label;
  EXPECT_EQ(a.invalidations, b.invalidations) << label;
  EXPECT_EQ(a.writebacks, b.writebacks) << label;
  EXPECT_EQ(a.barriers, b.barriers) << label;
  EXPECT_EQ(a.l2_overflow_inserts, b.l2_overflow_inserts) << label;
  EXPECT_EQ(a.stall_l2_cycles, b.stall_l2_cycles) << label;
  EXPECT_EQ(a.stall_dram_cycles, b.stall_dram_cycles) << label;
  EXPECT_EQ(a.stall_forward_cycles, b.stall_forward_cycles) << label;
  EXPECT_EQ(a.stall_upgrade_cycles, b.stall_upgrade_cycles) << label;
  EXPECT_EQ(a.barrier_wait_cycles, b.barrier_wait_cycles) << label;
  EXPECT_EQ(a.noc.packets_delivered, b.noc.packets_delivered) << label;
  EXPECT_EQ(a.noc.flits_delivered, b.noc.flits_delivered) << label;
  EXPECT_EQ(a.noc.total_packet_latency, b.noc.total_packet_latency) << label;
  EXPECT_EQ(a.noc.total_hops, b.noc.total_hops) << label;
  EXPECT_EQ(a.noc.ticks, b.noc.ticks) << label;
  EXPECT_EQ(a.core_utilization, b.core_utilization) << label;
}

TEST(QueueInvariance, RepeatedRunsAreDeterministic) {
  const ExecStats a = run_once("ft", 2, 7);
  const ExecStats b = run_once("ft", 2, 7);
  expect_identical(a, b, "repeat seed=7");
}

// A run with failed links reroutes from cycle 0 and must stay as
// deterministic as a fault-free one. Both links lie on the mesh perimeter:
// the calibration link of the availability experiment on chip 0, and an
// edge y-link on chip 1.
TEST(QueueInvariance, FaultedRunsAreRepeatable) {
  const std::vector<Link> links = {{{0, 0, 0}, {1, 0, 0}},
                                   {{3, 2, 1}, {3, 3, 1}}};
  for (const std::string& w : kWorkloads) {
    const std::string label = w + " faulted repeat seed=9";
    const ExecStats a = run_once(w, 2, 9, links);
    const ExecStats b = run_once(w, 2, 9, links);
    expect_identical(a, b, label);
    EXPECT_EQ(a.noc_links_failed, 2u) << label;
    EXPECT_EQ(b.noc_links_failed, 2u) << label;
  }
}

}  // namespace
}  // namespace aqua
