#include "perf/system.hpp"

#include <gtest/gtest.h>

namespace aqua {
namespace {

WorkloadProfile tiny(const char* name, std::uint64_t instructions = 8000) {
  WorkloadProfile p = npb_profile(name);
  p.instructions_per_thread = instructions;
  return p;
}

TEST(System, RunsToCompletionSingleChip) {
  CmpConfig cfg;
  CmpSystem sys(cfg, tiny("bt"), gigahertz(2.0));
  const ExecStats st = sys.run();
  EXPECT_GT(st.cycles, 0u);
  EXPECT_GT(st.instructions, 4u * 8000u * 9 / 10);
  EXPECT_GT(st.seconds, 0.0);
  EXPECT_EQ(st.l1_hits + st.l1_misses, st.mem_ops);
}

TEST(System, DeterministicForSameSeed) {
  CmpConfig cfg;
  cfg.chips = 2;
  CmpSystem a(cfg, tiny("cg"), gigahertz(1.5), 5);
  CmpSystem b(cfg, tiny("cg"), gigahertz(1.5), 5);
  const ExecStats sa = a.run();
  const ExecStats sb = b.run();
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.l1_misses, sb.l1_misses);
  EXPECT_EQ(sa.noc.packets_delivered, sb.noc.packets_delivered);
}

TEST(System, HigherFrequencyRunsFasterInSeconds) {
  CmpConfig cfg;
  const ExecStats slow = CmpSystem(cfg, tiny("ep"), gigahertz(1.0)).run();
  const ExecStats fast = CmpSystem(cfg, tiny("ep"), gigahertz(2.0)).run();
  EXPECT_LT(fast.seconds, slow.seconds);
}

TEST(System, ComputeBoundScalesNearlyWithFrequency) {
  // Long enough that EP's (tiny) working set is cold-miss amortized.
  CmpConfig cfg;
  const ExecStats slow =
      CmpSystem(cfg, tiny("ep", 250000), gigahertz(1.0)).run();
  const ExecStats fast =
      CmpSystem(cfg, tiny("ep", 250000), gigahertz(2.0)).run();
  const double speedup = slow.seconds / fast.seconds;
  EXPECT_GT(speedup, 1.65);  // EP: mostly compute, near-linear
  EXPECT_LE(speedup, 2.05);
}

TEST(System, MemoryBoundScalesSublinearly) {
  CmpConfig cfg;
  const ExecStats slow =
      CmpSystem(cfg, tiny("is", 12000), gigahertz(1.0)).run();
  const ExecStats fast =
      CmpSystem(cfg, tiny("is", 12000), gigahertz(2.0)).run();
  const double speedup = slow.seconds / fast.seconds;
  EXPECT_LT(speedup, 1.7);  // DRAM nanoseconds do not scale with the clock
  EXPECT_GT(speedup, 1.0);
}

TEST(System, CacheHitRateReasonable) {
  CmpConfig cfg;
  const ExecStats st = CmpSystem(cfg, tiny("bt", 20000), gigahertz(2.0)).run();
  EXPECT_GT(st.l1_hit_rate(), 0.6);
  EXPECT_LT(st.l1_hit_rate(), 1.0);
}

TEST(System, SharingGeneratesCoherenceTraffic) {
  CmpConfig cfg;
  cfg.chips = 2;
  WorkloadProfile p = tiny("is", 12000);
  p.shared_fraction = 0.3;
  p.write_fraction = 0.5;
  const ExecStats st = CmpSystem(cfg, p, gigahertz(2.0)).run();
  EXPECT_GT(st.invalidations + st.coherence_forwards, 0u);
  EXPECT_GT(st.noc.packets_delivered, 0u);
  EXPECT_GT(st.dram_accesses, 0u);
}

TEST(System, BarriersCounted) {
  CmpConfig cfg;
  const WorkloadProfile p = tiny("lu");  // 24 phases
  const ExecStats st = CmpSystem(cfg, p, gigahertz(2.0)).run();
  EXPECT_EQ(st.barriers, p.phases - 1);
}

TEST(System, MultiChipRunsAllThreads) {
  CmpConfig cfg;
  cfg.chips = 3;
  const WorkloadProfile p = tiny("mg", 5000);
  const ExecStats st = CmpSystem(cfg, p, gigahertz(1.4)).run();
  // 12 threads each issuing ~5000 instructions.
  EXPECT_GT(st.instructions, 12u * 4500u);
  // Cross-chip traffic existed (homes interleave across chips).
  EXPECT_GT(st.noc.average_hops(), 1.0);
}

TEST(System, SecondsMatchCyclesOverFrequency) {
  CmpConfig cfg;
  CmpSystem sys(cfg, tiny("ep"), gigahertz(1.8));
  const ExecStats st = sys.run();
  EXPECT_NEAR(st.seconds, static_cast<double>(st.cycles) / 1.8e9, 1e-12);
}

TEST(System, RunTwiceThrows) {
  CmpConfig cfg;
  CmpSystem sys(cfg, tiny("ep", 1000), gigahertz(1.0));
  sys.run();
  EXPECT_THROW(sys.run(), Error);
}

TEST(System, FailLinkOnlyBeforeRunAndBetweenNeighbours) {
  CmpConfig cfg;
  CmpSystem sys(cfg, tiny("ep", 1000), gigahertz(1.0));
  EXPECT_THROW(sys.fail_link(tile_id(cfg, {0, 0, 0}), tile_id(cfg, {2, 0, 0})),
               Error);
  sys.run();
  EXPECT_THROW(sys.fail_link(tile_id(cfg, {0, 0, 0}), tile_id(cfg, {1, 0, 0})),
               Error);
}

TEST(System, WritebacksHappenUnderCapacityPressure) {
  CmpConfig cfg;
  WorkloadProfile p = tiny("is", 20000);
  p.private_lines = 8192;  // 4x the 128 KiB L1
  p.write_fraction = 0.6;
  p.stride_locality = 0.3;
  const ExecStats st = CmpSystem(cfg, p, gigahertz(2.0)).run();
  EXPECT_GT(st.writebacks, 0u);
}

// The paper's headline microbenchmark sanity: the same trace, executed at
// each cooling option's frequency, orders execution times by frequency.
TEST(System, ExecutionTimeMonotoneInFrequency) {
  CmpConfig cfg;
  cfg.chips = 2;
  double prev = 1e18;
  for (double ghz : {1.0, 1.4, 1.8}) {
    const ExecStats st =
        CmpSystem(cfg, tiny("ft", 6000), gigahertz(ghz)).run();
    EXPECT_LT(st.seconds, prev);
    prev = st.seconds;
  }
}

// Regression: a Put* popped from a home's pending queue opens no
// transaction, and everything queued behind it used to be orphaned — a
// deadlock first seen on the 6-chip halo-exchange workloads. Hammer one
// tiny shared region from many cores so deep per-line queues with
// interleaved writebacks are guaranteed.
TEST(System, HighContentionPendingQueuesDrain) {
  CmpConfig cfg;
  cfg.chips = 4;  // 16 cores
  WorkloadProfile p = npb_profile("is");
  p.instructions_per_thread = 6000;
  p.shared_fraction = 0.5;
  p.streaming_fraction = 0.0;
  p.neighbor_fraction = 0.0;
  p.shared_lines = 32;  // brutal same-line contention
  p.write_fraction = 0.7;
  const ExecStats st = CmpSystem(cfg, p, gigahertz(2.0), 11).run();
  EXPECT_GT(st.invalidations, 0u);
  EXPECT_GT(st.coherence_forwards, 0u);
  EXPECT_EQ(st.barriers, p.phases - 1);
}

// DES state grows with the lines a cell touches (DESIGN.md §7). The Fig. 13
// cell cg at 8 chips, 2.2 GHz, instruction scale 0.2, seed 1 held 27.3 MiB
// when every L2 set was allocated up front and a directory slot took 56
// bytes; its 96 banks each index only 64 of their 2048 sets.
TEST(System, Fig13CellStateStaysWithin12MiB) {
  CmpConfig cfg;
  cfg.chips = 8;
  CmpSystem sys(cfg, tiny("cg", 24'000), gigahertz(2.2), 1);
  sys.run();
  EXPECT_LE(sys.state_bytes(), std::size_t{12} << 20);
}

}  // namespace
}  // namespace aqua
