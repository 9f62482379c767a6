/// DES determinism: the same seed (and fault plan) must reproduce a
/// simulation bit for bit — every timing-visible ExecStats field. The event
/// queue's own ordering contract (global FIFO within a cycle across the
/// calendar ring and its overflow heap) is checked against a reference
/// priority queue in test_event_queue_params.cpp; these cases pin the
/// system-level consequence across workloads and fault plans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perf/faults.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"
#include "resilience/schedule.hpp"

namespace aqua {
namespace {

// FT is streaming/all-to-all, CG irregular and memory-bound — together
// they exercise data packets, forwards, invalidations and barriers.
const std::vector<std::string> kWorkloads = {"ft", "cg"};

ExecStats run_once(const std::string& workload, std::size_t chips,
                   std::uint64_t seed, const PerfFaultPlan& faults = {}) {
  CmpConfig cfg;
  cfg.chips = chips;
  WorkloadProfile p = npb_profile(workload);
  p.instructions_per_thread = 2000;
  CmpSystem system(cfg, p, gigahertz(1.6), seed);
  if (!faults.empty()) system.inject_faults(faults);
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

/// A dense seeded fault plan over a `chips`-chip system (dead cores,
/// mid-run kills, failed links) — non-empty at these probabilities.
PerfFaultPlan seeded_plan(std::size_t chips) {
  CmpConfig cfg;
  cfg.chips = chips;
  FaultScheduleOptions opts;
  opts.core_dead_prob = 0.2;
  opts.core_midrun_prob = 0.3;
  opts.midrun_window = 50000;
  opts.link_fail_prob = 0.05;
  return sample_fault_plan(cfg, opts, 11);
}

TEST(QueueInvariance, RepeatedRunsAreDeterministic) {
  const ExecStats a = run_once("ft", 2, 7);
  const ExecStats b = run_once("ft", 2, 7);
  expect_identical(a, b, "repeat seed=7");
}

// ---------------------------------------------------------------------------
// Fault-injection determinism: the resilience contract is that a seeded
// fault schedule keeps the DES deterministic — the same (seed, plan) must
// be bit-identical across repeats on every workload, and an *empty* plan
// must be bit-identical to never calling inject_faults at all (the
// graceful-degradation hooks are inert when unused).
// ---------------------------------------------------------------------------

TEST(QueueInvariance, FaultedRunsAreRepeatable) {
  const PerfFaultPlan plan = seeded_plan(2);
  ASSERT_FALSE(plan.empty());
  for (const std::string& w : kWorkloads) {
    const std::string label = w + " faulted repeat seed=9";
    const ExecStats a = run_once(w, 2, 9, plan);
    const ExecStats b = run_once(w, 2, 9, plan);
    expect_identical(a, b, label);
    EXPECT_TRUE(a.degraded) << label;
    EXPECT_GT(a.cores_failed, 0u) << label;
    EXPECT_EQ(a.cores_failed, b.cores_failed) << label;
    EXPECT_EQ(a.noc_links_failed, b.noc_links_failed) << label;
    EXPECT_EQ(a.noc_routers_failed, b.noc_routers_failed) << label;
  }
}

TEST(QueueInvariance, EmptyPlanMatchesUninjectedRun) {
  const ExecStats plain = run_once("ft", 2, 1);
  const ExecStats empty = run_once("ft", 2, 1, PerfFaultPlan{});
  // PerfFaultPlan{} is empty, so run_once skips inject_faults — assert the
  // zero-fault path through the fault-aware code is bit-identical anyway.
  CmpConfig cfg;
  cfg.chips = 2;
  WorkloadProfile p = npb_profile("ft");
  p.instructions_per_thread = 2000;
  CmpSystem system(cfg, p, gigahertz(1.6), 1);
  system.inject_faults(PerfFaultPlan{});
  const ExecStats injected_empty = system.run();
  expect_identical(plain, empty, "no-plan vs default");
  expect_identical(plain, injected_empty, "no-plan vs explicit empty plan");
  EXPECT_FALSE(injected_empty.degraded);
  EXPECT_EQ(injected_empty.cores_failed, 0u);
}

}  // namespace
}  // namespace aqua
