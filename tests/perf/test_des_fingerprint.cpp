/// Pinned DES fingerprints: an FNV-1a hash of every ExecStats field (and of
/// the run's scheduled-event count) for a fixed set of runs, compared
/// against constants recorded before the simulator's state layout was
/// compacted. QueueInvariance only proves run-to-run determinism and the
/// goldens round simulated times; these pins catch any change to a single
/// simulated value — a cycle, a counter, a latency bucket, a utilization
/// bit — on every NPB profile, on a faulted run and on a trace replay.
///
/// A deliberate model change re-pins the constants: the failure message
/// prints each run's new hash.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "perf/faults.hpp"
#include "perf/system.hpp"
#include "perf/tracefile.hpp"
#include "perf/workload.hpp"

namespace aqua {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t fingerprint(const ExecStats& s, std::uint64_t events) {
  Fnv1a f;
  f.add(events);
  f.add(s.cycles);
  f.add(s.seconds);
  f.add(s.instructions);
  f.add(s.mem_ops);
  f.add(s.l1_hits);
  f.add(s.l1_misses);
  f.add(s.l2_data_hits);
  f.add(s.l2_data_misses);
  f.add(s.dram_accesses);
  f.add(s.coherence_forwards);
  f.add(s.invalidations);
  f.add(s.writebacks);
  f.add(s.barriers);
  f.add(s.l2_overflow_inserts);
  f.add(s.noc.packets_injected);
  f.add(s.noc.packets_delivered);
  f.add(s.noc.flits_delivered);
  f.add(s.noc.total_packet_latency);
  f.add(s.noc.total_hops);
  f.add(s.noc.ticks);
  for (const std::uint64_t bucket : s.noc.latency_hist) f.add(bucket);
  f.add(s.stall_l2_cycles);
  f.add(s.stall_dram_cycles);
  f.add(s.stall_forward_cycles);
  f.add(s.stall_upgrade_cycles);
  f.add(s.barrier_wait_cycles);
  f.add(static_cast<std::uint64_t>(s.core_utilization.size()));
  for (const double u : s.core_utilization) f.add(u);
  f.add(s.cores_failed);
  f.add(s.noc_links_failed);
  f.add(s.noc_routers_failed);
  f.add(static_cast<std::uint64_t>(s.degraded));
  return f.h;
}

/// Runs `system` and fingerprints the result together with the number of
/// events it scheduled (the process-wide counter's delta).
std::uint64_t run_fingerprint(CmpSystem& system, ExecStats* out = nullptr) {
  obs::Counter& events = obs::Registry::instance().counter("perf.events");
  const std::uint64_t events0 = events.value();
  const ExecStats stats = system.run();
  if (out != nullptr) *out = stats;
  return fingerprint(stats, events.value() - events0);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

WorkloadProfile short_profile(const std::string& name) {
  WorkloadProfile p = npb_profile(name);
  p.instructions_per_thread = 2000;
  return p;
}

struct Pin {
  const char* profile;
  std::size_t chips;
  std::uint64_t hash;
};

// Recorded at 1.6 GHz, seed 1, 2000 instructions per thread, with
// noc.ticks counting every active-network cycle.
constexpr Pin kNpbPins[] = {
    {"bt", 2, 0x192ac07225360cd0ULL}, {"bt", 6, 0x28944acad7c4e4faULL},
    {"cg", 2, 0x0b3c4e964bafd4e0ULL}, {"cg", 6, 0x615d06e590cbbf95ULL},
    {"ep", 2, 0x7752b813fcc1e2e8ULL}, {"ep", 6, 0xaa51eead8eede22dULL},
    {"ft", 2, 0xe8e96b92f4973260ULL}, {"ft", 6, 0x99ba8ac5763f1901ULL},
    {"is", 2, 0xe9ce3a9d24df772cULL}, {"is", 6, 0x17ceee1d5a0fd018ULL},
    {"lu", 2, 0x9efa796a9611e17cULL}, {"lu", 6, 0xaac578c7da400918ULL},
    {"mg", 2, 0x73f2a808bc44fcdcULL}, {"mg", 6, 0x9c0511cf177bb2f4ULL},
    {"sp", 2, 0x0fbed94cd68298a5ULL}, {"sp", 6, 0xdc86653fed685645ULL},
    {"ua", 2, 0xa8c9de3518c43361ULL}, {"ua", 6, 0x6da3b676d6b82223ULL},
};
constexpr std::uint64_t kFaultedPin = 0x2d31842451ff3bc2ULL;
constexpr std::uint64_t kReplayPin = 0xe50e78237edd0aa1ULL;

TEST(DesFingerprint, EveryNpbProfileAtTwoAndSixChips) {
  for (const Pin& pin : kNpbPins) {
    CmpConfig cfg;
    cfg.chips = pin.chips;
    CmpSystem system(cfg, short_profile(pin.profile), gigahertz(1.6), 1);
    const std::uint64_t got = run_fingerprint(system);
    EXPECT_EQ(hex(got), hex(pin.hash))
        << pin.profile << " x " << pin.chips << " chips";
  }
}

// A failed mesh link reroutes traffic from cycle 0 and a core dies
// mid-run: detour routing, the L1 flush and the shrinking barrier all
// feed the pinned statistics.
TEST(DesFingerprint, LinkFaultAndMidRunCoreKill) {
  CmpConfig cfg;
  cfg.chips = 6;
  PerfFaultPlan plan;
  plan.link_faults.push_back(
      {tile_id(cfg, {1, 1, 2}), tile_id(cfg, {2, 1, 2})});
  plan.core_faults.push_back({5, 4000});
  CmpSystem system(cfg, short_profile("cg"), gigahertz(1.6), 1);
  system.inject_faults(plan);
  ExecStats stats;
  EXPECT_EQ(hex(run_fingerprint(system, &stats)), hex(kFaultedPin));
  EXPECT_EQ(stats.noc_links_failed, 1u);
  EXPECT_EQ(stats.cores_failed, 1u);  // killed before its work was done
}

// Trace replay, with every thread also sharing lines 0, ~0 and ~0 - 1 —
// trace files carry arbitrary 64-bit addresses, and those extremes are
// the keys a hash table or tag array is most likely to mistake for empty.
TEST(DesFingerprint, TraceBundleReplayWithExtremeLines) {
  CmpConfig cfg;
  cfg.chips = 2;
  TraceBundle bundle =
      TraceBundle::capture(short_profile("is"), cfg.total_cores(), 3);
  const LineAddr extremes[] = {0, ~LineAddr{0}, ~LineAddr{0} - 1};
  for (std::size_t t = 0; t < bundle.threads.size(); ++t) {
    std::vector<RecordedTrace::Op> ops;
    for (std::size_t i = 0; i < 12; ++i) {
      ops.push_back({TraceOp::Kind::kMemory, static_cast<std::uint32_t>(t),
                     i % 4 == 3, extremes[(t + i) % 3]});
    }
    for (const RecordedTrace::Op& op : bundle.threads[t].ops()) {
      ops.push_back(op);
    }
    bundle.threads[t] = RecordedTrace(std::move(ops));
  }
  CmpSystem system(cfg, bundle, gigahertz(1.6));
  ExecStats stats;
  EXPECT_EQ(hex(run_fingerprint(system, &stats)), hex(kReplayPin));
  EXPECT_GT(stats.invalidations, 0u);
}

}  // namespace
}  // namespace aqua
