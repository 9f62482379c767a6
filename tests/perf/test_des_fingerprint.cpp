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
  f.add(s.noc.cycles_skipped);
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

// Recorded at 1.6 GHz, seed 1, 2000 instructions per thread.
constexpr Pin kNpbPins[] = {
    {"bt", 2, 0x3673191f19827125ULL}, {"bt", 6, 0x18c30e821a7c024aULL},
    {"cg", 2, 0x3334a7648b9ed30eULL}, {"cg", 6, 0xc42f598cf72a4c35ULL},
    {"ep", 2, 0x70fedc0ba0de8e30ULL}, {"ep", 6, 0x66f396dc96f9666fULL},
    {"ft", 2, 0xf521778dd3742c6dULL}, {"ft", 6, 0x1794a9c90ce09461ULL},
    {"is", 2, 0xadeb54a13a94b2bbULL}, {"is", 6, 0xdd555e71a3c91e4bULL},
    {"lu", 2, 0x58eead2b4939b82cULL}, {"lu", 6, 0x59236b69188149d5ULL},
    {"mg", 2, 0xcf2f1c7f321257f8ULL}, {"mg", 6, 0xd3bc81f3d7e6775dULL},
    {"sp", 2, 0xb76c01af571a5aadULL}, {"sp", 6, 0xf62372cea85eb472ULL},
    {"ua", 2, 0x810a92efc3513485ULL}, {"ua", 6, 0x8300b91f8f73186fULL},
};
constexpr std::uint64_t kFaultedPin = 0x9064a0eb8b8c8c27ULL;
constexpr std::uint64_t kReplayPin = 0x007d4225c2bfc950ULL;

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
