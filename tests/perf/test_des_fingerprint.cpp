/// Pinned DES fingerprints: an FNV-1a hash of every ExecStats field (and of
/// the run's scheduled-event count) for a fixed set of runs, compared
/// against constants recorded before the simulator's state layout was
/// compacted. QueueInvariance only proves run-to-run determinism and the
/// goldens round simulated times; these pins catch any change to a single
/// simulated value — a cycle, a counter, a latency bucket, a utilization
/// bit — on every NPB profile, on a run with a failed link and on a trace
/// replay.
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
  f.add(s.noc_links_failed);
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
// noc.ticks counting every active-network cycle. Re-pinned when the core
// and router fault kinds left the simulator: the hashes were computed on
// the simulator from before that change, with the hash already over the
// remaining fields and a link-only faulted run, so every run here is
// bit-identical to that simulator.
constexpr Pin kNpbPins[] = {
    {"bt", 2, 0x2769d59ca2185ed0ULL}, {"bt", 6, 0x5215af4f4f97ab3aULL},
    {"cg", 2, 0x53230fb08d7ac0e0ULL}, {"cg", 6, 0xc021f678ed8fa9b5ULL},
    {"ep", 2, 0x6de7de04c4955be8ULL}, {"ep", 6, 0xa7512ac8159b434dULL},
    {"ft", 2, 0x36bbae5288ce0e60ULL}, {"ft", 6, 0x72e62a06ddf3f2a1ULL},
    {"is", 2, 0xab4b36211102beacULL}, {"is", 6, 0x8f8d13b662273718ULL},
    {"lu", 2, 0x5a5ceef7eba36afcULL}, {"lu", 6, 0x6d06510ad12c1018ULL},
    {"mg", 2, 0x707f04f73260025cULL}, {"mg", 6, 0x1c95a4ecaf33df74ULL},
    {"sp", 2, 0xcb3077770b22bcc5ULL}, {"sp", 6, 0xd2cf55e94d579e65ULL},
    {"ua", 2, 0xb2d8853be208e901ULL}, {"ua", 6, 0x91c8679a87034303ULL},
};
constexpr std::uint64_t kFaultedPin = 0xa95d3a8973d5b432ULL;
constexpr std::uint64_t kReplayPin = 0x04ff9f5db8958841ULL;

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

// A failed mesh link reroutes traffic from cycle 0: the detour routes feed
// the pinned statistics.
TEST(DesFingerprint, LinkFault) {
  CmpConfig cfg;
  cfg.chips = 6;
  CmpSystem system(cfg, short_profile("cg"), gigahertz(1.6), 1);
  system.fail_link(tile_id(cfg, {1, 1, 2}), tile_id(cfg, {2, 1, 2}));
  ExecStats stats;
  EXPECT_EQ(hex(run_fingerprint(system, &stats)), hex(kFaultedPin));
  EXPECT_EQ(stats.noc_links_failed, 1u);
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
