/// DES liveness reproducers: NPB cells that once hung on the stale-sharer
/// race (DESIGN.md §7, "Coherence: one transition module"). An E owner
/// evicts the line while a FwdGetS is on its way; it serves the forward
/// from its writeback buffer, and the clean DowngradeAck listed it as a
/// sharer after it had let the line go. A later store from that core got an
/// AckCount without data and waited forever. Each cell must now complete,
/// at the cycle count pinned here.
///
/// The tier-1 cell takes about 0.3 s; `test_des_liveness_slow` (label
/// `slow`) runs the two figure cells that hung at scales 1 and 2.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "perf/system.hpp"
#include "perf/workload.hpp"

namespace aqua {
namespace {

/// `cycles` of the NPB program `name` on `chips` chips at `ghz`, with the
/// figure benches' instruction scaling and DES seed.
Cycle run_cell(const std::string& name, std::size_t chips, double ghz,
               double scale, std::uint64_t seed) {
  WorkloadProfile p = npb_profile(name);
  p.instructions_per_thread = static_cast<std::uint64_t>(
      static_cast<double>(p.instructions_per_thread) * scale);
  CmpConfig config;
  config.chips = chips;
  CmpSystem system(config, p, gigahertz(ghz), seed);
  return system.run().cycles;
}

#ifndef AQUA_DES_LIVENESS_SLOW

// The cell that hung with "simulation deadlock at cycle 481561" (line
// 285213785 at home tile 57).
TEST(DesLiveness, CgSixChipsSeed3Completes) {
  EXPECT_EQ(run_cell("cg", 6, 1.6, 0.2, 3), 678'205u);
}

// The same cell at seed 1 never met the race; the fix leaves it alone.
TEST(DesLiveness, CgSixChipsSeed1Unchanged) {
  EXPECT_EQ(run_cell("cg", 6, 1.6, 0.2, 1), 667'269u);
}

#else

// Fig. 11's ua cell at scale 1 (hung at cycle 838343).
TEST(DesLivenessSlow, UaEightChipsScale1Completes) {
  EXPECT_EQ(run_cell("ua", 8, 1.3, 1.0, 1), 1'101'173u);
}

// Fig. 10's lu cell at scale 2 (hung at cycle 1057553).
TEST(DesLivenessSlow, LuSixChipsScale2Completes) {
  EXPECT_EQ(run_cell("lu", 6, 1.7, 2.0, 1), 1'596'310u);
}

#endif

}  // namespace
}  // namespace aqua
