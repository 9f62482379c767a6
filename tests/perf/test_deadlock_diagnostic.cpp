/// CmpSystem::run's deadlock diagnostic: when the event queue drains with
/// unfinished cores, the simulator must fail fast with a snapshot of every
/// core's wait state (not hang, not exit silently). Wedged protocol states
/// are hard to reach through the public API on purpose, so the test swaps
/// one core's op stream for a barrier that no other thread ever reaches,
/// and plants directory entries to see how busy lines are reported.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"

namespace aqua {

/// White-box hooks (friend of CmpSystem).
struct CmpSystemTestPeer {
  static void replace_trace(CmpSystem& system, std::size_t core,
                            std::unique_ptr<OpSource> trace) {
    system.cores_[core].trace = std::move(trace);
  }
  static void mark_busy(CmpSystem& system, std::size_t bank, LineAddr line) {
    system.banks_[bank].directory[line].dir.busy = true;
  }
  static void set_line(CmpSystem& system, std::size_t bank, LineAddr line,
                       const coherence::DirEntry& e) {
    system.banks_[bank].directory[line].dir = e;
  }
  static NodeId bank_tile(const CmpSystem& system, std::size_t bank) {
    return system.banks_[bank].tile;
  }
};

namespace {

/// One barrier nobody else arrives at, then done.
class LoneBarrierSource final : public OpSource {
 public:
  TraceOp next() override {
    TraceOp op;
    op.kind = issued_ ? TraceOp::Kind::kDone : TraceOp::Kind::kBarrier;
    issued_ = true;
    return op;
  }
  [[nodiscard]] std::uint64_t instructions_issued() const override {
    return 0;
  }

 private:
  bool issued_ = false;
};

TEST(DeadlockDiagnostic, WedgedBarrierProducesSnapshotDump) {
  CmpConfig cfg;
  cfg.chips = 2;
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 50;
  p.phases = 1;  // healthy threads run barrier-free and finish
  CmpSystem system(cfg, p, gigahertz(1.0), /*seed=*/1);
  CmpSystemTestPeer::replace_trace(system, 0,
                                   std::make_unique<LoneBarrierSource>());

  try {
    system.run();
    FAIL() << "wedged simulation did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulation deadlock at cycle"), std::string::npos)
        << what;
    // The snapshot names the wedged core and its wait reason.
    EXPECT_NE(what.find("core 0 barrier"), std::string::npos) << what;
    // The NoC had drained — the hang is in the cores, and the dump says so.
    EXPECT_NE(what.find("noc idle"), std::string::npos) << what;
  }
}

// The dump lists busy directory lines bank by bank, each bank's lines in
// ascending order, whatever order the directory table holds them in.
TEST(DeadlockDiagnostic, BusyLinesListedInBankAndLineOrder) {
  CmpConfig cfg;
  cfg.chips = 2;
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 50;
  p.phases = 1;
  CmpSystem system(cfg, p, gigahertz(1.0), /*seed=*/1);
  CmpSystemTestPeer::replace_trace(system, 0,
                                   std::make_unique<LoneBarrierSource>());
  const LineAddr lines[] = {5000, 7, ~LineAddr{0}, 300, 0};
  for (const LineAddr line : lines) {
    CmpSystemTestPeer::mark_busy(system, 3, line);
  }
  CmpSystemTestPeer::mark_busy(system, 1, 9);

  std::string what;
  try {
    system.run();
  } catch (const Error& e) {
    what = e.what();
  }
  ASSERT_NE(what.find("simulation deadlock at cycle"), std::string::npos);
  std::vector<std::string> expected;
  const auto entry = [&](std::size_t bank, LineAddr line) {
    return "bank tile " +
           std::to_string(CmpSystemTestPeer::bank_tile(system, bank)) +
           " line " + std::to_string(line) +
           " state Uncached BUSY pending 0 owner 0 sharers 0x0 "
           "awaiting_downgrade 0 downgrade_received 0 unblock_received 0";
  };
  expected.push_back(entry(1, 9));
  for (const LineAddr line : {LineAddr{0}, LineAddr{7}, LineAddr{300},
                              LineAddr{5000}, ~LineAddr{0}}) {
    expected.push_back(entry(3, line));
  }
  std::size_t at = 0;
  for (const std::string& e : expected) {
    const std::size_t pos = what.find(e, at);
    ASSERT_NE(pos, std::string::npos) << e << " missing or out of order in\n"
                                      << what;
    at = pos + e.size();
  }
}

// Each stuck line shows the fields a stuck transaction turns on: who owns
// it, who shares it, and which of the two closing messages arrived.
TEST(DeadlockDiagnostic, BusyLineShowsOwnerSharersAndFlags) {
  CmpConfig cfg;
  cfg.chips = 2;
  WorkloadProfile p = npb_profile("ep");
  p.instructions_per_thread = 50;
  p.phases = 1;
  CmpSystem system(cfg, p, gigahertz(1.0), /*seed=*/1);
  CmpSystemTestPeer::replace_trace(system, 0,
                                   std::make_unique<LoneBarrierSource>());
  coherence::DirEntry e;
  e.state = DirState::kShared;
  e.busy = true;
  e.awaiting_downgrade = true;
  e.unblock_received = true;
  e.owner = 16;
  e.sharers = (std::uint64_t{1} << 16) | (std::uint64_t{1} << 17);
  CmpSystemTestPeer::set_line(system, 2, 285213785, e);

  std::string what;
  try {
    system.run();
  } catch (const Error& err) {
    what = err.what();
  }
  const std::string expected =
      "bank tile " + std::to_string(CmpSystemTestPeer::bank_tile(system, 2)) +
      " line 285213785 state Shared BUSY pending 0 owner 16 sharers 0x30000 "
      "awaiting_downgrade 1 downgrade_received 0 unblock_received 1";
  EXPECT_NE(what.find(expected), std::string::npos) << what;
}

}  // namespace
}  // namespace aqua
