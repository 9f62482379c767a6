/// The exhaustive coherence checker (support/coherence_checker.hpp) over
/// the DES's own transitions: every interleaving of one line's loads,
/// stores, evictions and messages for 2 and 3 cores must keep single
/// writer or multiple readers, leave the directory exact at quiescence and
/// always be able to get there. A mutant home that brings back the
/// stale-sharer bug must fail, with the race as its counterexample.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "perf/coherence.hpp"
#include "support/coherence_checker.hpp"

namespace aqua {
namespace {

using oracle::CheckResult;
using oracle::CoherenceChecker;

/// Checks the real protocol and prints the state count and wall time into
/// the CI log, so a growth of the state space shows there.
CheckResult run_and_log(std::size_t cores) {
  const CheckResult r = CoherenceChecker<>(cores).run();
  std::printf(
      "coherence checker, %zu cores: %zu states, %zu transitions, %zu "
      "quiescent, deepest channel %zu, %.3f s\n",
      cores, r.states, r.transitions, r.quiescent, r.max_channel, r.seconds);
  return r;
}

TEST(CoherenceChecker, TwoCoresExploreEveryInterleaving) {
  const CheckResult r = run_and_log(2);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_GT(r.quiescent, 1u);
}

TEST(CoherenceChecker, ThreeCoresExploreEveryInterleaving) {
  const CheckResult r = run_and_log(3);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_GT(r.quiescent, 1u);
}

/// The home before the stale-sharer fix: after a PutM from a core that no
/// longer owns the line, the sender's sharer bit is set again if it was set
/// (and the line stays Shared). It wraps the real transition.
struct StaleSharerHome {
  template <class Home>
  static void at_home(Home& h, coherence::DirEntry& e, const Message& m) {
    const coherence::DirEntry before = e;
    coherence::at_home(h, e, m);
    const std::size_t s = m.sender;  // the checker's tiles are core indices
    if (m.type == MsgType::kPutM && !coherence::owns(before, s) &&
        (before.sharers & coherence::bit(s)) != 0) {
      e.sharers |= coherence::bit(s);
      e.state = before.state;
    }
  }
};

TEST(CoherenceChecker, StaleSharerMutantPrintsTheRace) {
  const CheckResult r = CoherenceChecker<StaleSharerHome>(2).run();
  ASSERT_FALSE(r.ok);
  // The counterexample is the race: the owner evicts (PutM) while a
  // FwdGetS is on its way, serves it from the writeback buffer, and its
  // DowngradeAck reaches the home before the PutM is taken.
  std::size_t at = 0;
  for (const char* step : {"evicts its E copy", ": FwdGetS",
                           ": DowngradeAck(clean)", ": PutM(clean)"}) {
    const std::size_t pos = r.report.find(step, at);
    ASSERT_NE(pos, std::string::npos)
        << "'" << step << "' missing or out of order in\n" << r.report;
    at = pos;
  }
  std::printf("stale-sharer mutant counterexample:\n%s", r.report.c_str());
}

}  // namespace
}  // namespace aqua
