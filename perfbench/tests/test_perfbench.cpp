/// Unit tests of the benchmark's own logic: the tail-percentile rule, span
/// self time, the seeded service_mix schedule, and the output checker.
///
///   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
///   cmake --build build-perfbench --target perfbench_tests
///   ./build-perfbench/perfbench_tests

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "check.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, UsesP99WhenTenSamplesLieBeyondIt) {
  const Tail tail = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(3000)).value, 2970.0);
}

TEST(TailPercentile, FallsBackToTheHighestRankWithTenBeyond) {
  const Tail tail = tail_percentile(one_to(500));
  EXPECT_DOUBLE_EQ(tail.value, 490.0);  // p98: exactly ten samples above
  EXPECT_DOUBLE_EQ(tail.percentile, 98.0);
}

TEST(TailPercentile, NeverReportsBelowTheMedian) {
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(15)).value, 8.0);
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(4)).value, 2.0);
  EXPECT_DOUBLE_EQ(tail_percentile({}).value, 0.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 990.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 50.0), 2.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,30] and [20,40] cover 30 of the parent's 100.
  EXPECT_DOUBLE_EQ(self_time(0.0, 100.0, {{10.0, 30.0}, {20.0, 40.0}}), 70.0);
  // Children are clipped to the parent; disjoint runs add up.
  EXPECT_DOUBLE_EQ(self_time(0.0, 100.0, {{90.0, 120.0}, {-5.0, 5.0}}), 85.0);
  EXPECT_DOUBLE_EQ(self_time(0.0, 10.0, {{0.0, 10.0}, {2.0, 3.0}}), 0.0);
}

Span make_span(const char* name, double start, double end, bool library,
               std::uint32_t thread = 1) {
  Span s;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.library = library;
  s.thread = thread;
  return s;
}

TEST(SelfTime, NestedChildrenAreSubtractedOnlyThroughTheirParent) {
  std::vector<Span> spans{make_span("a", 0, 100, false),
                          make_span("b", 10, 50, false),
                          make_span("c", 20, 30, false),
                          make_span("d", 60, 70, false),
                          make_span("other-thread", 0, 100, false, 2)};
  link_spans(spans);
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] = self[i];
  EXPECT_DOUBLE_EQ(by_name["a"], 50.0);   // minus b (40) and d (10)
  EXPECT_DOUBLE_EQ(by_name["b"], 30.0);   // minus c
  EXPECT_DOUBLE_EQ(by_name["c"], 10.0);
  EXPECT_DOUBLE_EQ(by_name["other-thread"], 100.0);  // threads never nest
}

TEST(LinkSpans, DropsTheLibrarySpanThatRepeatsTheWrappedCall) {
  std::vector<Span> spans{make_span("freq_cap.find", 0, 100, false),
                          make_span("freq_cap.find", 1, 99, true),
                          make_span("thermal.solve_steady", 10, 20, true)};
  link_spans(spans);
  ASSERT_EQ(spans.size(), 2u);
  std::size_t solve = spans[0].library ? 0 : 1;
  EXPECT_STREQ(spans[solve].name, "thermal.solve_steady");
  ASSERT_GE(spans[solve].parent, 0);
  EXPECT_FALSE(spans[static_cast<std::size_t>(spans[solve].parent)].library);
  EXPECT_TRUE(has_ancestor(spans, solve, "freq_cap.find"));
}

bool same_ops(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].kind != b[i].kind ||
        a[i].key != b[i].key) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, IsDeterministicPerSeed) {
  EXPECT_TRUE(same_ops(make_schedule(7, 5.0), make_schedule(7, 5.0)));
  EXPECT_FALSE(same_ops(make_schedule(7, 5.0), make_schedule(8, 5.0)));
  EXPECT_EQ(prewarm_keys(), prewarm_keys());
  EXPECT_EQ(prewarm_keys().size(), freq_keys().size() / 2);
}

TEST(Schedule, HasTheStatedRateAndMix) {
  EXPECT_EQ(freq_keys().size(), 360u);
  EXPECT_EQ(npb_keys().size(), 54u);
  const std::vector<Op> ops = make_schedule(11, 40.0);
  // 150/s over 40 s: 6000 expected, Poisson sd ~77.
  EXPECT_NEAR(static_cast<double>(ops.size()), kRatePerS * 40.0, 400.0);
  std::size_t freq = 0;
  std::size_t npb = 0;
  double last = 0.0;
  std::vector<std::size_t> hits(freq_keys().size(), 0);
  for (const Op& op : ops) {
    EXPECT_GE(op.due_s, last);
    EXPECT_LT(op.due_s, 40.0);
    last = op.due_s;
    if (op.kind == OpKind::kFreqCap) {
      ++freq;
      ASSERT_LT(op.key, freq_keys().size());
      ++hits[op.key];
    }
    if (op.kind == OpKind::kNpb) {
      ++npb;
      EXPECT_LT(op.key, npb_keys().size());
    }
  }
  const double n = static_cast<double>(ops.size());
  EXPECT_NEAR(static_cast<double>(freq) / n, 0.85, 0.03);
  EXPECT_NEAR(static_cast<double>(npb) / n, 0.10, 0.03);
  // Skewed: the most popular key draws far more than a uniform share.
  const std::size_t top = *std::max_element(hits.begin(), hits.end());
  EXPECT_GT(static_cast<double>(top), 10.0 * static_cast<double>(freq) / 360.0);
}

TEST(Schedule, BuildsWireRequests) {
  const std::vector<Op> ops = make_schedule(3, 2.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const aqua::service::Request r = make_request(ops[i], i + 1);
    EXPECT_EQ(r.id, i + 1);
    if (ops[i].kind == OpKind::kPing) {
      EXPECT_EQ(r.op, aqua::service::Request::Op::kPing);
    } else {
      EXPECT_EQ(r.op, aqua::service::Request::Op::kSubmit);
      EXPECT_EQ(r.family, ops[i].kind == OpKind::kFreqCap ? "freq_cap" : "npb_des");
    }
  }
  EXPECT_EQ(render_freq_reply({{"feasible", 1.0}, {"ghz", 1.6000000001}}), "1.6");
  EXPECT_EQ(render_freq_reply({{"feasible", 0.0}}), "-");
}

TEST(OutputCheck, AcceptsIdenticalTablesAndRejectsADoctoredOne) {
  const Tables golden = parse_tables(
      "## fig07\n| chips | air |\n|     1 | 2.0 |\n|     2 | 1.7 |\n"
      "## fig08\n| chips | air |\n|     1 | 3.6 |\n");
  EXPECT_EQ(format_tables(parse_tables(format_tables(golden))),
            format_tables(golden));
  EXPECT_TRUE(diff_tables(golden, golden).empty());

  Tables doctored = golden;
  doctored["fig07"] = "| chips | air |\n|     1 | 2.0 |\n|     2 | 1.8 |\n";
  const std::vector<Mismatch> diff = diff_tables(golden, doctored);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].section, "fig07");
  EXPECT_EQ(diff[0].line, 3u);
  EXPECT_EQ(diff[0].expected, "|     2 | 1.7 |");
  EXPECT_EQ(diff[0].actual, "|     2 | 1.8 |");

  Tables missing = golden;
  missing.erase("fig08");
  EXPECT_EQ(diff_tables(golden, missing).size(), 2u);
  Tables extra = golden;
  extra["fig99"] = "x\n";
  EXPECT_EQ(diff_tables(golden, extra).size(), 1u);
}

TEST(OutputCheck, SelectsSectionsBySuffix) {
  const Tables t{{"fig10.caps", "a\n"}, {"fig10.times", "b\n"}, {"fig13.caps", "c\n"}};
  const Tables caps = select(t, ".caps");
  EXPECT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps.count("fig10.times"), 0u);
}

}  // namespace
}  // namespace perfbench
