#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace_reader.hpp"

namespace aqua::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(GaugeTest, ConcurrentAddsDoNotLoseUpdates) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kAdds);
}

TEST(HistogramTest, BucketMath) {
  Histogram h({1.0, 2.0, 4.0});
  // Buckets: (-inf,1], (1,2], (2,4], (4,+inf)
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // bucket 3 (+inf)
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 1u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.mean(), 107.0 / 5.0);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket 0
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket 1
  // Median falls exactly at the first bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // p75 sits halfway through the (10, 20] bucket.
  EXPECT_NEAR(h.quantile(0.75), 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, OverflowBucketQuantileReportsFloor) {
  Histogram h({1.0});
  h.observe(50.0);
  h.observe(60.0);
  // Everything overflowed: the +inf bucket cannot interpolate, so the
  // quantile reports its finite floor.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
}

TEST(HistogramTest, PercentilesOnUnitUniformDistribution) {
  // One observation per unit bucket 1..100: the interpolated percentile
  // lands exactly on the matching value.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
}

TEST(HistogramTest, PercentilesOnSkewedDistribution) {
  // 90 fast observations, 10 slow ones two decades up — the tail
  // percentiles must land inside the slow bucket, interpolated linearly.
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0 / 90.0);  // inside (0, 1]
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 55.0);  // halfway into (10, 100]
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 91.0);  // 90% into (10, 100]
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, ExponentialBounds) {
  const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.registry.same");
  Counter& b = reg.counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(RegistryTest, KindMismatchThrows) {
  Registry& reg = Registry::instance();
  reg.counter("test.registry.kind");
  EXPECT_THROW(reg.gauge("test.registry.kind"), std::logic_error);
  EXPECT_THROW(reg.histogram("test.registry.kind", {1.0}), std::logic_error);
}

// The per-cell ledger diffs the computing thread's tally around a
// compute, which is exact only if no other thread's work lands in it.
TEST(WorkTallyTest, EachThreadCountsOnlyItsOwnWork) {
  const WorkTally main_before = thread_work();
  constexpr std::uint64_t kThreads = 4;
  std::vector<WorkTally> seen(kThreads);
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &seen] {
      const WorkTally before = thread_work();
      for (std::uint64_t i = 0; i < 1000; ++i) {
        thread_work().cg_iterations += t + 1;
        thread_work().des_events += 2;
      }
      seen[t] = thread_work() - before;
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    WorkTally want;
    want.cg_iterations = 1000 * (t + 1);
    want.des_events = 2000;
    EXPECT_EQ(seen[t], want) << "thread " << t;
  }
  EXPECT_EQ(thread_work(), main_before);

  WorkTally sum = seen[0];
  sum += seen[1];
  EXPECT_EQ(sum.cg_iterations, 3000u);
  EXPECT_EQ((sum - seen[1]), seen[0]);
}

TEST(RegistryTest, ToJsonParsesAndContainsInstruments) {
  Registry& reg = Registry::instance();
  reg.counter("test.json.counter").add(9);
  reg.gauge("test.json.gauge").set(1.25);
  Histogram& h = reg.histogram("test.json.histogram", {1.0, 2.0});
  h.observe(0.5);
  h.observe(10.0);

  const JsonValue root = parse_json(reg.to_json());
  ASSERT_TRUE(root.is_object());
  const JsonValue* counter = root.find("test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 9.0);
  const JsonValue* gauge = root.find("test.json.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->number, 1.25);
  const JsonValue* hist = root.find("test.json.histogram");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  const JsonValue* count = hist->find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 2.0);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  EXPECT_EQ(buckets->array.size(), 3u);
}

}  // namespace
}  // namespace aqua::obs
