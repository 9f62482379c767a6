#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_reader.hpp"

// Allocation probe for the disabled-hot-path regression test: the
// replacement operator new counts every allocation in the process. The
// counter is relaxed-atomic so the probe itself stays allocation-free.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace aqua::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

const TraceEvent* find_event(const std::vector<TraceEvent>& events,
                             const char* name) {
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == name) return &e;
  }
  return nullptr;
}

TEST_F(TraceTest, RecordsNestedSpansWithinParentInterval) {
  {
    AQUA_TRACE_SCOPE_C("outer", "test");
    {
      AQUA_TRACE_SCOPE_C("inner", "test");
    }
  }
  const std::vector<TraceEvent> events = Tracer::instance().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = find_event(events, "outer");
  const TraceEvent* inner = find_event(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  // The inner span's interval sits inside the outer one.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndAllSpansAreCollected) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        AQUA_TRACE_SCOPE_ARG("worker.span", "test", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Threads have exited: their buffers were retired into the tracer, so
  // every span must still be visible (flush-on-shutdown behaviour).
  const std::vector<TraceEvent> events = Tracer::instance().snapshot_events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, ToJsonIsValidChromeTraceFormat) {
  {
    AQUA_TRACE_SCOPE_ARG("json.span", "test", 42);
  }
  {
    AQUA_TRACE_SCOPE("plain");
  }
  const std::string json = Tracer::instance().to_json();
  const JsonValue root = parse_json(json);  // throws on malformed output
  const std::vector<ParsedTraceEvent> events = trace_events_of(root);
  ASSERT_EQ(events.size(), 2u);
  const ParsedTraceEvent* with_arg = nullptr;
  const ParsedTraceEvent* plain = nullptr;
  for (const ParsedTraceEvent& e : events) {
    if (e.name == "json.span") with_arg = &e;
    if (e.name == "plain") plain = &e;
  }
  ASSERT_NE(with_arg, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(with_arg->phase, "X");
  EXPECT_EQ(with_arg->category, "test");
  EXPECT_TRUE(with_arg->has_arg);
  EXPECT_EQ(with_arg->arg, 42);
  EXPECT_EQ(plain->category, "aqua");
  EXPECT_FALSE(plain->has_arg);
  EXPECT_GE(plain->dur_us, 0.0);
}

TEST_F(TraceTest, ClearDropsEverything) {
  {
    AQUA_TRACE_SCOPE("to.be.dropped");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST(TraceDisabledTest, EmitsNothingAndNeverAllocates) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();

  // Warm up the thread-local buffer bookkeeping outside the measurement.
  {
    AQUA_TRACE_SCOPE("warmup");
  }

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    AQUA_TRACE_SCOPE_ARG("disabled.span", "test", i);
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before)
      << "disabled trace scopes must not allocate";
  EXPECT_EQ(tracer.event_count(), 0u);
}

// parse_json reads untrusted input (service frames): nesting is capped at
// kMaxJsonDepth levels, for arrays and objects alike, with a parse error
// rather than unbounded recursion beyond it.
TEST(JsonReaderTest, NestingIsCappedAtMaxDepth) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"a\":";
    text += "1";
    return text + std::string(depth, '}');
  };
  ASSERT_EQ(kMaxJsonDepth, 64u);
  EXPECT_TRUE(parse_json(arrays(kMaxJsonDepth)).is_array());
  EXPECT_TRUE(parse_json(objects(kMaxJsonDepth)).is_object());
  EXPECT_THROW(parse_json(arrays(kMaxJsonDepth + 1)), std::runtime_error);
  EXPECT_THROW(parse_json(objects(kMaxJsonDepth + 1)), std::runtime_error);
  // Depth counts open containers, not total ones: siblings do not add up.
  std::string wide = "[" + arrays(kMaxJsonDepth - 1);
  for (int i = 0; i < 200; ++i) {
    wide += ',';
    wide += arrays(kMaxJsonDepth - 1);
  }
  wide += ']';
  EXPECT_TRUE(parse_json(wide).is_array());
  EXPECT_THROW(parse_json(std::string(1u << 20, '[')), std::runtime_error);
}

TEST(TracePathTest, SetPathMarksExplicit) {
  Tracer& tracer = Tracer::instance();
  const std::string original = tracer.path();
  tracer.set_path("/tmp/aqua_trace_test_explicit.json");
  EXPECT_TRUE(tracer.has_explicit_path());
  EXPECT_EQ(tracer.path(), "/tmp/aqua_trace_test_explicit.json");
  tracer.set_path(original);
}

}  // namespace
}  // namespace aqua::obs
