/// Scheduling throughput of the discrete-event core. The DES dispatches
/// one event per simulated pipeline step, so schedule+dispatch cost bounds
/// full-system simulation speed. Every EventQueue entry is a plain function
/// pointer with two context pointers and an inline Message — this bench
/// tracks the events/second that buys us and writes the headline number to
/// BENCH_event_queue.json.

#include <chrono>
#include <cstdint>

#include "bench_util.hpp"
#include "perf/event_queue.hpp"

namespace {

/// Self-rescheduling chains: `chains` events are live at any moment, each
/// reschedules itself `hops` times — the DES steady-state access pattern
/// (calendar push + pop + function-pointer dispatch per event). A chain's
/// remaining hop count rides in the event payload.
struct ChainRun {
  aqua::EventQueue q;
  std::uint64_t dispatched = 0;

  static void hop(void* ctx, void*, const aqua::Message& msg) {
    auto* run = static_cast<ChainRun*>(ctx);
    ++run->dispatched;
    aqua::Message next = msg;
    if (--next.line > 0) {
      run->q.schedule_in(1 + next.line % 3, &ChainRun::hop, run, nullptr,
                         next);
    }
  }
};

std::uint64_t run_chains(std::size_t chains, std::uint64_t hops) {
  ChainRun run;
  aqua::Message m;
  m.line = hops;
  for (std::size_t c = 0; c < chains; ++c) {
    run.q.schedule(c % 7, &ChainRun::hop, &run, nullptr, m);
  }
  run.q.run();
  return run.dispatched;
}

void microbench_schedule_dispatch(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  std::uint64_t total = 0;
  for (auto _ : state) {
    total += run_chains(chains, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(microbench_schedule_dispatch)->Arg(16)->Arg(256)->Arg(4096);

/// Pure schedule-then-drain of independent events (no rescheduling).
void microbench_bulk_drain(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::uint64_t total = 0;
  for (auto _ : state) {
    aqua::EventQueue q;
    std::uint64_t hits = 0;
    const auto hit = [](void* ctx, void*, const aqua::Message&) {
      ++*static_cast<std::uint64_t*>(ctx);
    };
    for (std::size_t i = 0; i < events; ++i) {
      q.schedule(i % 97, hit, &hits, nullptr, aqua::Message{});
    }
    q.run();
    total += hits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(microbench_bulk_drain)->Arg(1024)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("EventQueue", "DES scheduling throughput");

  using Clock = std::chrono::steady_clock;
  const std::size_t kChains = 1024;
  const std::uint64_t kHops = 512;
  const auto t0 = Clock::now();
  const std::uint64_t dispatched = run_chains(kChains, kHops);
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const double rate = seconds > 0.0 ? static_cast<double>(dispatched) / seconds
                                    : 0.0;

  aqua::Table t({"chains", "hops", "events", "seconds", "events_per_sec"});
  t.row()
      .add_int(static_cast<long long>(kChains))
      .add_int(static_cast<long long>(kHops))
      .add_int(static_cast<long long>(dispatched))
      .add(seconds, 4)
      .add(rate, 0);
  t.print(std::cout);

  aqua::bench::JsonReport report("event_queue");
  report.add("chains", kChains);
  report.add("hops", static_cast<std::int64_t>(kHops));
  report.add("events_dispatched", static_cast<std::int64_t>(dispatched));
  report.add("seconds", seconds, 4);
  report.add("events_per_second", rate, 0);
  report.write();

  return aqua::bench::run_microbenchmarks(argc, argv);
}
