/// Extension: sweep-service overload drill (DESIGN.md §13). Exercises the
/// daemon core in-process — no sockets faked, real TCP on loopback — and
/// checks the robustness contract end to end:
///
///   1. explicit rejection: a burst against a tiny admission window gets
///      `overloaded` answers (not hangs, not OOM), while a control
///      connection's ping stays answered inline;
///   2. backoff completes: the same cells submitted through the jittered
///      retry policy all land once the queue drains;
///   3. byte identity: Fig. 7 fetched through the service renders the
///      exact table the serial in-process experiment prints — the service
///      is a transport, never a result-changing layer;
///   4. stop under load: stop() during a streaming figure drains within
///      its budget, answers the remainder `shutting_down`, and returns.
///
/// The drill uses the `debug_compute_delay_ms` seam so queue pressure is
/// deterministic on any machine; the identity pass runs undelayed.

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "core/cooling.hpp"
#include "power/chip_model.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Burst: `threads` clients submit distinct cells with no retries against
/// a tiny admission window. Returns (ok, rejected) counts.
std::pair<std::size_t, std::size_t> no_retry_burst(std::uint16_t port,
                                                   std::size_t threads,
                                                   std::size_t per_thread) {
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      aqua::service::RetryPolicy once;
      once.max_attempts = 1;
      once.seed = t + 1;
      aqua::service::SweepClient client("127.0.0.1", port, once);
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::size_t chips = t * per_thread + i + 1;
        try {
          const aqua::service::CellResult cell = client.submit(
              "freq_cap", {{"chip", "high_frequency_cmp"},
                           {"chips", std::to_string(chips)},
                           {"cooling", "water"}});
          if (cell.ok()) ok.fetch_add(1);
        } catch (const aqua::Error&) {
          rejected.fetch_add(1);  // retries (of one) exhausted: overloaded
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return {ok.load(), rejected.load()};
}

/// Same cells, retries on: every submission must eventually land.
std::size_t backoff_burst(std::uint16_t port, std::size_t threads,
                          std::size_t per_thread) {
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      aqua::service::RetryPolicy policy;
      policy.max_attempts = 10;
      policy.seed = 100 + t;
      aqua::service::SweepClient client("127.0.0.1", port, policy);
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::size_t chips = t * per_thread + i + 1;
        const aqua::service::CellResult cell = client.submit(
            "freq_cap", {{"chip", "high_frequency_cmp"},
                         {"chips", std::to_string(chips)},
                         {"cooling", "water"}});
        if (cell.ok()) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return ok.load();
}

/// Rebuilds FreqVsChipsData from streamed figure cells so the table
/// renders through the same freq_vs_chips_table the fig07 driver uses.
aqua::FreqVsChipsData data_from_cells(
    const aqua::service::FigureResult& figure, const std::string& chip_name,
    std::size_t max_chips) {
  aqua::FreqVsChipsData data;
  data.chip_name = chip_name;
  data.max_chips = max_chips;
  const std::vector<aqua::CoolingOption> options =
      aqua::all_cooling_options();
  data.series.resize(options.size());
  for (std::size_t k = 0; k < options.size(); ++k) {
    data.series[k].cooling = options[k].kind();
    data.series[k].ghz.resize(max_chips);
  }
  for (const aqua::service::CellResult& cell : figure.cells) {
    aqua::require(cell.ok(), "figure cell failed: " + cell.message);
    // tag: "chips=N;cooling=name"
    const std::size_t semi = cell.tag.find(';');
    const std::size_t chips =
        static_cast<std::size_t>(std::stoul(cell.tag.substr(6, semi - 6)));
    const std::string cooling = cell.tag.substr(semi + 9);
    const auto feasible = cell.values.find("feasible");
    const auto ghz = cell.values.find("ghz");
    for (std::size_t k = 0; k < options.size(); ++k) {
      if (options[k].name() != cooling) continue;
      if (feasible != cell.values.end() && feasible->second > 0.5 &&
          ghz != cell.values.end()) {
        data.series[k].ghz[chips - 1] = ghz->second;
      }
    }
  }
  return data;
}

/// The server's per-cell latency percentiles (stats keys
/// `<stage>_{p50,p95,p99}_ms`), one line per stage.
void print_latencies(const std::string& label,
                     const std::map<std::string, double>& stats) {
  std::cout << label << " per-cell latency (ms, p50/p95/p99):";
  for (const char* stage : {"queue_wait", "compute", "total"}) {
    const std::string prefix(stage);
    std::cout << " " << prefix << " "
              << aqua::format_double(stats.at(prefix + "_p50_ms"), 2) << "/"
              << aqua::format_double(stats.at(prefix + "_p95_ms"), 2) << "/"
              << aqua::format_double(stats.at(prefix + "_p99_ms"), 2);
  }
  std::cout << "\n";
}

void microbench_protocol_roundtrip(benchmark::State& state) {
  aqua::service::Response response;
  response.op = aqua::service::Response::Op::kResult;
  response.id = 42;
  response.cell = "chip=low_power_cmp;chips=7;cooling=water";
  response.tag = "chips=7;cooling=water";
  response.source = "computed";
  response.values = {{"feasible", 1.0},
                     {"ghz", 1.6},
                     {"max_temperature_c", 71.32409725507512}};
  for (auto _ : state) {
    const std::string frame =
        aqua::service::encode_frame(aqua::service::encode_response(response));
    aqua::service::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    benchmark::DoNotOptimize(
        aqua::service::parse_response(*decoder.next()));
  }
}
BENCHMARK(microbench_protocol_roundtrip);

void microbench_backoff_schedule(benchmark::State& state) {
  const aqua::service::RetryPolicy policy;
  aqua::Xoshiro256 rng(7);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
      total += aqua::service::backoff_delay_ms(policy, attempt, 50, rng);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(microbench_backoff_schedule);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Extension",
                      "sweep service under overload: admission, backoff, "
                      "identity, drain");

  // --- 1+2: admission drill on a deliberately tiny window -----------------
  aqua::service::ServerConfig drill;
  drill.workers = 1;
  drill.queue_high_watermark = 3;
  drill.queue_low_watermark = 1;
  drill.debug_compute_delay_ms = 25;
  drill.sweep_name = "service_drill";
  aqua::service::SweepServer drill_server(drill);
  drill_server.start();

  const std::size_t kThreads = 6;
  const std::size_t kPerThread = 3;

  // Control connection: ping while the burst saturates the queue. The
  // burst runs on its own threads so the ping happens under real load.
  std::pair<std::size_t, std::size_t> burst_counts;
  std::thread burst_thread([&] {
    burst_counts = no_retry_burst(drill_server.port(), kThreads, kPerThread);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto ping_start = Clock::now();
  aqua::service::SweepClient control("127.0.0.1", drill_server.port());
  const bool ping_under_load = control.ping();
  const double ping_seconds = seconds_since(ping_start);
  burst_thread.join();

  const auto [burst_ok, burst_rejected] = burst_counts;
  std::cout << "no-retry burst: " << burst_ok << " served, "
            << burst_rejected << " rejected explicitly (queue high="
            << drill.queue_high_watermark << ", ping under load "
            << (ping_under_load ? "answered" : "LOST") << " in "
            << aqua::format_double(ping_seconds * 1e3, 1) << " ms)\n";
  aqua::require(burst_ok + burst_rejected == kThreads * kPerThread,
                "burst lost submissions");
  aqua::require(burst_rejected > 0,
                "tiny watermark produced no overload rejections");
  aqua::require(ping_under_load, "control ping lost under overload");

  // Same cells with backoff on: all must land (warm ones via the memo).
  const auto retry_start = Clock::now();
  const std::size_t retry_ok =
      backoff_burst(drill_server.port(), kThreads, kPerThread);
  const double retry_seconds = seconds_since(retry_start);
  std::cout << "backoff burst: " << retry_ok << "/" << kThreads * kPerThread
            << " served in " << aqua::format_double(retry_seconds, 2)
            << " s\n";
  aqua::require(retry_ok == kThreads * kPerThread,
                "backoff retries did not complete the burst");

  const std::map<std::string, double> drill_stats =
      drill_server.stats_snapshot();
  drill_server.stop();
  print_latencies("drill", drill_stats);

  // --- 3: byte identity through an undelayed server -----------------------
  aqua::service::ServerConfig serve;
  serve.sweep_name = "service_identity";
  aqua::service::SweepServer figure_server(serve);
  figure_server.start();

  const auto figure_start = Clock::now();
  aqua::service::SweepClient figure_client("127.0.0.1",
                                           figure_server.port());
  const aqua::service::FigureResult fig07 =
      figure_client.submit_figure("fig07");
  const double figure_seconds = seconds_since(figure_start);
  const std::map<std::string, double> figure_stats =
      figure_server.stats_snapshot();
  figure_server.stop();

  std::ostringstream service_table;
  aqua::bench::freq_vs_chips_table(
      data_from_cells(fig07, "low_power_cmp", 14))
      .print(service_table);

  const aqua::FreqVsChipsData golden =
      aqua::frequency_vs_chips(aqua::make_low_power_cmp(), 14);
  std::ostringstream golden_table;
  aqua::bench::freq_vs_chips_table(golden).print(golden_table);

  const bool identical = service_table.str() == golden_table.str();
  std::cout << "fig07 via service: " << fig07.cells.size() << " cells in "
            << aqua::format_double(figure_seconds, 2) << " s, table "
            << (identical ? "byte-identical to the serial experiment"
                          : "DIVERGES from the serial experiment")
            << "\n";
  std::cout << service_table.str();
  aqua::require(identical, "service table diverges from serial golden");
  print_latencies("fig07", figure_stats);

  // --- 4: stop while a figure is streaming --------------------------------
  aqua::service::ServerConfig under_load;
  under_load.workers = 1;
  under_load.debug_compute_delay_ms = 50;
  under_load.drain_timeout_s = 1;
  under_load.sweep_name = "service_drain";
  aqua::service::SweepServer drain_server(under_load);
  drain_server.start();

  std::atomic<std::size_t> streamed{0};
  std::thread load([&] {
    aqua::service::RetryPolicy once;
    once.max_attempts = 1;
    aqua::service::SweepClient client("127.0.0.1", drain_server.port(),
                                      once);
    try {
      streamed.store(client.submit_figure("fig08").cells.size());
    } catch (const aqua::Error&) {
      // Expected: the stream is cut by shutdown; cells before the cut
      // still counted server-side.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto stop_start = Clock::now();
  drain_server.stop();
  const double stop_seconds = seconds_since(stop_start);
  load.join();
  std::cout << "stop() under streaming load returned in "
            << aqua::format_double(stop_seconds, 2)
            << " s (drain budget " << under_load.drain_timeout_s << " s)\n";
  aqua::require(stop_seconds <
                    static_cast<double>(under_load.drain_timeout_s) + 5.0,
                "drain overran its budget: queued work must be flushed at "
                "the timeout, not executed");

  aqua::bench::JsonReport report("service_load");
  report.add("burst_submits", kThreads * kPerThread)
      .add("burst_served", burst_ok)
      .add("burst_rejected", burst_rejected)
      .add("ping_under_load", ping_under_load)
      .add("ping_ms_under_load", ping_seconds * 1e3, 3)
      .add("backoff_served", retry_ok)
      .add("backoff_seconds", retry_seconds, 3)
      .add("drill_rejected_total", drill_stats.at("rejected_overload"))
      .add("drill_single_flight", drill_stats.at("single_flight_hits"))
      .add("figure_cells", fig07.cells.size())
      .add("figure_seconds", figure_seconds, 3)
      .add("table_identical", identical)
      .add("stop_seconds", stop_seconds, 3);
  report.write();
  return aqua::bench::run_microbenchmarks(argc, argv);
}
