/// service_mix: an in-process SweepServer with 4 workers on loopback TCP,
/// its cache in a fresh directory holding the pre-warmed half of the
/// freq_cap keys, driven open loop by one load-generator process at a
/// fixed Poisson rate. Service framing, admission, the runner's
/// single-flight memo, and the cache's read path (pre-warmed keys) and
/// write path (cold keys) carry the latency.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "proc.hpp"
#include "schedule.hpp"
#include "service/evaluator.hpp"
#include "stats.hpp"
#include "sweep/cache.hpp"
#include "sweep/task_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kLatencyLimitMs = 250.0;

struct Record {
  std::size_t index = 0;
  char kind = 'p';
  std::uint32_t key = 0;
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double recv_ms = -1.0;
  std::string source;
  std::string status;
  std::string value;
};

std::vector<Record> read_records(const std::string& path) {
  std::vector<Record> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Record r;
    fields >> r.index >> r.kind >> r.key >> r.due_ms >> r.sent_ms >> r.recv_ms >>
        r.source >> r.status >> r.value;
    if (fields) records.push_back(r);
  }
  return records;
}

std::map<std::string, double> parse_summary(const std::string& text) {
  std::map<std::string, double> summary;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    const std::size_t eq = word.find('=');
    if (eq != std::string::npos) {
      summary[word.substr(0, eq)] = std::stod(word.substr(eq + 1));
    }
  }
  return summary;
}

/// Expected rendered reply per key name (perfbench/golden/service.txt).
std::map<std::string, std::string> load_expected(const RunOptions& options) {
  std::map<std::string, std::string> expected;
  std::ifstream in(golden_file(options, "service.txt"));
  std::string name;
  std::string value;
  while (in >> name >> value) expected[name] = value;
  return expected;
}

std::string format_number(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// One server lifetime driven by one generator process.
struct Phase {
  std::vector<Record> records;
  std::map<std::string, double> gen;     ///< the generator's summary
  std::map<std::string, double> server;  ///< SweepServer::stats_snapshot
  aqua::sweep::SweepCache::Stats cache;
  Counters counters;
  double cpu_s = 0.0;
};

Phase run_phase(const RunOptions& options, const std::string& prewarm_dir,
                double seconds, const std::string& tag) {
  Phase phase;
  const Counters before = Counters::read();
  std::unique_ptr<aqua::service::SweepServer> server = service_setup(
      prewarm_dir, (fs::path(options.workdir) / ("cache-" + tag)).string(),
      options.workers);
  const std::string records =
      (fs::path(options.workdir) / ("records-" + tag + ".txt")).string();
  const double cpu0 = cpu_seconds();
  const ChildResult gen = run_self(
      {"--mode", "loadgen", "--port", std::to_string(server->port()), "--seed",
       std::to_string(options.seed), "--seconds", format_number(seconds),
       "--out", records});
  phase.cpu_s = cpu_seconds() - cpu0;
  phase.server = server->stats_snapshot();
  phase.cache = aqua::sweep::SweepCache::instance().stats();
  server->stop();
  server.reset();
  phase.counters = Counters::read() - before;
  aqua::sweep::SweepCache::instance().configure("");
  if (gen.exit_code != 0) {
    throw aqua::Error("load generator exited with " +
                      std::to_string(gen.exit_code));
  }
  phase.gen = parse_summary(gen.out);
  phase.records = read_records(records);
  return phase;
}

struct Latencies {
  std::vector<double> all;
  std::vector<double> cache;
  std::vector<double> memo;
  std::vector<double> computed;
  std::vector<double> ping;
  std::vector<double> late;
};

/// Checks every reply against the golden values and sorts the latencies
/// (from each op's due time) by the reply's source.
Latencies analyze(const Phase& phase,
                  const std::map<std::string, std::string>& expected,
                  const std::string& what, Report& report) {
  Latencies lat;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::string first_problem;
  for (const Record& r : phase.records) {
    report.attempted += 1;
    lat.late.push_back(r.sent_ms - r.due_ms);
    if (r.status != "ok") {
      ++errors;
      if (first_problem.empty()) first_problem = "op " + std::to_string(r.index) + " answered " + r.status;
      continue;
    }
    std::string want = "pong";
    if (r.kind == static_cast<char>(OpKind::kFreqCap)) {
      const auto it = expected.find(key_name(freq_keys()[r.key]));
      want = it == expected.end() ? "?" : it->second;
    } else if (r.kind == static_cast<char>(OpKind::kNpb)) {
      const auto it = expected.find(key_name(npb_keys()[r.key]));
      want = it == expected.end() ? "?" : it->second;
    }
    if (r.value != want) {
      ++wrong;
      if (first_problem.empty()) {
        first_problem = "op " + std::to_string(r.index) + " returned " +
                        r.value + ", expected " + want;
      }
      continue;
    }
    const double ms = r.recv_ms - r.due_ms;
    lat.all.push_back(ms);
    if (r.source == "cache") lat.cache.push_back(ms);
    if (r.source == "single_flight") lat.memo.push_back(ms);
    if (r.source == "computed") lat.computed.push_back(ms);
    if (r.source == "pong") lat.ping.push_back(ms);
  }
  report.failed += errors + wrong;
  if (errors + wrong > 0) {
    report.fail(what + ": " + std::to_string(errors) + " error(s), " +
                std::to_string(wrong) + " wrong output(s); " + first_problem);
  }
  if (phase.gen.count("backlog_growing") && phase.gen.at("backlog_growing") > 0) {
    report.fail(what + ": the backlog grew through the run, so the rate is "
                "not sustainable and the run is invalid");
  }
  if (phase.gen.count("timed_out") && phase.gen.at("timed_out") > 0) {
    report.fail(what + ": replies still missing 30 s after the last send");
  }
  return lat;
}

double stat(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double cpu_per_request(const Phase& phase) {
  return phase.cpu_s /
         static_cast<double>(std::max<std::size_t>(1, phase.records.size()));
}

std::string prewarm(const RunOptions& options, Report& report) {
  const std::string dir = (fs::path(options.workdir) / "prewarm").string();
  const ChildResult child =
      run_self({"--mode", "prewarm", "--seed", std::to_string(options.seed),
                "--out", dir});
  if (child.exit_code != 0) report.fail("pre-warm failed: " + child.out);
  return dir;
}

}  // namespace

int prewarm_main(const RunOptions& options,
                 const std::map<std::string, std::string>& args) {
  const std::string dir = args.at("out");
  fs::create_directories(dir);
  fs::remove(fs::path(dir) / aqua::sweep::SweepCache::kFileName);
  batch_setup(options.workers);
  aqua::sweep::SweepCache::instance().configure(dir);
  aqua::sweep::SweepRunner runner("service");
  const std::vector<std::uint32_t> keys = prewarm_keys();
  std::atomic<std::size_t> failed{0};
  aqua::sweep::dispatch_cells(keys.size(), [&](std::size_t i) {
    const aqua::service::CellJob job = aqua::service::make_cell_job(
        "freq_cap", freq_params(freq_keys()[keys[i]]));
    const aqua::sweep::CellSource src =
        runner.run(job.config, job.cell, job.policy, job.compute,
                   [](const std::map<std::string, double>&) {});
    if (src != aqua::sweep::CellSource::kComputed) failed.fetch_add(1);
  });
  aqua::sweep::SweepCache::instance().configure("");
  std::cout << "prewarmed " << keys.size() - failed.load() << " of "
            << keys.size() << "\n";
  return failed.load() == 0 ? 0 : 1;
}

int write_goldens(const RunOptions& options) {
  batch_setup(options.workers);
  const fs::path dir = fs::path(options.root) / "perfbench" / "golden";
  fs::create_directories(dir);
  save_tables((dir / "freqcap.txt").string(), freqcap_golden_tables());
  save_tables((dir / "npb.txt").string(), npb_golden_tables());

  const std::size_t nf = freq_keys().size();
  std::vector<std::string> lines(nf + npb_keys().size());
  aqua::sweep::dispatch_cells(lines.size(), [&](std::size_t i) {
    if (i < nf) {
      const FreqKey& key = freq_keys()[i];
      const auto values =
          aqua::service::make_cell_job("freq_cap", freq_params(key)).compute();
      lines[i] = key_name(key) + " " + render_freq_reply(values);
    } else {
      const NpbKey& key = npb_keys()[i - nf];
      const auto values =
          aqua::service::make_cell_job("npb_des", npb_params(key)).compute();
      lines[i] = key_name(key) + " " + render_npb_reply(values);
    }
  });
  std::ofstream out(dir / "service.txt");
  for (const std::string& line : lines) out << line << "\n";
  std::cout << "wrote " << dir.string() << "\n";
  return 0;
}

Report run_service_mix(const RunOptions& options) {
  Report report;
  const std::string prewarm_dir = prewarm(options, report);
  const std::map<std::string, std::string> expected = load_expected(options);
  if (expected.empty()) report.fail("missing perfbench/golden/service.txt");

  if (!options.trace) {
    const double setup_s =
        measure_setup(options, report, {"--prewarm-dir", prewarm_dir});
    const Phase phase = run_phase(options, prewarm_dir, options.seconds, "run");
    const Latencies lat = analyze(phase, expected, "service", report);
    const Tail p99 = tail_percentile(lat.all);
    report.metrics = {{"setup_s", setup_s},
                      {"wall_s", stat(phase.gen, "wall_s")},
                      {"cpu_s", phase.cpu_s},
                      {"peak_rss_mb", peak_rss_mb()},
                      {"latency_p99_ms", p99.value}};
    report_end_to_end(report, percentile(lat.all, 50.0));
    std::ostringstream os;
    os << (p99.value <= kLatencyLimitMs ? "PASS" : "MISS")
       << " latency limit p99 <= " << kLatencyLimitMs << " ms at " << kRatePerS
       << " req/s (tail percentile p" << p99.percentile << " of "
       << p99.samples << " replies, " << stat(phase.gen, "outstanding_max")
       << " outstanding at most, generator late p99 "
       << stat(phase.gen, "late_p99_ms") << " ms)";
    report.note(os.str());
    if (report.correct) {
      report.note("PASS every reply matches perfbench/golden/service.txt");
    }
    return report;
  }

  // Traced: the same schedule twice, half the time each, on fresh servers
  // and cache copies — untraced first, then with spans on.
  const Phase plain = run_phase(options, prewarm_dir, options.seconds / 2.0, "plain");
  analyze(plain, expected, "untraced phase", report);
  LayerInputs in;
  in.workers = options.workers;
  begin_trace();
  const Phase traced = run_phase(options, prewarm_dir, options.seconds / 2.0, "traced");
  collect_trace(in.spans);
  end_trace();
  const Latencies lat = analyze(traced, expected, "traced phase", report);
  for (const char* key : {"computed", "cache_hits", "accepted"}) {
    if (stat(plain.server, key) != stat(traced.server, key)) {
      report.fail(std::string("traced ") + key + " differs from the untraced phase");
    }
  }
  if (plain.counters.des_events != traced.counters.des_events) {
    report.fail("traced DES events differ from the untraced phase");
  }
  // One untraced phase gives no run-to-run range; the server's
  // thread-local finders warm-start in arrival order, so allow 10%.
  check_within_spread("CG iterations",
                      {static_cast<double>(plain.counters.cg_iterations)},
                      {static_cast<double>(traced.counters.cg_iterations)}, 0.10,
                      report);
  in.counters = traced.counters;
  in.memo_hits = stat(traced.server, "single_flight_hits");
  finish_spans(options, in.spans);
  std::map<std::string, double> layers = layer_metrics(in);
  layers["sweep.cells"] = stat(traced.server, "computed") +
                          stat(traced.server, "cache_hits") +
                          stat(traced.server, "single_flight_hits");
  layers["cache.hits"] = static_cast<double>(traced.cache.hits);
  layers["cache.misses"] = static_cast<double>(traced.cache.misses);
  layers["cache.stores"] = static_cast<double>(traced.cache.stores);
  layers["cache.hit_ratio"] =
      static_cast<double>(traced.cache.hits) /
      static_cast<double>(std::max<std::uint64_t>(1, traced.cache.hits + traced.cache.misses));
  layers["service.lat_cache.p50_ms"] = percentile(lat.cache, 50.0);
  layers["service.lat_memo.p50_ms"] = percentile(lat.memo, 50.0);
  layers["service.lat_computed.p50_ms"] = percentile(lat.computed, 50.0);
  layers["service.lat_computed.p99_ms"] = tail_percentile(lat.computed).value;
  layers["service.ping.p99_ms"] = tail_percentile(lat.ping).value;
  layers["service.accepted"] = stat(traced.server, "accepted");
  layers["service.rejected_overload"] = stat(traced.server, "rejected_overload");
  layers["loadgen.late.p99_ms"] = stat(traced.gen, "late_p99_ms");
  layers["loadgen.outstanding.max"] = stat(traced.gen, "outstanding_max");
  // Server CPU per request: both phases serve the same schedule and
  // compute the same cold keys, so the difference is what tracing adds.
  layers["trace.overhead_pct"] =
      (cpu_per_request(traced) / cpu_per_request(plain) - 1.0) * 100.0;
  report_layers(layers, report);
  return report;
}

}  // namespace perfbench
