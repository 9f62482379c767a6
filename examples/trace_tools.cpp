/// Trace tools: capture a synthetic NPB workload to a portable text trace,
/// replay it bit-exactly, run your own hand-written trace — and inspect the
/// Chrome trace-event JSON files the obs layer writes under AQUA_TRACE=1.
///
///   $ ./build/examples/trace_tools capture cg 4 /tmp/cg.trace
///   $ ./build/examples/trace_tools replay /tmp/cg.trace 2.0
///   $ ./build/examples/trace_tools summarize [--json] TRACE_aqua.json
///   $ ./build/examples/trace_tools summarize --faults REPORT_aqua.jsonl
///   $ ./build/examples/trace_tools timeline [--json] TRACE_aqua.json
///   $ ./build/examples/trace_tools critical-path [--json] TRACE_aqua.json
///   $ ./build/examples/trace_tools perf-gate BENCH_x.json bench/baselines
///   $ ./build/examples/trace_tools merge out.json a.json b.json
///   $ ./build/examples/trace_tools check TRACE_aqua.json
///   $ ./build/examples/trace_tools cache /path/to/cache-dir
///
/// Replaying a captured trace reproduces the synthetic run cycle-for-cycle
/// — the regression-pinning workflow for simulator changes. `summarize`
/// prints a per-span wall-time table, `merge` concatenates several trace
/// files into one Chrome-loadable file, and `check` validates a file parses
/// as trace-event JSON (exit 1 malformed, exit 2 missing — the CI gate).
/// `cache` summarizes AQUA_SWEEP_CACHE files (a directory argument means
/// its sweep_cache.jsonl): valid entries, duplicates, corrupt lines and
/// stale-salt records, broken down per sweep family.
///
/// The flight-recorder commands read a trace recorded with AQUA_TRACE=1:
/// `timeline` prints per-worker utilization, task mix and steal balance;
/// `critical-path` prints the strict-chain serial floor — the wall time an
/// infinite-worker engine could not beat. `perf-gate` compares a fresh
/// BENCH_*.json against committed baseline runs (median-of-k, noise-aware
/// per-kind thresholds; see obs/bench_compare.hpp) and exits 1 on
/// regression — the CI perf gate. EXPERIMENTS.md walks the workflow.

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/bench_compare.hpp"
#include "obs/json_writer.hpp"
#include "obs/trace_reader.hpp"
#include "perf/system.hpp"
#include "sweep/cache.hpp"

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tools capture <npb> <threads> <file>\n"
            << "  trace_tools replay <file> <ghz>\n"
            << "  trace_tools summarize [--json] <trace.json>...\n"
            << "  trace_tools summarize --faults <report.jsonl>...\n"
            << "  trace_tools summarize --service <report.jsonl>...\n"
            << "  trace_tools timeline [--json] <trace.json>...\n"
            << "  trace_tools critical-path [--json] <trace.json>...\n"
            << "  trace_tools perf-gate [--json] [--time-threshold X]\n"
            << "      [--work-threshold Y] <fresh.json> <baseline-dir-or-"
               "json>...\n"
            << "  trace_tools merge <out.json> <trace.json>...\n"
            << "  trace_tools check <trace.json>...\n"
            << "  trace_tools cache <dir-or-file>...\n";
  return 2;
}

/// `cache`: lenient inspection of sweep-cache files. A directory argument
/// resolves to its sweep_cache.jsonl. Missing paths fail (typo guard);
/// corrupt or stale lines only report — the loader skips them at runtime.
int run_cache(int argc, char** argv) {
  if (argc < 3) return usage();
  bool ok = true;
  aqua::Table table({"file", "entries", "records", "bad lines", "stale salt"});
  std::map<std::string, std::size_t> per_sweep;
  for (int i = 2; i < argc; ++i) {
    std::filesystem::path path = argv[i];
    if (std::filesystem::is_directory(path)) {
      path /= aqua::sweep::SweepCache::kFileName;
    }
    if (!std::filesystem::exists(path)) {
      std::cerr << path.string() << ": FAIL (no such file)\n";
      ok = false;
      continue;
    }
    const aqua::sweep::CacheFileSummary s =
        aqua::sweep::inspect_cache_file(path.string());
    table.row()
        .add(path.string())
        .add_int(static_cast<long long>(s.entries))
        .add_int(static_cast<long long>(s.records))
        .add_int(static_cast<long long>(s.bad_lines))
        .add_int(static_cast<long long>(s.stale_salt));
    for (const auto& [sweep, count] : s.per_sweep) per_sweep[sweep] += count;
  }
  table.print(std::cout);
  if (!per_sweep.empty()) {
    std::cout << "\n";
    aqua::Table breakdown({"sweep family", "entries"});
    for (const auto& [sweep, count] : per_sweep) {
      breakdown.row().add(sweep).add_int(static_cast<long long>(count));
    }
    breakdown.print(std::cout);
  }
  return ok ? 0 : 1;
}

/// Loads every file's events into one list; dies with the parse error.
std::vector<aqua::obs::ParsedTraceEvent> load_all(int argc, char** argv,
                                                  int first) {
  std::vector<aqua::obs::ParsedTraceEvent> events;
  for (int i = first; i < argc; ++i) {
    std::vector<aqua::obs::ParsedTraceEvent> part =
        aqua::obs::load_trace_file(argv[i]);
    events.insert(events.end(), part.begin(), part.end());
  }
  return events;
}

/// Consumes a leading `--json` flag (shared by the analysis subcommands).
bool eat_json_flag(int& first, int argc, char** argv) {
  if (first < argc && std::string(argv[first]) == "--json") {
    ++first;
    return true;
  }
  return false;
}

int run_summarize(int argc, char** argv) {
  int first = 2;
  const bool json = eat_json_flag(first, argc, argv);
  if (first >= argc) return usage();
  const auto events = load_all(argc, argv, first);
  const auto spans = aqua::obs::summarize_spans(events);
  if (json) {
    std::cout << "{\"events\": " << events.size() << ", \"spans\": [";
    bool comma = false;
    for (const aqua::obs::SpanSummary& s : spans) {
      aqua::obs::JsonWriter w;
      w.add("name", s.name)
          .add("category", s.category)
          .add("count", static_cast<std::uint64_t>(s.count))
          .add("total_us", s.total_us)
          .add("mean_us",
               s.count ? s.total_us / static_cast<double>(s.count) : 0.0)
          .add("min_us", s.min_us)
          .add("max_us", s.max_us);
      std::cout << (comma ? "," : "") << w.str();
      comma = true;
    }
    std::cout << "]}\n";
    return 0;
  }
  aqua::Table table({"span", "category", "count", "total ms", "mean us",
                     "min us", "max us"});
  for (const aqua::obs::SpanSummary& s : spans) {
    table.row()
        .add(s.name)
        .add(s.category)
        .add_int(static_cast<long long>(s.count))
        .add(s.total_us / 1e3)
        .add(s.count ? s.total_us / static_cast<double>(s.count) : 0.0)
        .add(s.min_us)
        .add(s.max_us);
  }
  table.print(std::cout);
  std::cout << events.size() << " events, " << spans.size()
            << " distinct spans\n";
  return 0;
}

/// `timeline`: per-worker utilization, task mix and steal balance from the
/// flight recorder's engine.task.* spans.
int run_timeline(int argc, char** argv) {
  int first = 2;
  const bool json = eat_json_flag(first, argc, argv);
  if (first >= argc) return usage();
  const auto events = load_all(argc, argv, first);
  const aqua::obs::TimelineSummary t =
      aqua::obs::summarize_worker_timeline(events);
  if (json) {
    std::cout << "{\"window_us\": " << aqua::obs::json_number(t.window_us)
              << ", \"tasks\": " << t.tasks << ", \"steals\": " << t.steals
              << ", \"claims\": " << t.claims << ", \"workers\": [";
    bool comma = false;
    for (const aqua::obs::WorkerTimelineRow& w : t.workers) {
      aqua::obs::JsonWriter row;
      row.add("worker", static_cast<std::uint64_t>(w.worker))
          .add("tasks", static_cast<std::uint64_t>(w.tasks))
          .add("strict", static_cast<std::uint64_t>(w.strict))
          .add("loose", static_cast<std::uint64_t>(w.loose))
          .add("unpinned", static_cast<std::uint64_t>(w.unpinned))
          .add("stolen", static_cast<std::uint64_t>(w.stolen))
          .add("lifo", static_cast<std::uint64_t>(w.lifo))
          .add("steals_in", static_cast<std::uint64_t>(w.steals_in))
          .add("steals_out", static_cast<std::uint64_t>(w.steals_out))
          .add("busy_us", w.busy_us)
          .add("idle_us", w.idle_us)
          .add("longest_gap_us", w.longest_gap_us)
          .add("utilization", w.utilization);
      std::cout << (comma ? "," : "") << row.str();
      comma = true;
    }
    std::cout << "]}\n";
    return 0;
  }
  if (t.tasks == 0) {
    std::cout << "no engine.task.* spans found — record with AQUA_TRACE=1 "
                 "and AQUA_SWEEP_WORKERS>=1\n";
    return 0;
  }
  aqua::Table table({"worker", "tasks", "strict", "loose", "unpinned",
                     "stolen", "lifo", "steals out", "busy ms", "idle ms",
                     "max gap ms", "util %"});
  for (const aqua::obs::WorkerTimelineRow& w : t.workers) {
    table.row()
        .add_int(static_cast<long long>(w.worker))
        .add_int(static_cast<long long>(w.tasks))
        .add_int(static_cast<long long>(w.strict))
        .add_int(static_cast<long long>(w.loose))
        .add_int(static_cast<long long>(w.unpinned))
        .add_int(static_cast<long long>(w.stolen))
        .add_int(static_cast<long long>(w.lifo))
        .add_int(static_cast<long long>(w.steals_out))
        .add(w.busy_us / 1e3)
        .add(w.idle_us / 1e3)
        .add(w.longest_gap_us / 1e3)
        .add(100.0 * w.utilization, 1);
  }
  table.print(std::cout);
  std::cout << t.tasks << " tasks over " << t.window_us / 1e3 << " ms on "
            << t.workers.size() << " worker(s); " << t.steals
            << " steal(s), " << t.claims << " shared claim(s)\n";
  return 0;
}

/// `critical-path`: the strict-chain serial floor — what an infinite
/// worker count could not beat.
int run_critical_path(int argc, char** argv) {
  int first = 2;
  const bool json = eat_json_flag(first, argc, argv);
  if (first >= argc) return usage();
  const auto events = load_all(argc, argv, first);
  const aqua::obs::CriticalPathSummary c =
      aqua::obs::critical_path_of(events);
  if (json) {
    std::cout << "{\"window_us\": " << aqua::obs::json_number(c.window_us)
              << ", \"total_task_us\": "
              << aqua::obs::json_number(c.total_task_us)
              << ", \"longest_task_us\": "
              << aqua::obs::json_number(c.longest_task_us)
              << ", \"longest_chain_us\": "
              << aqua::obs::json_number(c.longest_chain_us)
              << ", \"floor_us\": " << aqua::obs::json_number(c.floor_us)
              << ", \"max_speedup\": "
              << aqua::obs::json_number(c.max_speedup())
              << ", \"chains\": [";
    bool comma = false;
    for (const aqua::obs::StrictChainRow& r : c.chains) {
      aqua::obs::JsonWriter row;
      row.add("chain", static_cast<std::uint64_t>(r.chain))
          .add("worker", static_cast<std::uint64_t>(r.worker))
          .add("tasks", static_cast<std::uint64_t>(r.tasks))
          .add("total_us", r.total_us);
      std::cout << (comma ? "," : "") << row.str();
      comma = true;
    }
    std::cout << "]}\n";
    return 0;
  }
  if (c.total_task_us == 0.0) {
    std::cout << "no engine.task.* spans found — record with AQUA_TRACE=1\n";
    return 0;
  }
  if (!c.chains.empty()) {
    aqua::Table table({"strict chain", "home worker", "tasks", "total ms"});
    for (const aqua::obs::StrictChainRow& r : c.chains) {
      table.row()
          .add_int(static_cast<long long>(r.chain))
          .add_int(static_cast<long long>(r.worker))
          .add_int(static_cast<long long>(r.tasks))
          .add(r.total_us / 1e3);
    }
    table.print(std::cout);
  }
  std::cout << "total task time  " << c.total_task_us / 1e3 << " ms\n"
            << "longest task     " << c.longest_task_us / 1e3 << " ms\n"
            << "longest chain    " << c.longest_chain_us / 1e3 << " ms";
  if (!c.chains.empty()) std::cout << " (chain " << c.longest_chain << ")";
  std::cout << "\nserial floor     " << c.floor_us / 1e3
            << " ms -> max speedup over one worker " << c.max_speedup()
            << "x\n";
  return 0;
}

/// Expands a perf-gate baseline argument: a JSON file stands alone; a
/// directory contributes its *.json files — preferring a `<bench>/`
/// subdirectory when one matches the fresh report's bench name (the
/// bench/baselines/<bench>/run*.json layout).
std::vector<std::string> expand_baselines(const std::string& arg,
                                          const std::string& bench) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  fs::path base = arg;
  if (fs::is_directory(base)) {
    if (!bench.empty() && fs::is_directory(base / bench)) base /= bench;
    for (const auto& entry : fs::directory_iterator(base)) {
      if (entry.path().extension() == ".json") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(arg);
  }
  return paths;
}

/// `perf-gate`: noise-aware comparison of a fresh BENCH_*.json against the
/// median of committed baseline runs. Exit 0 = pass, 1 = regression,
/// 2 = usage / unreadable input / no matching baselines.
int run_perf_gate(int argc, char** argv) {
  int first = 2;
  const bool json = eat_json_flag(first, argc, argv);
  aqua::obs::GateThresholds thresholds;
  while (first + 1 < argc) {
    const std::string flag = argv[first];
    if (flag == "--time-threshold") {
      thresholds.timing = std::stod(argv[first + 1]);
      first += 2;
    } else if (flag == "--work-threshold") {
      thresholds.work = std::stod(argv[first + 1]);
      first += 2;
    } else {
      break;
    }
  }
  if (first + 1 >= argc) return usage();
  const std::string fresh_path = argv[first];

  try {
    const std::string bench = aqua::obs::bench_name_of(fresh_path);
    const auto fresh = aqua::obs::load_bench_metrics(fresh_path);
    std::vector<std::map<std::string, double>> baselines;
    std::vector<std::string> used;
    for (int i = first + 1; i < argc; ++i) {
      for (const std::string& path : expand_baselines(argv[i], bench)) {
        // Skip baselines for other benches so a whole baselines/ tree can
        // be passed in; files without a bench name gate unconditionally.
        const std::string name = aqua::obs::bench_name_of(path);
        if (!name.empty() && !bench.empty() && name != bench) continue;
        baselines.push_back(aqua::obs::load_bench_metrics(path));
        used.push_back(path);
      }
    }
    if (baselines.empty()) {
      std::cerr << "perf-gate: no baselines for bench '" << bench
                << "' in the given paths\n";
      return 2;
    }
    const aqua::obs::GateResult result =
        aqua::obs::gate_bench(fresh, baselines, thresholds);

    if (json) {
      std::cout << "{\"bench\": \"" << aqua::obs::json_escape(bench)
                << "\", \"baselines\": " << used.size()
                << ", \"compared\": " << result.compared
                << ", \"regressions\": " << result.regressions
                << ", \"skipped\": " << result.skipped
                << ", \"passed\": " << (result.passed() ? "true" : "false")
                << ", \"findings\": [";
      bool comma = false;
      for (const aqua::obs::GateFinding& f : result.findings) {
        if (!f.regression) continue;  // JSON consumers want the failures
        aqua::obs::JsonWriter row;
        row.add("metric", f.metric)
            .add("kind", f.kind == aqua::obs::MetricKind::kTiming ? "timing"
                         : f.kind == aqua::obs::MetricKind::kRate ? "rate"
                                                                  : "work")
            .add("fresh", f.fresh)
            .add("baseline", f.baseline)
            .add("ratio", f.ratio)
            .add("threshold", f.threshold);
        std::cout << (comma ? "," : "") << row.str();
        comma = true;
      }
      std::cout << "]}\n";
      return result.passed() ? 0 : 1;
    }

    std::cout << "perf-gate: " << fresh_path << " vs " << used.size()
              << " baseline run(s) of '" << bench << "' (timing +"
              << thresholds.timing * 100.0 << "%, work ±"
              << thresholds.work * 100.0 << "%)\n";
    aqua::Table table({"metric", "kind", "fresh", "baseline", "ratio",
                       "verdict"});
    std::size_t shown = 0;
    for (const aqua::obs::GateFinding& f : result.findings) {
      // Regressions always print; passing rows only pad out the top 10.
      if (!f.regression && shown >= 10) continue;
      table.row()
          .add(f.metric)
          .add(f.kind == aqua::obs::MetricKind::kTiming ? "timing"
               : f.kind == aqua::obs::MetricKind::kRate ? "rate"
                                                        : "work")
          .add(f.fresh)
          .add(f.baseline)
          .add(f.ratio, 3)
          .add(f.regression ? "REGRESSED" : "ok");
      ++shown;
    }
    table.print(std::cout);
    std::cout << result.compared << " compared, " << result.regressions
              << " regression(s), " << result.skipped << " skipped\n"
              << (result.passed() ? "PASS\n" : "FAIL\n");
    return result.passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perf-gate: " << e.what() << "\n";
    return 2;
  }
}

/// `summarize --faults`: aggregates the resilience layer's run-report
/// records (fault_injected / fault_absorbed / degraded_result) by stage
/// and detail. Records carrying a "count" field contribute that many
/// faults; others count as one.
int run_summarize_faults(int argc, char** argv) {
  if (argc < 4) return usage();
  struct Bucket {
    std::uint64_t records = 0;
    std::uint64_t faults = 0;
  };
  // key: kind | stage | detail (fault / action / what, whichever is set).
  std::map<std::array<std::string, 3>, Bucket> buckets;
  std::size_t total = 0;
  for (int i = 3; i < argc; ++i) {
    for (const aqua::obs::JsonValue& rec :
         aqua::obs::load_jsonl_file(argv[i])) {
      const aqua::obs::JsonValue* kind = rec.find("kind");
      if (kind == nullptr ||
          (kind->string != "fault_injected" &&
           kind->string != "fault_absorbed" &&
           kind->string != "degraded_result")) {
        continue;
      }
      std::array<std::string, 3> key{kind->string, "?", ""};
      if (const auto* stage = rec.find("stage")) key[1] = stage->string;
      for (const char* detail : {"fault", "action", "what"}) {
        if (const auto* v = rec.find(detail)) {
          if (!v->string.empty()) key[2] = v->string;
        }
      }
      Bucket& b = buckets[key];
      ++b.records;
      const aqua::obs::JsonValue* count = rec.find("count");
      b.faults += count != nullptr &&
                          count->kind == aqua::obs::JsonValue::Kind::kNumber
                      ? static_cast<std::uint64_t>(count->number)
                      : 1;
      ++total;
    }
  }
  aqua::Table table({"kind", "stage", "detail", "records", "faults"});
  for (const auto& [key, b] : buckets) {
    table.row()
        .add(key[0])
        .add(key[1])
        .add(key[2].empty() ? "-" : key[2])
        .add_int(static_cast<long long>(b.records))
        .add_int(static_cast<long long>(b.faults));
  }
  table.print(std::cout);
  std::cout << total << " fault record(s) in " << (argc - 3) << " file(s)\n";
  return 0;
}

/// `summarize --service`: per-connection ledgers plus the daemon's
/// stop-time totals from sweep-service run-report records. The rates line
/// is the overload drill's evidence: rejections were explicit
/// (rejection_rate), deadlines enforced (deadline_rate), and dedupe +
/// cache saved recomputation (warm_fraction).
int run_summarize_service(int argc, char** argv) {
  if (argc < 4) return usage();
  std::vector<aqua::obs::JsonValue> records;
  for (int i = 3; i < argc; ++i) {
    for (aqua::obs::JsonValue& rec : aqua::obs::load_jsonl_file(argv[i])) {
      records.push_back(std::move(rec));
    }
  }
  const aqua::obs::ServiceSummary summary =
      aqua::obs::summarize_service_records(records);
  if (summary.service_records == 0 && summary.connections.empty()) {
    std::cerr << "no service records in " << (argc - 3) << " file(s)\n";
    return 1;
  }

  aqua::Table table({"conn", "requests", "results", "rejected", "deadline",
                     "bad", "single_flight", "failed"});
  for (const aqua::obs::ServiceConnRow& row : summary.connections) {
    table.row()
        .add_int(static_cast<long long>(row.conn))
        .add_int(static_cast<long long>(row.requests))
        .add_int(static_cast<long long>(row.results))
        .add_int(static_cast<long long>(row.rejected_overload))
        .add_int(static_cast<long long>(row.deadline_exceeded))
        .add_int(static_cast<long long>(row.bad_requests))
        .add_int(static_cast<long long>(row.single_flight))
        .add_int(static_cast<long long>(row.failed));
  }
  table.print(std::cout);

  std::cout << "\ntotals: accepted=" << summary.accepted
            << " rejected_overload=" << summary.rejected_overload
            << " deadline_exceeded=" << summary.deadline_exceeded
            << " single_flight=" << summary.single_flight_hits
            << " cache=" << summary.cache_hits
            << " journal=" << summary.journal_hits
            << " computed=" << summary.computed
            << " failed=" << summary.failed
            << " connections=" << summary.total_connections << "\n";
  std::cout << "rates: rejection_rate="
            << aqua::format_double(summary.rejection_rate(), 3)
            << " deadline_rate="
            << aqua::format_double(summary.deadline_rate(), 3)
            << " warm_fraction="
            << aqua::format_double(summary.warm_fraction(), 3) << "\n";
  return 0;
}

int run_merge(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto events = load_all(argc, argv, 3);
  std::ofstream out(argv[2]);
  if (!out) {
    std::cerr << "cannot open " << argv[2] << "\n";
    return 1;
  }
  // Re-emit as one Chrome trace-event file. Thread ids from different
  // source files may collide; that only overlays their rows in the viewer.
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const aqua::obs::ParsedTraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    aqua::obs::JsonWriter w;
    w.add("name", e.name)
        .add("cat", e.category)
        .add("ph", e.phase)
        .add("ts", e.ts_us)
        .add("dur", e.dur_us)
        .add("pid", static_cast<std::int64_t>(e.pid))
        .add("tid", static_cast<std::int64_t>(e.tid));
    if (e.has_arg) {
      aqua::obs::JsonWriter args;
      args.add("v", e.arg);
      w.add_raw("args", args.str());
    }
    out << w.str();
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  std::cout << "merged " << events.size() << " events from " << (argc - 3)
            << " file(s) into " << argv[2] << "\n";
  return 0;
}

/// Exit codes: 0 = every file parses; 1 = at least one file is malformed;
/// 2 = at least one file is missing (and none malformed) — so CI can tell
/// "the bench never wrote its telemetry" apart from "it wrote garbage".
int run_check(int argc, char** argv) {
  if (argc < 3) return usage();
  bool malformed = false;
  bool missing = false;
  for (int i = 2; i < argc; ++i) {
    const std::string path = argv[i];
    if (!std::filesystem::exists(path)) {
      std::cerr << path << ": FAIL (no such file)\n";
      missing = true;
      continue;
    }
    const bool jsonl = path.size() >= 6 &&
                       path.compare(path.size() - 6, 6, ".jsonl") == 0;
    try {
      if (jsonl) {
        const auto records = aqua::obs::load_jsonl_file(path);
        std::cout << path << ": OK (" << records.size() << " records)\n";
      } else {
        const auto events = aqua::obs::load_trace_file(path);
        std::cout << path << ": OK (" << events.size() << " events)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << path << ": FAIL (" << e.what() << ")\n";
      malformed = true;
    }
  }
  if (malformed) return 1;
  return missing ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqua;
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  if (mode == "summarize") {
    if (argc >= 3 && std::string(argv[2]) == "--faults") {
      return run_summarize_faults(argc, argv);
    }
    if (argc >= 3 && std::string(argv[2]) == "--service") {
      return run_summarize_service(argc, argv);
    }
    return run_summarize(argc, argv);
  }
  if (mode == "timeline") return run_timeline(argc, argv);
  if (mode == "critical-path") return run_critical_path(argc, argv);
  if (mode == "perf-gate") return run_perf_gate(argc, argv);
  if (mode == "merge") return run_merge(argc, argv);
  if (mode == "check") return run_check(argc, argv);
  if (mode == "cache") return run_cache(argc, argv);

  if (mode == "capture") {
    if (argc != 5) return usage();
    WorkloadProfile profile = npb_profile(argv[2]);
    profile.instructions_per_thread = 20000;  // keep files small
    const auto threads = static_cast<std::size_t>(std::stoul(argv[3]));
    const TraceBundle bundle = TraceBundle::capture(profile, threads, 1);
    std::ofstream out(argv[4]);
    if (!out) {
      std::cerr << "cannot open " << argv[4] << "\n";
      return 1;
    }
    bundle.save(out);
    std::uint64_t ops = 0;
    for (const RecordedTrace& t : bundle.threads) ops += t.ops().size();
    std::cout << "captured " << threads << " threads, " << ops
              << " ops of '" << profile.name << "' to " << argv[4] << "\n";
    return 0;
  }

  if (mode == "replay") {
    if (argc != 4) return usage();
    std::ifstream in(argv[2]);
    if (!in) {
      std::cerr << "cannot open " << argv[2] << "\n";
      return 1;
    }
    const TraceBundle bundle = TraceBundle::load(in);
    CmpConfig cfg;
    // One chip per 4 trace threads (the fixed cores-per-chip of Table 1).
    cfg.chips = (bundle.threads.size() + cfg.cores_per_chip - 1) /
                cfg.cores_per_chip;
    if (bundle.threads.size() % cfg.cores_per_chip != 0) {
      std::cerr << "trace thread count must be a multiple of "
                << cfg.cores_per_chip << "\n";
      return 1;
    }
    CmpSystem system(cfg, bundle, gigahertz(std::stod(argv[3])));
    const ExecStats st = system.run();
    std::cout << "replayed " << bundle.threads.size() << " threads on "
              << cfg.chips << " chip(s) @ " << argv[3] << " GHz\n"
              << "  cycles " << st.cycles << " (" << st.seconds * 1e3
              << " ms), IPC " << st.ipc() << "\n"
              << "  L1 hit rate " << st.l1_hit_rate() << ", DRAM accesses "
              << st.dram_accesses << "\n"
              << "  NoC packets " << st.noc.packets_delivered
              << ", avg latency " << st.noc.average_latency() << " cycles\n";
    return 0;
  }
  return usage();
}
