/// sweep_client: command-line client for aqua_sweepd (DESIGN.md §13).
///
///   sweep_client --ping
///   sweep_client --stats
///   sweep_client --figure fig07 [--deadline-ms N]
///   sweep_client --cell freq_cap chip=low_power_cmp chips=4 cooling=water
///
/// `--figure` submits a whole figure and reconstructs the paper table from
/// the streamed cells — byte-identical to the corresponding bench driver's
/// output, because both sides render through aqua::Table with the same
/// column order and precision. The trailing source tally (computed /
/// cache / single_flight) is what the CI smoke job asserts on:
/// a second pass against a warm daemon must be >90% non-computed.
///
/// Retries are handled by SweepClient: overload rejections back off with
/// jitter (seed via --seed, deterministic), transport errors reconnect and
/// resubmit. Exit status: 0 on success, 1 when any cell failed, 2 on
/// usage errors, 3 when the service is unreachable or retries exhausted.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/cooling.hpp"
#include "service/client.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [--host H] [--port N] [--seed N] MODE\n\n"
      << "modes:\n"
      << "  --ping                      liveness probe (exit 0 when alive)\n"
      << "  --stats                     print the server counter snapshot\n"
      << "  --figure NAME               submit fig07/fig08, print the table\n"
      << "  --cell FAMILY k=v [k=v...]  submit one cell, print its values\n\n"
      << "options:\n"
      << "  --host H          server address (default 127.0.0.1)\n"
      << "  --port N          server port (default 7447)\n"
      << "  --seed N          backoff jitter seed (default 1)\n"
      << "  --deadline-ms N   per-cell deadline forwarded to the server\n";
  return 2;
}

struct ParsedTag {
  std::size_t chips = 0;
  std::string cooling;
};

/// Parses the self-describing figure tag "chips=N;cooling=name".
std::optional<ParsedTag> parse_tag(const std::string& tag) {
  const std::size_t semi = tag.find(';');
  if (semi == std::string::npos) return std::nullopt;
  const std::string chips_part = tag.substr(0, semi);
  const std::string cooling_part = tag.substr(semi + 1);
  if (chips_part.rfind("chips=", 0) != 0 ||
      cooling_part.rfind("cooling=", 0) != 0) {
    return std::nullopt;
  }
  ParsedTag parsed;
  parsed.chips = static_cast<std::size_t>(
      std::strtoull(chips_part.c_str() + 6, nullptr, 10));
  parsed.cooling = cooling_part.substr(8);
  if (parsed.chips == 0) return std::nullopt;
  return parsed;
}

/// Rebuilds the bench driver's chips x cooling table from streamed cells.
/// Columns follow the paper's cooling order (the same order the drivers
/// get from all_cooling_options()), rows 1..max observed chips; a feasible
/// cell renders ghz at 1 decimal, an infeasible one the "-" placeholder —
/// matching aqua::bench::freq_vs_chips_table byte for byte.
int print_figure(const aqua::service::FigureResult& result) {
  std::vector<std::string> cooling_names;
  for (const aqua::CoolingOption& option : aqua::all_cooling_options()) {
    cooling_names.push_back(option.name());
  }

  // (chips, cooling column) -> ghz when feasible.
  std::map<std::pair<std::size_t, std::size_t>, double> ghz;
  std::size_t max_chips = 0;
  std::size_t failures = 0;
  for (const aqua::service::CellResult& cell : result.cells) {
    if (!cell.ok()) {
      std::cerr << "cell failed (" << cell.status << "): " << cell.message
                << "\n";
      ++failures;
      continue;
    }
    const std::optional<ParsedTag> tag = parse_tag(cell.tag);
    if (!tag.has_value()) {
      std::cerr << "unrecognised cell tag: " << cell.tag << "\n";
      ++failures;
      continue;
    }
    std::size_t column = cooling_names.size();
    for (std::size_t k = 0; k < cooling_names.size(); ++k) {
      if (cooling_names[k] == tag->cooling) column = k;
    }
    if (column == cooling_names.size()) {
      std::cerr << "unrecognised cooling in tag: " << cell.tag << "\n";
      ++failures;
      continue;
    }
    max_chips = std::max(max_chips, tag->chips);
    const auto feasible = cell.values.find("feasible");
    const auto cell_ghz = cell.values.find("ghz");
    if (feasible != cell.values.end() && feasible->second > 0.5 &&
        cell_ghz != cell.values.end()) {
      ghz[{tag->chips, column}] = cell_ghz->second;
    }
  }

  std::vector<std::string> header{"chips"};
  for (const std::string& name : cooling_names) header.push_back(name);
  aqua::Table table(std::move(header));
  for (std::size_t chips = 1; chips <= max_chips; ++chips) {
    table.row().add_int(static_cast<long long>(chips));
    for (std::size_t k = 0; k < cooling_names.size(); ++k) {
      const auto it = ghz.find({chips, k});
      if (it != ghz.end()) {
        table.add(it->second, 1);
      } else {
        table.add_missing();
      }
    }
  }
  table.print(std::cout);

  // The source tally the CI smoke job greps: every key the server can
  // report is printed (zeroes included) so the line is stable to parse.
  std::map<std::string, std::size_t> sources{
      {"computed", 0}, {"cache", 0}, {"single_flight", 0}};
  for (const aqua::service::CellResult& cell : result.cells) {
    if (cell.ok()) ++sources[cell.source];
  }
  std::size_t total = 0;
  std::size_t warm = 0;
  std::cout << "\nsources:";
  for (const auto& [name, count] : sources) {
    std::cout << " " << name << "=" << count;
    total += count;
    if (name != "computed") warm += count;
  }
  std::cout << " warm_fraction="
            << (total == 0 ? 0.0
                           : static_cast<double>(warm) /
                                 static_cast<double>(total))
            << "\n";
  return failures == 0 ? 0 : 1;
}

int run_cell(aqua::service::SweepClient& client, const std::string& family,
             const std::map<std::string, std::string>& params,
             std::uint64_t deadline_ms) {
  const aqua::service::CellResult cell =
      client.submit(family, params, deadline_ms);
  if (!cell.ok()) {
    std::cerr << "cell failed (" << cell.status << "): " << cell.message
              << "\n";
    return 1;
  }
  std::cout << "cell: " << cell.cell << "\nsource: " << cell.source << "\n";
  for (const auto& [key, value] : cell.values) {
    std::cout << "  " << key << " = " << value << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7447;
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 0;
  std::string mode;
  std::string figure;
  std::string family;
  std::map<std::string, std::string> params;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ping" || arg == "--stats") {
      mode = arg;
    } else if (arg == "--figure" && i + 1 < argc) {
      mode = arg;
      figure = argv[++i];
    } else if (arg == "--cell" && i + 1 < argc) {
      mode = arg;
      family = argv[++i];
      while (i + 1 < argc && std::strchr(argv[i + 1], '=') != nullptr) {
        const std::string pair = argv[++i];
        const std::size_t eq = pair.find('=');
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (mode.empty()) return usage(argv[0]);

  aqua::service::RetryPolicy policy;
  policy.seed = seed;
  aqua::service::SweepClient client(host, port, policy);
  try {
    if (mode == "--ping") {
      const bool alive = client.ping();
      std::cout << (alive ? "pong" : "no answer") << "\n";
      return alive ? 0 : 3;
    }
    if (mode == "--stats") {
      for (const auto& [key, value] : client.stats()) {
        std::cout << key << " = " << value << "\n";
      }
      return 0;
    }
    if (mode == "--figure") {
      return print_figure(client.submit_figure(figure, deadline_ms));
    }
    return run_cell(client, family, params, deadline_ms);
  } catch (const aqua::Error& e) {
    std::cerr << "sweep_client: " << e.what() << "\n";
    return 3;
  }
}
