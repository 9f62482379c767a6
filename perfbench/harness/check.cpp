#include "check.hpp"

#include <fstream>
#include <sstream>

#include "common/table.hpp"

namespace perfbench {

namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string printed(const aqua::Table& table) {
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace

std::string format_tables(const Tables& tables) {
  std::string out;
  for (const auto& [name, text] : tables) {
    out += "## " + name + "\n" + text;
    if (!text.empty() && text.back() != '\n') out += '\n';
  }
  return out;
}

Tables parse_tables(const std::string& text) {
  Tables tables;
  std::string* current = nullptr;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("## ", 0) == 0) {
      current = &tables[line.substr(3)];
      continue;
    }
    if (current != nullptr) *current += line + "\n";
  }
  return tables;
}

Tables load_tables(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return parse_tables(text.str());
}

void save_tables(const std::string& path, const Tables& tables) {
  std::ofstream out(path);
  out << format_tables(tables);
}

std::vector<Mismatch> diff_tables(const Tables& golden, const Tables& actual) {
  std::vector<Mismatch> out;
  std::map<std::string, bool> names;
  for (const auto& [name, text] : golden) names[name] = true;
  for (const auto& [name, text] : actual) names[name] = true;
  for (const auto& [name, unused] : names) {
    const auto g = golden.find(name);
    const auto a = actual.find(name);
    const std::vector<std::string> want =
        g == golden.end() ? std::vector<std::string>{} : lines_of(g->second);
    const std::vector<std::string> got =
        a == actual.end() ? std::vector<std::string>{} : lines_of(a->second);
    const std::size_t n = std::max(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& w = i < want.size() ? want[i] : std::string();
      const std::string& h = i < got.size() ? got[i] : std::string();
      if (i >= want.size() || i >= got.size() || w != h) {
        out.push_back({name, i + 1, w, h});
      }
    }
  }
  return out;
}

Tables select(const Tables& tables, const std::string& suffix) {
  Tables out;
  for (const auto& [name, text] : tables) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out[name] = text;
    }
  }
  return out;
}

std::string render_freq_vs_chips(const aqua::FreqVsChipsData& data) {
  std::vector<std::string> header{"chips"};
  for (const aqua::FreqVsChipsSeries& s : data.series) {
    header.emplace_back(aqua::to_string(s.cooling));
  }
  aqua::Table t(std::move(header));
  for (std::size_t n = 0; n < data.max_chips; ++n) {
    t.row().add_int(static_cast<long long>(n + 1));
    for (const aqua::FreqVsChipsSeries& s : data.series) {
      if (s.ghz[n].has_value()) {
        t.add(*s.ghz[n], 1);
      } else {
        t.add_missing();
      }
    }
  }
  return printed(t);
}

std::string render_htc(
    const std::vector<std::vector<aqua::HtcSweepPoint>>& per_chip,
    const std::vector<double>& htcs) {
  aqua::Table t({"h_W_m2K", "low_power", "high_freq", "e5", "phi"});
  for (std::size_t i = 0; i < htcs.size(); ++i) {
    t.row().add(htcs[i], 0);
    for (const auto& series : per_chip) {
      if (series[i].failed || series[i].skipped) {
        t.add_missing();
      } else {
        t.add(series[i].temperature_c, 1);
      }
    }
  }
  return printed(t);
}

std::string render_rotation(const std::vector<aqua::RotationPoint>& air,
                            const std::vector<aqua::RotationPoint>& water) {
  aqua::Table t({"GHz", "air_C", "air_flip_C", "water_C", "water_flip_C"});
  for (std::size_t i = 0; i < air.size() && i < water.size(); ++i) {
    t.row()
        .add(air[i].ghz, 1)
        .add(air[i].temperature_no_flip_c, 1)
        .add(air[i].temperature_flip_c, 1)
        .add(water[i].temperature_no_flip_c, 1)
        .add(water[i].temperature_flip_c, 1);
  }
  return printed(t);
}

std::string render_npb_caps(const aqua::NpbData& data) {
  std::vector<std::string> header{"bench"};
  for (aqua::CoolingKind k : data.coolings) header.emplace_back(aqua::to_string(k));
  aqua::Table t(std::move(header));
  t.row().add("GHz");
  for (const aqua::FrequencyCap& cap : data.caps) {
    if (cap.feasible) {
      t.add(cap.frequency.gigahertz(), 1);
    } else {
      t.add_missing();
    }
  }
  return printed(t);
}

std::string render_npb_times(const aqua::NpbData& data) {
  std::vector<std::string> header{"bench"};
  for (aqua::CoolingKind k : data.coolings) header.emplace_back(aqua::to_string(k));
  aqua::Table t(std::move(header));
  for (const aqua::NpbRow& row : data.rows) {
    t.row().add(row.benchmark);
    for (const auto& rel : row.relative) {
      if (rel.has_value()) {
        t.add(*rel, 3);
      } else {
        t.add_missing();
      }
    }
  }
  return printed(t);
}

std::vector<Verdict> freqcap_shape(
    const aqua::FreqVsChipsData& fig07, const aqua::FreqVsChipsData& fig08,
    const std::vector<aqua::RotationPoint>& water_rotation) {
  using aqua::CoolingKind;
  std::vector<Verdict> out;
  const std::size_t pipe = fig07.max_feasible_chips(CoolingKind::kWaterPipe);
  out.push_back({"water-pipe boundary (low-power) = 7 chips", pipe == 7,
                 std::to_string(pipe) + " chips"});
  const std::size_t water =
      fig07.max_feasible_chips(CoolingKind::kWaterImmersion);
  out.push_back({"immersion carries 8 low-power chips", water >= 8,
                 std::to_string(water) + " chips"});
  bool ordered = true;
  for (std::size_t n = 0; n < fig07.max_chips; ++n) {
    const auto p = fig07.of(CoolingKind::kWaterPipe).ghz[n];
    const auto o = fig07.of(CoolingKind::kMineralOil).ghz[n];
    const auto w = fig07.of(CoolingKind::kWaterImmersion).ghz[n];
    if (p && o && *p > *o) ordered = false;
    if (o && w && *o > *w) ordered = false;
  }
  out.push_back({"coolant ordering pipe <= oil <= water", ordered,
                 ordered ? "holds" : "violated"});
  const std::size_t hf_pipe =
      fig08.max_feasible_chips(CoolingKind::kWaterPipe);
  out.push_back({"water-pipe carries 8 high-freq chips", hf_pipe >= 8,
                 std::to_string(hf_pipe) + " chips"});
  const double gain =
      water_rotation.empty() ? 0.0
                             : water_rotation.back().temperature_no_flip_c -
                                   water_rotation.back().temperature_flip_c;
  out.push_back({"flip lowers the top-step peak under water", gain > 5.0,
                 aqua::format_double(gain, 1) + " C"});
  return out;
}

Verdict npb_shape(const aqua::NpbData& fig10) {
  const auto mean = fig10.mean_relative(aqua::CoolingKind::kWaterImmersion);
  const double gain = mean ? (1.0 - *mean) * 100.0 : -1.0;
  return {"water beats water-pipe on NPB (Fig. 10 config)",
          mean.has_value() && gain > 2.0 && gain < 30.0,
          aqua::format_double(gain, 1) + "%"};
}

}  // namespace perfbench
