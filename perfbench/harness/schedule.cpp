#include "schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/rng.hpp"
#include "core/cooling.hpp"

namespace perfbench {

namespace {

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::uint32_t> permutation(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  aqua::Xoshiro256 rng(seed);
  for (std::uint32_t i = n; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_index(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

/// The key population is fixed — which freq_cap keys are popular and which
/// half is pre-warmed — so that seeds vary the traffic (arrival times, op
/// kinds, draws), not the amount of distinct work behind it.
constexpr std::uint64_t kPopularitySeed = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kPrewarmSeed = 0x5EED5EED5EEDull;

constexpr double kFreqShare = 0.85;
constexpr double kNpbShare = 0.10;  ///< the rest are pings

std::string format_hz(double hz) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", hz);
  return buf;
}

}  // namespace

const std::vector<FreqKey>& freq_keys() {
  static const std::vector<FreqKey> keys = [] {
    std::vector<FreqKey> out;
    for (const char* chip : {"low_power_cmp", "high_frequency_cmp"}) {
      for (std::size_t chips = 1; chips <= 12; ++chips) {
        for (const aqua::CoolingOption& option : aqua::all_cooling_options()) {
          for (int threshold : {75, 80, 85}) {
            out.push_back({chip, chips, option.name(), threshold});
          }
        }
      }
    }
    return out;
  }();
  return keys;
}

const std::vector<NpbKey>& npb_keys() {
  static const std::vector<NpbKey> keys = [] {
    std::vector<NpbKey> out;
    for (std::size_t chips : {2u, 4u}) {
      for (const char* bench :
           {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "ua"}) {
        for (double hz : {1.0e9, 1.5e9, 2.0e9}) {
          out.push_back({chips, bench, hz});
        }
      }
    }
    return out;
  }();
  return keys;
}

std::map<std::string, std::string> freq_params(const FreqKey& key) {
  return {{"chip", key.chip},
          {"chips", std::to_string(key.chips)},
          {"cooling", key.cooling},
          {"threshold_c", std::to_string(key.threshold_c)}};
}

std::map<std::string, std::string> npb_params(const NpbKey& key) {
  return {{"chips", std::to_string(key.chips)},
          {"benchmark", key.bench},
          {"hz", format_hz(key.hz)},
          {"instructions_per_thread", std::to_string(kNpbInstructions)},
          {"seed", "1"}};
}

std::string key_name(const FreqKey& key) {
  return "freq_cap;chip=" + key.chip + ";chips=" + std::to_string(key.chips) +
         ";cooling=" + key.cooling +
         ";threshold_c=" + std::to_string(key.threshold_c);
}

std::string key_name(const NpbKey& key) {
  return "npb_des;chips=" + std::to_string(key.chips) + ";bench=" + key.bench +
         ";hz=" + format_hz(key.hz);
}

std::vector<Op> make_schedule(std::uint64_t seed, double seconds) {
  const std::vector<FreqKey>& keys = freq_keys();
  const auto n = static_cast<std::uint32_t>(keys.size());
  const std::vector<std::uint32_t> by_rank = permutation(n, kPopularitySeed);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);  // Zipf(1)
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  aqua::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(kRatePerS);
    if (t >= seconds) break;
    Op op;
    op.due_s = t;
    const double u = rng.uniform();
    if (u < kFreqShare) {
      op.kind = OpKind::kFreqCap;
      const double v = rng.uniform();
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), v) - cdf.begin());
      op.key = by_rank[std::min(rank, n - 1)];
    } else if (u < kFreqShare + kNpbShare) {
      op.kind = OpKind::kNpb;
      op.key = static_cast<std::uint32_t>(rng.uniform_index(npb_keys().size()));
    } else {
      op.kind = OpKind::kPing;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::uint32_t> prewarm_keys() {
  const auto n = static_cast<std::uint32_t>(freq_keys().size());
  std::vector<std::uint32_t> order = permutation(n, kPrewarmSeed);
  order.resize(n / 2);
  std::sort(order.begin(), order.end());
  return order;
}

aqua::service::Request make_request(const Op& op, std::uint64_t id) {
  aqua::service::Request request;
  request.id = id;
  switch (op.kind) {
    case OpKind::kFreqCap:
      request.op = aqua::service::Request::Op::kSubmit;
      request.family = "freq_cap";
      request.params = freq_params(freq_keys()[op.key]);
      break;
    case OpKind::kNpb:
      request.op = aqua::service::Request::Op::kSubmit;
      request.family = "npb_des";
      request.params = npb_params(npb_keys()[op.key]);
      break;
    case OpKind::kPing:
      request.op = aqua::service::Request::Op::kPing;
      break;
  }
  // Generous: a deadline only ever fires on a stalled server.
  if (request.op == aqua::service::Request::Op::kSubmit) {
    request.deadline_ms = 10000;
  }
  return request;
}

std::string render_freq_reply(const std::map<std::string, double>& values) {
  const auto feasible = values.find("feasible");
  const auto ghz = values.find("ghz");
  if (feasible == values.end() || feasible->second < 0.5 ||
      ghz == values.end()) {
    return "-";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ghz->second);
  return buf;
}

std::string render_npb_reply(const std::map<std::string, double>& values) {
  const auto seconds = values.find("seconds");
  if (seconds == values.end()) return "?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", seconds->second);
  return buf;
}

}  // namespace perfbench
