#pragma once

/// The service_mix traffic: the freq_cap and npb_des key spaces, the seeded
/// open-loop schedule (Poisson arrivals at one rate, a skewed key draw, a
/// fixed op mix), the pre-warmed half of the freq_cap keys, and the
/// requests and reply renderings built from them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

struct FreqKey {
  std::string chip;
  std::size_t chips = 1;
  std::string cooling;
  int threshold_c = 80;
};

struct NpbKey {
  std::size_t chips = 2;
  std::string bench;
  double hz = 1e9;
};

/// 2 chips x 12 stack heights x 5 coolings x 3 thresholds = 360 keys.
const std::vector<FreqKey>& freq_keys();
/// 2 stack heights x 9 NPB programs x 3 clocks = 54 small DES cells.
const std::vector<NpbKey>& npb_keys();
/// Per-thread instructions of an npb_des cell (small: tens of ms each).
inline constexpr std::uint64_t kNpbInstructions = 3000;

std::map<std::string, std::string> freq_params(const FreqKey& key);
std::map<std::string, std::string> npb_params(const NpbKey& key);
std::string key_name(const FreqKey& key);
std::string key_name(const NpbKey& key);

enum class OpKind : char { kFreqCap = 'f', kNpb = 'n', kPing = 'p' };

struct Op {
  double due_s = 0.0;  ///< offset from the schedule start
  OpKind kind = OpKind::kPing;
  std::uint32_t key = 0;  ///< index into freq_keys() or npb_keys()
};

/// The one arrival rate: about half of what the server sustained closed loop.
inline constexpr double kRatePerS = 150.0;

/// Arrivals over [0, seconds): exponential gaps at kRatePerS; each op's kind
/// (85% freq_cap, 10% npb_des, 5% ping) and key are drawn from the same
/// seeded stream, freq_cap keys by a Zipf(1) rank over a fixed permutation
/// of the key space.
std::vector<Op> make_schedule(std::uint64_t seed, double seconds);

/// The pre-warmed half of the freq_cap keys (fixed; sorted indices).
std::vector<std::uint32_t> prewarm_keys();

/// The wire request of one op (`id` is echoed on the reply).
aqua::service::Request make_request(const Op& op, std::uint64_t id);

/// Reply values rendered at the precision the output check compares:
/// freq_cap as 0.1 GHz or "-" when infeasible, npb_des as seconds to nine
/// significant digits.
std::string render_freq_reply(const std::map<std::string, double>& values);
std::string render_npb_reply(const std::map<std::string, double>& values);

}  // namespace perfbench
