#include "floorplan/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aqua {

Floorplan oriented(const Floorplan& plan, OrientationCode code) {
  require(code < 8, "orientation code out of range");
  static constexpr Rotation kRotations[4] = {Rotation::kNone, Rotation::kCw90,
                                             Rotation::k180, Rotation::kCw270};
  Floorplan out = rotated(plan, kRotations[code & 3]);
  if (code & 4) out = mirrored_x(out);
  return out;
}

bool orientation_legal(const Floorplan& plan, OrientationCode code) {
  if (code >= 8) return false;
  const bool quarter_turn = (code & 1) != 0;
  if (!quarter_turn) return true;
  return std::fabs(plan.width() - plan.height()) < 1e-12;
}

namespace {

std::vector<Floorplan> build_layers(const Floorplan& die,
                                    const std::vector<OrientationCode>& codes) {
  std::vector<Floorplan> layers;
  layers.reserve(codes.size());
  for (OrientationCode c : codes) layers.push_back(oriented(die, c));
  return layers;
}

/// True if layout `codes` with peak `cost` beats the best so far: a lower
/// peak beyond the tie tolerance, or a tie and a smaller code vector.
bool beats(double cost, const std::vector<OrientationCode>& codes,
           double best_cost, const std::vector<OrientationCode>& best) {
  if (cost < best_cost - kLayoutPeakTieC) return true;
  return cost <= best_cost + kLayoutPeakTieC && codes < best;
}

}  // namespace

LayoutSearchResult optimize_layout(const Floorplan& die, std::size_t layers,
                                   const LayoutObjective& objective,
                                   const LayoutSearchOptions& options) {
  require(layers >= 1, "need at least one layer");
  require(static_cast<bool>(objective), "objective must be callable");

  // Legal orientation alphabet for this die.
  std::vector<OrientationCode> alphabet;
  for (OrientationCode c = 0; c < 8; ++c) {
    if (!orientation_legal(die, c)) continue;
    if (!options.allow_mirror && (c & 4)) continue;
    if (!options.allow_quarter_turns && (c & 1)) continue;
    alphabet.push_back(c);
  }
  ensure(!alphabet.empty(), "no legal orientations");

  LayoutSearchResult result;
  Xoshiro256 rng(options.seed);

  auto evaluate = [&](const std::vector<OrientationCode>& codes) {
    ++result.evaluations;
    return objective(build_layers(die, codes));
  };

  // Reference points: the identity layout and the paper's flip-even.
  std::vector<OrientationCode> current(layers, 0);
  result.baseline_peak_c = evaluate(current);
  std::vector<OrientationCode> flip(layers, 0);
  for (std::size_t l = 1; l < layers; l += 2) flip[l] = 2;  // 180 degrees
  result.flip_even_peak_c = evaluate(flip);
  double current_cost = result.baseline_peak_c;
  if (beats(result.flip_even_peak_c, flip, current_cost, current)) {
    current = flip;
    current_cost = result.flip_even_peak_c;
  }
  result.orientations = current;
  result.peak_c = current_cost;
  result.history.push_back(result.peak_c);

  double temperature = options.initial_temperature_c;
  for (std::size_t it = 0; it < options.iterations; ++it) {
    // Neighbor: reorient one random layer.
    std::vector<OrientationCode> candidate = current;
    const std::size_t layer = rng.uniform_index(layers);
    OrientationCode next;
    do {
      next = alphabet[rng.uniform_index(alphabet.size())];
    } while (alphabet.size() > 1 && next == candidate[layer]);
    candidate[layer] = next;

    const double cost = evaluate(candidate);
    if (beats(cost, candidate, result.peak_c, result.orientations)) {
      result.peak_c = cost;
      result.orientations = candidate;
    }
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / std::max(1e-9, temperature))) {
      current = std::move(candidate);
      current_cost = cost;
    }
    temperature *= options.cooling_rate;
    result.history.push_back(result.peak_c);
  }
  return result;
}

}  // namespace aqua
