/// Fault-injection smoke test — the CI gate for the resilience layer.
///
/// Exercises, in one deterministic process:
///   1. a reference Fig. 7-style sweep (no cache, no faults),
///   2. the same sweep on a fresh AQUA_SWEEP_CACHE-style cache with one
///      cell poisoned via AQUA_FAULT_CELL: the cell must fail in isolation
///      (table hole, never cached) while every other cell matches the
///      reference and is stored,
///   3. a re-run against the same cache file with the poison lifted —
///      emulating a mid-sweep kill + relaunch: completed cells are served
///      from the cache, the failed cell is recomputed, and the final table
///      must be bit-identical to the uninterrupted reference.
///
/// Exits non-zero on any mismatch. Usage: fault_smoke [cache-dir]
/// (default: ./fault_smoke_cache, emptied at start).

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "sweep/cache.hpp"
#include "sweep/runner.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::cout << "  ok: " << what << "\n";
  } else {
    std::cerr << "  FAIL: " << what << "\n";
    ++g_failures;
  }
}

bool same_tables(const aqua::FreqVsChipsData& a,
                 const aqua::FreqVsChipsData& b) {
  if (a.series.size() != b.series.size()) return false;
  for (std::size_t k = 0; k < a.series.size(); ++k) {
    if (a.series[k].ghz != b.series[k].ghz) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cache_dir = argc > 1 ? argv[1] : "fault_smoke_cache";
  std::filesystem::remove_all(cache_dir);
  aqua::sweep::SweepCache& cache = aqua::sweep::SweepCache::instance();
  const aqua::ChipModel chip = aqua::make_low_power_cmp();
  constexpr std::size_t kChips = 3;
  // Every cell key names this poisoned cell's sweep + coordinates.
  const std::string poisoned_cell =
      "chip=" + chip.name() + ";chips=2;cooling=water";

  std::cout << "[1/3] reference sweep (no faults, no cache)\n";
  unsetenv(aqua::sweep::SweepRunner::kPoisonEnv);
  cache.configure("");
  const aqua::FreqVsChipsData reference =
      aqua::frequency_vs_chips(chip, kChips);
  check(reference.failed_cells.empty(), "reference has no failed cells");
  const std::size_t cells = kChips * reference.series.size();

  std::cout << "[2/3] poisoned sweep (cached)\n";
  cache.configure(cache_dir);
  setenv(aqua::sweep::SweepRunner::kPoisonEnv,
         ("freq_vs_chips:" + poisoned_cell).c_str(), 1);
  const aqua::FreqVsChipsData poisoned =
      aqua::frequency_vs_chips(chip, kChips);
  check(poisoned.failed_cells.size() == 1 &&
            poisoned.failed_cells[0] == poisoned_cell,
        "exactly the poisoned cell failed");
  check(!same_tables(reference, poisoned),
        "poisoned table has the expected hole");
  bool others_match = true;
  for (std::size_t k = 0; k < reference.series.size(); ++k) {
    for (std::size_t c = 0; c < kChips; ++c) {
      const bool is_hole =
          c + 1 == 2 && to_string(reference.series[k].cooling) ==
                            std::string("water");
      if (is_hole) continue;
      others_match &=
          reference.series[k].ghz[c] == poisoned.series[k].ghz[c];
    }
  }
  check(others_match, "all other cells match the reference bit-exactly");
  check(cache.stats().stores == cells - 1 && cache.stats().skips == 1,
        "every cell but the poisoned one was cached");

  std::cout << "[3/3] resume after emulated mid-sweep kill\n";
  unsetenv(aqua::sweep::SweepRunner::kPoisonEnv);
  cache.configure(cache_dir);  // reload from disk, as a relaunch would
  const aqua::FreqVsChipsData resumed =
      aqua::frequency_vs_chips(chip, kChips);
  check(resumed.failed_cells.empty(), "no failures after the poison lifts");
  check(resumed.cached_cells == cells - 1,
        "every completed cell was served from the cache");
  check(same_tables(reference, resumed),
        "resumed table is bit-identical to the uninterrupted reference");
  cache.configure("");

  std::cout << (g_failures == 0 ? "fault smoke: PASS\n"
                                : "fault smoke: FAIL\n");
  return g_failures == 0 ? 0 : 1;
}
