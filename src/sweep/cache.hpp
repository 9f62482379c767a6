#pragma once

/// Content-addressed sweep-cell result cache (DESIGN.md §9).
///
/// Env contract (read once at first use; tests repoint programmatically):
///   AQUA_SWEEP_CACHE=<dir>  -> results persist to <dir>/sweep_cache.jsonl
///     and warm cells skip their thermal solve / DES run entirely. Unset
///     (the default) disables the cache completely: no lookups, no memo,
///     bit-identical behavior to an uncached build.
///
/// Record shape (one JSON object per line, flushed per store):
///   {"kind":"sweep_cache","salt":"<kCellKeySalt>","hash":"<16 hex>",
///    "cell":"<canonical CellConfig>","v_seconds":12.5,...}
///
/// The file is loaded leniently: lines that do not parse, records whose
/// salt differs from kCellKeySalt (stale schema), and records whose stored
/// hash does not match the recomputed hash of their cell text (truncation
/// or corruption) are skipped and counted — never trusted. A skipped cell
/// simply recomputes and re-stores, so a damaged cache degrades to a cold
/// one instead of poisoning results. A process killed mid-store leaves a
/// torn last line, and concatenated cache files repeat cells; the same
/// lenient loader skips the one and dedups the other.
///
/// Hit/miss/store/skip counts flow into the obs metrics registry
/// (`sweep.cache_*`) and into per-sweep "sweep" run-report records.

#include <cstdint>
#include <map>
#include <mutex>
#include <fstream>
#include <string>
#include <unordered_map>

#include "sweep/cell_key.hpp"

namespace aqua::sweep {

/// Lenient per-file summary, shared by the loader and `trace_tools cache`.
struct CacheFileSummary {
  std::size_t entries = 0;     ///< valid records (after dedup, last wins)
  std::size_t records = 0;     ///< valid records including duplicates
  std::size_t bad_lines = 0;   ///< unparsable / hash-mismatched lines
  std::size_t stale_salt = 0;  ///< records from another schema version
  std::map<std::string, std::size_t> per_sweep;  ///< "sweep" field -> count
};

class SweepCache {
 public:
  static constexpr const char* kEnv = "AQUA_SWEEP_CACHE";
  static constexpr const char* kFileName = "sweep_cache.jsonl";

  /// The process cache, configured from AQUA_SWEEP_CACHE on first call.
  static SweepCache& instance();

  /// Points the cache at `dir` (loading any existing file) or disables and
  /// clears it when `dir` is empty. Tests and tools call this directly.
  void configure(const std::string& dir);

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] std::string file_path() const;

  /// On hit copies the cell's values into `out` and returns true. Always
  /// counts a hit or a miss (no-op false when disabled).
  bool lookup(const CellConfig& config, std::map<std::string, double>* out);

  /// Persists one completed cell (no-op when disabled; duplicate stores of
  /// a cell already in memory do not grow the file).
  void store(const CellConfig& config,
             const std::map<std::string, double>& values);

  /// Counts a cell that was deliberately not cached (poisoned by
  /// AQUA_FAULT_CELL) — the never-cache path of DESIGN.md §9.
  void count_skip();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t skips = 0;
    std::uint64_t loaded = 0;      ///< entries served from disk at configure
    std::uint64_t bad_lines = 0;   ///< corrupt lines skipped at configure
    std::uint64_t stale_salt = 0;  ///< other-salt records skipped
  };
  /// Counts since the last configure().
  [[nodiscard]] Stats stats() const;

 private:
  SweepCache() = default;

  mutable std::mutex mutex_;
  std::string dir_;
  std::string path_;  ///< empty = disabled
  std::unordered_map<std::string, std::map<std::string, double>> entries_;
  std::ofstream out_;  ///< opened lazily on first store
  Stats stats_;
};

/// Lenient scan of one cache file (missing file -> zero summary); the
/// inspection behind `trace_tools cache`.
CacheFileSummary inspect_cache_file(const std::string& path);

}  // namespace aqua::sweep
