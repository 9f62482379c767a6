#pragma once

/// Deterministic shard partitioning for scale-out sweep runs (DESIGN.md
/// §9).
///
/// Env contract (read at SweepRunner construction, so tests can repoint):
///   AQUA_SWEEP_SHARDS=N     -> the sweep is split across N workers
///   AQUA_SWEEP_SHARD_ID=k   -> this process is worker k (0-based)
///
/// A cell belongs to shard k iff hash(cell) % N == k, so the partition is
/// a pure function of the canonical cell key: every shard agrees on who
/// owns what without any coordination, re-running a shard is idempotent,
/// and adding cache files from other shards never conflicts. Cells this
/// shard does not own are skipped (left as table holes). The full table is
/// assembled from the content cache: run each shard with its own
/// AQUA_SWEEP_CACHE directory, concatenate the per-shard sweep_cache.jsonl
/// files into one, and replay once unsharded against it (the lenient cache
/// loader dedups repeated cells and skips torn lines).

#include <cstddef>
#include <cstdint>

namespace aqua::sweep {

struct ShardPlan {
  static constexpr const char* kShardsEnv = "AQUA_SWEEP_SHARDS";
  static constexpr const char* kShardIdEnv = "AQUA_SWEEP_SHARD_ID";

  std::size_t shards = 1;
  std::size_t id = 0;

  /// Parses the env contract; throws aqua::Error on malformed values
  /// (non-numeric, zero shards, id >= shards). Unset env = single shard.
  static ShardPlan from_env();

  [[nodiscard]] bool active() const { return shards > 1; }

  /// True when this shard computes the cell with the given key hash.
  [[nodiscard]] bool owns(std::uint64_t hash) const {
    return shards <= 1 || hash % shards == id;
  }
};

}  // namespace aqua::sweep
