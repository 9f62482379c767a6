#pragma once

/// Generic set-associative tag store with true-LRU replacement, shared by
/// the per-core L1s and the distributed L2 banks. Data payloads are not
/// simulated (timing-only simulator); `LineState` carries the coherence
/// metadata.
///
/// Storage is split by field (DESIGN.md "DES fast path"): one tag per way,
/// one LRU rank byte per way, one LineState per way and one validity mask
/// per set. A lookup reads only the set's mask and tags, and a way of the
/// simulator's caches costs 10 bytes.

#include <bit>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "perf/params.hpp"

namespace aqua {

/// Set-associative cache of LineState keyed by line address.
template <class LineState>
class SetAssocCache {
  static_assert(std::is_trivially_copyable_v<LineState>,
                "LineState is stored in a plain per-way array");

 public:
  /// Upper bound on the associativity (one validity bit per way).
  static constexpr std::size_t kMaxAssoc = 32;

  /// `capacity_bytes / line_bytes / assoc` sets. A power-of-two set count
  /// (the usual case) indexes by mask; any other count falls back to `%`.
  SetAssocCache(std::size_t capacity_bytes, std::size_t line_bytes,
                std::size_t assoc)
      : assoc_(assoc),
        sets_(capacity_bytes / line_bytes / assoc),
        mask_(std::has_single_bit(sets_) ? sets_ - 1 : 0),
        pow2_(std::has_single_bit(sets_)) {
    require(assoc_ > 0 && sets_ > 0, "cache must have sets and ways");
    require(assoc_ <= kMaxAssoc, "cache associativity exceeds 32 ways");
    tags_.resize(sets_ * assoc_);
    ranks_.resize(sets_ * assoc_);
    states_.resize(sets_ * assoc_);
    valid_.resize(sets_);
  }

  [[nodiscard]] std::size_t sets() const { return sets_; }
  [[nodiscard]] std::size_t assoc() const { return assoc_; }

  /// Looks the line up; touches LRU on hit. Returns nullptr on miss.
  LineState* find(LineAddr line) {
    const std::size_t set = set_of(line);
    const std::size_t way = lookup(set, line);
    if (way == kNoWay) return nullptr;
    touch(set, way);
    return &states_[set * assoc_ + way];
  }

  /// Lookup without LRU update (for snoops / diagnostics).
  const LineState* peek(LineAddr line) const {
    const std::size_t set = set_of(line);
    const std::size_t way = lookup(set, line);
    return way == kNoWay ? nullptr : &states_[set * assoc_ + way];
  }

  /// A victim evicted to make room during insert().
  struct Evicted {
    LineAddr line;
    LineState state;
  };

  /// Inserts (or overwrites) the line. A free way is filled first (the
  /// lowest-numbered one); if the set is full, the least recently used way
  /// for which `can_evict(line, state)` returns true is displaced and
  /// returned; if no way is evictable the insert is rejected (nullopt +
  /// `inserted=false`), which the caller must handle (the blocking
  /// directory retries later). `can_evict` must be a pure predicate: it is
  /// asked about the ways in LRU order, only until one qualifies.
  template <class CanEvict>
  std::optional<Evicted> insert(LineAddr line, LineState state,
                                bool& inserted, CanEvict&& can_evict) {
    inserted = true;
    const std::size_t set = set_of(line);
    const std::size_t base = set * assoc_;
    if (const std::size_t way = lookup(set, line); way != kNoWay) {
      states_[base + way] = state;
      touch(set, way);
      return std::nullopt;
    }
    const std::uint32_t full = full_mask();
    if (valid_[set] != full) {
      const auto way = static_cast<std::size_t>(
          std::countr_zero(~valid_[set] & full));
      fill(set, way, line, state);
      return std::nullopt;
    }
    // Evict the least recently used evictable way: a full set's ranks are
    // a permutation, so asking way by way from rank 0 upward and taking
    // the first yes finds it — usually with one question, the plain LRU.
    std::uint8_t by_rank[kMaxAssoc];
    for (std::size_t i = 0; i < assoc_; ++i) {
      by_rank[ranks_[base + i]] = static_cast<std::uint8_t>(i);
    }
    std::size_t victim = kNoWay;
    for (std::size_t r = 0; r < assoc_; ++r) {
      const std::size_t i = base + by_rank[r];
      if (can_evict(tags_[i], static_cast<const LineState&>(states_[i]))) {
        victim = by_rank[r];
        break;
      }
    }
    if (victim == kNoWay) {
      inserted = false;
      return std::nullopt;
    }
    Evicted out{tags_[base + victim], states_[base + victim]};
    fill(set, victim, line, state);
    return out;
  }

  /// Unconditional insert: evicts the plain LRU way if needed.
  std::optional<Evicted> insert(LineAddr line, LineState state) {
    bool inserted = false;
    auto out = insert(line, state, inserted,
                      [](LineAddr, const LineState&) { return true; });
    ensure(inserted, "unconditional insert failed");
    return out;
  }

  /// Drops the line if present.
  void erase(LineAddr line) {
    const std::size_t set = set_of(line);
    const std::size_t way = lookup(set, line);
    if (way != kNoWay) valid_[set] &= ~(std::uint32_t{1} << way);
  }

  /// Number of valid lines (diagnostics).
  [[nodiscard]] std::size_t occupancy() const {
    std::size_t n = 0;
    for (const std::uint32_t v : valid_) n += std::popcount(v);
    return n;
  }

  /// Visits every valid line in storage order (set-major, then way). Used
  /// by the fault layer to flush a dying core's L1 back to the directory.
  template <class Visit>
  void for_each(Visit&& visit) {
    for (std::size_t set = 0; set < sets_; ++set) {
      for (std::uint32_t v = valid_[set]; v != 0; v &= v - 1) {
        const std::size_t i =
            set * assoc_ + static_cast<std::size_t>(std::countr_zero(v));
        visit(tags_[i], states_[i]);
      }
    }
  }

  /// Bytes held by the tag, rank, state and validity arrays.
  [[nodiscard]] std::size_t state_bytes() const {
    return tags_.size() * sizeof(LineAddr) + ranks_.size() +
           states_.size() * sizeof(LineState) +
           valid_.size() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  [[nodiscard]] std::size_t set_of(LineAddr line) const {
    return pow2_ ? static_cast<std::size_t>(line & mask_)
                 : static_cast<std::size_t>(line % sets_);
  }

  [[nodiscard]] std::uint32_t full_mask() const {
    return assoc_ == kMaxAssoc ? ~std::uint32_t{0}
                               : (std::uint32_t{1} << assoc_) - 1;
  }

  [[nodiscard]] std::size_t lookup(std::size_t set, LineAddr line) const {
    const LineAddr* tags = &tags_[set * assoc_];
    for (std::uint32_t v = valid_[set]; v != 0; v &= v - 1) {
      const auto way = static_cast<std::size_t>(std::countr_zero(v));
      if (tags[way] == line) return way;
    }
    return kNoWay;
  }

  /// Makes `way` the most recently used of its set. Ranks order the ways
  /// by last touch (assoc-1 = newest); untouched ways sit at 0 below every
  /// touched one, so once a set is full its ranks are a permutation and
  /// the lowest evictable rank is exactly the LRU evictable way.
  void touch(std::size_t set, std::size_t way) {
    std::uint8_t* ranks = &ranks_[set * assoc_];
    const std::uint8_t old = ranks[way];
    for (std::size_t i = 0; i < assoc_; ++i) {
      ranks[i] = static_cast<std::uint8_t>(ranks[i] - (ranks[i] > old));
    }
    ranks[way] = static_cast<std::uint8_t>(assoc_ - 1);
  }

  void fill(std::size_t set, std::size_t way, LineAddr line,
            const LineState& state) {
    tags_[set * assoc_ + way] = line;
    states_[set * assoc_ + way] = state;
    valid_[set] |= std::uint32_t{1} << way;
    touch(set, way);
  }

  std::size_t assoc_;
  std::size_t sets_;
  LineAddr mask_;
  bool pow2_;
  std::vector<LineAddr> tags_;
  std::vector<std::uint8_t> ranks_;
  std::vector<LineState> states_;
  std::vector<std::uint32_t> valid_;  ///< per set: bit w = way w valid
};

}  // namespace aqua
