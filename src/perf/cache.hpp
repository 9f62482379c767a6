#pragma once

/// Generic set-associative tag store with true-LRU replacement, shared by
/// the per-core L1s and the distributed L2 banks. Data payloads are not
/// simulated (timing-only simulator); `LineState` carries the coherence
/// metadata.
///
/// Storage is split by field (DESIGN.md "DES fast path"): one tag per way,
/// one LRU rank byte per way and one LineState per way, plus a validity
/// mask and a storage slot per set. A set's ways get storage only when the
/// set is first filled, in first-fill order, so a cache costs 8 bytes per
/// set plus 10 bytes per way of the sets it has touched. A lookup reads
/// only the set's head and tags.
///
/// Filling a set for the first time may move every set's ways: a pointer
/// returned by `find` or `peek` stays valid only until the next `insert`
/// that fills a set never filled before. The simulator never holds one
/// across an insert.

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
    heads_.resize(sets_);
  }

  [[nodiscard]] std::size_t sets() const { return sets_; }
  [[nodiscard]] std::size_t assoc() const { return assoc_; }

  /// Looks the line up; touches LRU on hit. Returns nullptr on miss.
  LineState* find(LineAddr line) {
    const SetHead& head = heads_[set_of(line)];
    const std::size_t way = lookup(head, line);
    if (way == kNoWay) return nullptr;
    const std::size_t base = base_of(head);
    touch(base, way);
    return &states_[base + way];
  }

  /// Lookup without LRU update (for snoops / diagnostics).
  const LineState* peek(LineAddr line) const {
    const SetHead& head = heads_[set_of(line)];
    const std::size_t way = lookup(head, line);
    return way == kNoWay ? nullptr : &states_[base_of(head) + way];
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
    SetHead& head = heads_[set_of(line)];
    if (const std::size_t way = lookup(head, line); way != kNoWay) {
      const std::size_t base = base_of(head);
      states_[base + way] = state;
      touch(base, way);
      return std::nullopt;
    }
    const std::uint32_t full = full_mask();
    if (head.valid != full) {
      if (head.slot == kNoSlot) allocate(head);
      const auto way = static_cast<std::size_t>(
          std::countr_zero(~head.valid & full));
      fill(head, way, line, state);
      return std::nullopt;
    }
    // Evict the least recently used evictable way: a full set's ranks are
    // a permutation, so asking way by way from rank 0 upward and taking
    // the first yes finds it — usually with one question, the plain LRU.
    const std::size_t base = base_of(head);
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
    fill(head, victim, line, state);
    return out;
  }

  /// Unconditional insert: evicts the plain LRU way if needed.
  std::optional<Evicted> insert(LineAddr line, LineState state) {
    bool inserted = false;
    auto out = insert(line, state, inserted,
                      [](LineAddr, const LineState&) { return true; });
    if (!inserted) ensure(false, "unconditional insert failed");
    return out;
  }

  /// Drops the line if present. The set keeps its storage.
  void erase(LineAddr line) {
    SetHead& head = heads_[set_of(line)];
    const std::size_t way = lookup(head, line);
    if (way != kNoWay) head.valid &= ~(std::uint32_t{1} << way);
  }

  /// Number of valid lines (diagnostics).
  [[nodiscard]] std::size_t occupancy() const {
    std::size_t n = 0;
    for (const SetHead& head : heads_) n += std::popcount(head.valid);
    return n;
  }

  /// Number of sets ever filled, i.e. holding way storage (diagnostics).
  [[nodiscard]] std::size_t sets_filled() const {
    return ranks_.size() / assoc_;
  }

  /// Visits every valid line in set-major, then way order (the cache
  /// oracle test compares contents through it).
  template <class Visit>
  void for_each(Visit&& visit) {
    for (const SetHead& head : heads_) {
      for (std::uint32_t v = head.valid; v != 0; v &= v - 1) {
        const std::size_t i =
            base_of(head) + static_cast<std::size_t>(std::countr_zero(v));
        visit(tags_[i], states_[i]);
      }
    }
  }

  /// Bytes held by the set heads and by the tag, rank and state arrays of
  /// the filled sets.
  [[nodiscard]] std::size_t state_bytes() const {
    return heads_.size() * sizeof(SetHead) +
           sets_filled() * assoc_ *
               (sizeof(LineAddr) + sizeof(std::uint8_t) + sizeof(LineState));
  }

 private:
  static constexpr std::size_t kNoWay = ~std::size_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Per set: bit w of `valid` = way w valid; `slot` = index of the set's
  /// ways in the way arrays (kNoSlot until the set is first filled).
  struct SetHead {
    std::uint32_t valid = 0;
    std::uint32_t slot = kNoSlot;
  };

  [[nodiscard]] std::size_t set_of(LineAddr line) const {
    return pow2_ ? static_cast<std::size_t>(line & mask_)
                 : static_cast<std::size_t>(line % sets_);
  }

  [[nodiscard]] std::size_t base_of(const SetHead& head) const {
    return std::size_t{head.slot} * assoc_;
  }

  [[nodiscard]] std::uint32_t full_mask() const {
    return assoc_ == kMaxAssoc ? ~std::uint32_t{0}
                               : (std::uint32_t{1} << assoc_) - 1;
  }

  /// The way holding `line`, or kNoWay. An unfilled set has no valid way,
  /// so its slot is never read.
  [[nodiscard]] std::size_t lookup(const SetHead& head, LineAddr line) const {
    std::uint32_t v = head.valid;
    if (v == 0) return kNoWay;
    const LineAddr* tags = &tags_[base_of(head)];
    for (; v != 0; v &= v - 1) {
      const auto way = static_cast<std::size_t>(std::countr_zero(v));
      if (tags[way] == line) return way;
    }
    return kNoWay;
  }

  /// Gives a set its ways at the end of the way arrays, ranks all 0.
  void allocate(SetHead& head) {
    head.slot = static_cast<std::uint32_t>(sets_filled());
    const std::size_t n = ranks_.size() + assoc_;
    tags_.resize(n);
    ranks_.resize(n);
    states_.resize(n);
  }

  /// Makes `way` the most recently used of its set. Ranks order the ways
  /// by last touch (assoc-1 = newest); untouched ways sit at 0 below every
  /// touched one, so once a set is full its ranks are a permutation and
  /// the lowest evictable rank is exactly the LRU evictable way.
  void touch(std::size_t base, std::size_t way) {
    std::uint8_t* ranks = &ranks_[base];
    const std::uint8_t old = ranks[way];
    for (std::size_t i = 0; i < assoc_; ++i) {
      ranks[i] = static_cast<std::uint8_t>(ranks[i] - (ranks[i] > old));
    }
    ranks[way] = static_cast<std::uint8_t>(assoc_ - 1);
  }

  void fill(SetHead& head, std::size_t way, LineAddr line,
            const LineState& state) {
    const std::size_t base = base_of(head);
    tags_[base + way] = line;
    states_[base + way] = state;
    head.valid |= std::uint32_t{1} << way;
    touch(base, way);
  }

  std::size_t assoc_;
  std::size_t sets_;
  LineAddr mask_;
  bool pow2_;
  std::vector<SetHead> heads_;
  std::vector<LineAddr> tags_;       ///< assoc_ per filled set, by slot
  std::vector<std::uint8_t> ranks_;  ///< assoc_ per filled set, by slot
  std::vector<LineState> states_;    ///< assoc_ per filled set, by slot
};

}  // namespace aqua
