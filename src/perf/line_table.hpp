#pragma once

/// Flat hash table keyed by cache-line address — the home banks'
/// directory store.
///
/// Open addressing with linear probing over a power-of-two slot array,
/// Fibonacci (multiplicative) hashing, and no erase: a directory entry,
/// once created, lives as long as the simulation. The table starts small
/// and doubles at 3/4 load. Every 64-bit value is a valid key (0 and ~0
/// included — trace files carry arbitrary addresses), so occupancy is a
/// per-table bitmap (one bit per slot), never a reserved key, and a slot is
/// just the line and its value.
///
/// Growth moves every entry: a reference returned by `find` or
/// `operator[]` stays valid only until the next insert of a *different*
/// line. The directory handlers only ever insert the line they are
/// handling, which is what keeps their held `DirEntry&` valid.

#include <cstdint>
#include <utility>
#include <vector>

#include "perf/params.hpp"

namespace aqua {

template <class Value>
class LineTable {
 public:
  LineTable()
      : slots_(kInitialCapacity),
        used_(words_for(kInitialCapacity)),
        shift_(64 - kInitialBits) {}

  /// The entry for `line`, or nullptr if the line was never inserted.
  Value* find(LineAddr line) {
    for (std::size_t i = home(line);; i = (i + 1) & (slots_.size() - 1)) {
      if (!used(i)) return nullptr;
      Slot& s = slots_[i];
      if (s.line == line) return &s.value;
    }
  }
  const Value* find(LineAddr line) const {
    return const_cast<LineTable*>(this)->find(line);
  }

  /// The entry for `line`, value-initialized on first use. Inserting may
  /// grow the table (see the header note on reference lifetime).
  Value& operator[](LineAddr line) {
    std::size_t i = home(line);
    for (; used(i); i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.line == line) return s.value;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = free_slot(line);
    }
    Slot& s = slots_[i];
    mark_used(i);
    s.line = line;
    ++size_;
    return s.value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t state_bytes() const {
    return slots_.size() * sizeof(Slot) +
           used_.size() * sizeof(std::uint64_t);
  }

  /// Visits every entry as (line, value) in slot order — a hash-layout
  /// order: callers that need a stable order must sort.
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used(i)) visit(slots_[i].line, slots_[i].value);
    }
  }

 private:
  static constexpr unsigned kInitialBits = 4;
  static constexpr std::size_t kInitialCapacity = std::size_t{1}
                                                  << kInitialBits;

  struct Slot {
    LineAddr line = 0;
    Value value{};
  };

  static std::size_t words_for(std::size_t slots) {
    return (slots + 63) / 64;
  }

  [[nodiscard]] bool used(std::size_t i) const {
    return (used_[i >> 6] >> (i & 63)) & 1;
  }
  void mark_used(std::size_t i) {
    used_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// The first unused slot on `line`'s probe path.
  [[nodiscard]] std::size_t free_slot(LineAddr line) const {
    std::size_t i = home(line);
    while (used(i)) i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  [[nodiscard]] std::size_t home(LineAddr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    std::vector<std::uint64_t> old_used(words_for(slots_.size()));
    old_used.swap(used_);
    --shift_;
    for (std::size_t j = 0; j < old.size(); ++j) {
      if (((old_used[j >> 6] >> (j & 63)) & 1) == 0) continue;
      const std::size_t i = free_slot(old[j].line);
      mark_used(i);
      slots_[i] = std::move(old[j]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> used_;  ///< bit i = slot i holds an entry
  unsigned shift_;  ///< 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace aqua
