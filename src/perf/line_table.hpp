#pragma once

/// Flat hash table keyed by cache-line address — the home banks'
/// directory store.
///
/// Open addressing with linear probing over a power-of-two slot array,
/// Fibonacci (multiplicative) hashing, and no erase: a directory entry,
/// once created, lives as long as the simulation. The table starts small
/// and doubles at 3/4 load. Every 64-bit value is a valid key (0 and ~0
/// included — trace files carry arbitrary addresses), so occupancy is a
/// per-slot flag, never a reserved key.
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
  LineTable() : slots_(kInitialCapacity), shift_(64 - kInitialBits) {}

  /// The entry for `line`, or nullptr if the line was never inserted.
  Value* find(LineAddr line) {
    for (std::size_t i = home(line);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
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
    for (;; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (!s.used) break;
      if (s.line == line) return s.value;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = home(line);
      while (slots_[i].used) i = (i + 1) & (slots_.size() - 1);
    }
    Slot& s = slots_[i];
    s.used = true;
    s.line = line;
    ++size_;
    return s.value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t state_bytes() const {
    return slots_.size() * sizeof(Slot);
  }

  /// Visits every entry as (line, value) in slot order — a hash-layout
  /// order: callers that need a stable order must sort.
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (const Slot& s : slots_) {
      if (s.used) visit(s.line, s.value);
    }
  }

 private:
  static constexpr unsigned kInitialBits = 4;
  static constexpr std::size_t kInitialCapacity = std::size_t{1}
                                                  << kInitialBits;

  struct Slot {
    LineAddr line = 0;
    Value value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t home(LineAddr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.line);
      while (slots_[i].used) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_;  ///< 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace aqua
