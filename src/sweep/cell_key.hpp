#pragma once

/// Canonical sweep-cell keys for the content-addressed result cache
/// (DESIGN.md §9).
///
/// A `CellConfig` is the complete, canonicalized input description of one
/// sweep cell — the unit of work the Fig. 7-13 drivers repeat across
/// design-space sweeps. Two configs describe the same cell if and only if
/// their canonical serializations are byte-identical, which the builder
/// guarantees by construction:
///
///   * fields serialize in a fixed (lexicographic) order, independent of
///     the order `set()` calls were made in;
///   * field names and string values are whitespace-trimmed, so cosmetic
///     spacing differences cannot split cache entries;
///   * defaults are materialized: the builders in cells.hpp set every
///     optional knob explicitly, so "default grid" and "grid spelled out
///     as 32x32" serialize identically;
///   * floating-point values print in shortest round-trip form
///     (std::to_chars), so parse(print(x)) == x bitwise and no two
///     distinct doubles share a serialization.
///
/// The cache address is a 64-bit FNV-1a hash of the canonical form salted
/// with a schema-version string (kCellKeySalt). Bumping the salt
/// invalidates every existing cache file at once — the upgrade path when a
/// model change makes old results unreproducible.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace aqua::sweep {

/// Schema/version salt mixed into every cell hash. Bump the trailing
/// version whenever the meaning of a cell's fields or the numerics behind
/// a cached value change: a stale-salt cache then yields zero hits and the
/// sweeps recompute (and re-store) everything.
inline constexpr std::string_view kCellKeySalt = "aqua-sweep-v3";

/// FNV-1a over `data`, continuing from `seed` (pass the default offset
/// basis to start a fresh hash).
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = kFnvOffsetBasis);

/// Shortest decimal serialization of a finite double that parses back to
/// exactly the same bits (std::to_chars). Throws aqua::Error on NaN/inf —
/// non-finite values are never legal cell coordinates.
std::string format_double_exact(double value);

/// One sweep cell's canonical input description. See file comment for the
/// canonicalization rules.
class CellConfig {
 public:
  /// Sets (or overwrites) a field. Names and string values are trimmed;
  /// names must be non-empty and must not contain '=' or ';' (the
  /// canonical-form separators); values must not contain ';'.
  CellConfig& set(std::string_view name, std::string_view value);
  CellConfig& set(std::string_view name, const char* value);
  CellConfig& set(std::string_view name, double value);
  CellConfig& set(std::string_view name, std::uint64_t value);
  CellConfig& set(std::string_view name, bool value);

  /// Like set(), but keeps an existing value — the builders use this to
  /// materialize defaults without clobbering explicit settings.
  template <class V>
  CellConfig& set_default(std::string_view name, V&& value) {
    if (fields_.find(std::string(name)) == fields_.end()) {
      set(name, std::forward<V>(value));
    }
    return *this;
  }

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] const std::string* find(std::string_view name) const;
  [[nodiscard]] std::size_t field_count() const { return fields_.size(); }

  /// "name=value;name=value;..." with names in lexicographic order.
  [[nodiscard]] std::string canonical() const;

  /// FNV-1a of salt + '\x1f' + canonical(). The cache address.
  [[nodiscard]] std::uint64_t hash(
      std::string_view salt = kCellKeySalt) const;

  /// hash() rendered as 16 lower-case hex digits (the on-disk form).
  [[nodiscard]] std::string hash_hex(
      std::string_view salt = kCellKeySalt) const;

 private:
  std::map<std::string, std::string> fields_;  // sorted = canonical order
};

/// Renders a 64-bit hash as 16 lower-case hex digits.
std::string to_hex16(std::uint64_t hash);

}  // namespace aqua::sweep
