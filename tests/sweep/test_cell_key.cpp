/// Property and metamorphic tests for the canonical sweep-cell key
/// (DESIGN.md §9): serialization invariances, default materialization,
/// exact float round-trips, salt sensitivity and a randomized no-collision
/// smoke over a seeded corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/cells.hpp"

namespace aqua::sweep {
namespace {

// ------------------------------------------------------------ canonical --

TEST(CellKey, CanonicalIsSortedNameValueList) {
  CellConfig c;
  c.set("chips", std::uint64_t{6}).set("bench", "ft").set("sweep", "npb_des");
  EXPECT_EQ(c.canonical(), "bench=ft;chips=6;sweep=npb_des");
  EXPECT_EQ(c.field_count(), 3u);
}

TEST(CellKey, FieldOrderInvariance) {
  CellConfig a;
  a.set("sweep", "freq_cap").set("chip", "low_power").set("chips",
                                                          std::uint64_t{4});
  CellConfig b;
  b.set("chips", std::uint64_t{4}).set("sweep", "freq_cap").set("chip",
                                                                "low_power");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CellKey, WhitespaceInvariance) {
  CellConfig a;
  a.set("  chip \t", "  low_power  ").set(" cooling", "water ");
  CellConfig b;
  b.set("chip", "low_power").set("cooling", "water");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CellKey, LastSetWins) {
  CellConfig c;
  c.set("chips", std::uint64_t{4}).set("chips", std::uint64_t{8});
  EXPECT_EQ(c.canonical(), "chips=8");
  EXPECT_EQ(c.field_count(), 1u);
}

TEST(CellKey, SetDefaultKeepsExplicitValue) {
  CellConfig c;
  c.set("grid_nx", std::uint64_t{16});
  c.set_default("grid_nx", std::uint64_t{32});
  c.set_default("grid_ny", std::uint64_t{32});
  EXPECT_EQ(c.canonical(), "grid_nx=16;grid_ny=32");
}

TEST(CellKey, SeparatorCharactersRejected) {
  CellConfig c;
  EXPECT_THROW(c.set("a=b", "x"), Error);
  EXPECT_THROW(c.set("a;b", "x"), Error);
  EXPECT_THROW(c.set("", "x"), Error);
  EXPECT_THROW(c.set("   ", "x"), Error);
  EXPECT_THROW(c.set("a", "x;y"), Error);
  EXPECT_NO_THROW(c.set("a", "x=y"));  // '=' in values is unambiguous
}

// ------------------------------------------------ default materialization --

TEST(CellKey, BuildersMaterializeGridDefaults) {
  // A caller passing GridOptions{} and one spelling every knob out with the
  // same values must address the same cell.
  GridOptions spelled;
  spelled.nx = 32;
  spelled.ny = 32;
  spelled.solver.tolerance = GridOptions{}.solver.tolerance;
  spelled.solver.max_iterations = GridOptions{}.solver.max_iterations;

  const CellConfig a = freq_cap_cell("low_power", 4, "water", 80.0, {});
  const CellConfig b = freq_cap_cell("low_power", 4, "water", 80.0, spelled);
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());

  // And every discretization knob really is part of the address.
  GridOptions coarse;
  coarse.nx = 16;
  coarse.ny = 16;
  const CellConfig c = freq_cap_cell("low_power", 4, "water", 80.0, coarse);
  EXPECT_NE(a.canonical(), c.canonical());
}

TEST(CellKey, NpbDesKeyOmitsCooling) {
  // The DES dedupe contract: the run is fully determined by topology,
  // workload, clock and seed — there is no cooling field to split on.
  const CellConfig a = npb_des_cell(6, 4, "ft", 1.6e9, 100000, 1, false);
  EXPECT_FALSE(a.contains("cooling"));
  const CellConfig b = npb_des_cell(6, 4, "ft", 1.6e9, 100000, 1, false);
  EXPECT_EQ(a.hash(), b.hash());
  // ... while every input that does change the run changes the address.
  EXPECT_NE(a.hash(), npb_des_cell(6, 4, "ft", 1.8e9, 100000, 1, false).hash());
  EXPECT_NE(a.hash(), npb_des_cell(6, 4, "ft", 1.6e9, 100000, 2, false).hash());
  EXPECT_NE(a.hash(), npb_des_cell(6, 4, "ft", 1.6e9, 100000, 1, true).hash());
  EXPECT_NE(a.hash(), npb_des_cell(8, 4, "ft", 1.6e9, 100000, 1, false).hash());
}

// ------------------------------------------------------- float exactness --

TEST(CellKey, DoubleSerializationRoundTripsBitwise) {
  const std::vector<double> tricky{
      0.1,
      1.0 / 3.0,
      1e-9,
      2e9,
      1.6e9,
      80.0,
      -273.15,
      3.141592653589793,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::epsilon(),
      0.0,
  };
  for (const double value : tricky) {
    const std::string text = format_double_exact(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    std::uint64_t in_bits = 0;
    std::uint64_t out_bits = 0;
    std::memcpy(&in_bits, &value, sizeof value);
    std::memcpy(&out_bits, &parsed, sizeof parsed);
    EXPECT_EQ(in_bits, out_bits) << "value " << text;
  }
}

TEST(CellKey, AdjacentDoublesGetDistinctSerializations) {
  const double base = 0.8994;  // a realistic relative-time value
  const double next = std::nextafter(base, 1.0);
  EXPECT_NE(format_double_exact(base), format_double_exact(next));
}

TEST(CellKey, NonFiniteValuesRejected) {
  CellConfig c;
  EXPECT_THROW(c.set("x", std::nan("")), Error);
  EXPECT_THROW(c.set("x", std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(format_double_exact(-std::numeric_limits<double>::infinity()),
               Error);
}

TEST(CellKey, RandomDoublesRoundTripBitwise) {
  Xoshiro256 rng(20260806);
  for (int i = 0; i < 5000; ++i) {
    // Mix magnitudes from denormal-ish to 1e12 (the hz range and beyond).
    const double magnitude = std::pow(10.0, rng.uniform(-12.0, 12.0));
    const double value = (rng.uniform() - 0.5) * magnitude;
    const std::string text = format_double_exact(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    std::uint64_t in_bits = 0;
    std::uint64_t out_bits = 0;
    std::memcpy(&in_bits, &value, sizeof value);
    std::memcpy(&out_bits, &parsed, sizeof parsed);
    ASSERT_EQ(in_bits, out_bits) << "value " << text;
  }
}

// ------------------------------------------------------------------ hash --

TEST(CellKey, SaltChangesEveryHash) {
  const CellConfig c = freq_cap_cell("low_power", 4, "water", 80.0, {});
  EXPECT_NE(c.hash(kCellKeySalt), c.hash("aqua-sweep-v4"));
  EXPECT_NE(c.hash_hex(kCellKeySalt), c.hash_hex("aqua-sweep-v4"));
}

TEST(CellKey, HashHexIsSixteenLowercaseDigits) {
  const CellConfig c = htc_cell("low_power", 4, 800.0, {});
  const std::string hex = c.hash_hex();
  ASSERT_EQ(hex.size(), 16u);
  for (const char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) << hex;
  }
  EXPECT_EQ(to_hex16(0), "0000000000000000");
  EXPECT_EQ(to_hex16(0xdeadbeefcafef00dull), "deadbeefcafef00d");
}

TEST(CellKey, FnvMatchesReferenceVectors) {
  // Classic FNV-1a 64 test vectors pin the exact on-disk hash function.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(CellKey, NoCollisionSmokeOverSeededCorpus) {
  // ~20k distinct keys drawn from the sweep families' realistic value
  // ranges. A 64-bit hash collision here is ~1e-11 likely by chance, so
  // any collision means the hash chain (salt, separator, canonical) is
  // broken.
  Xoshiro256 rng(42);
  const std::vector<std::string> chips{"low_power", "high_freq", "e5", "phi"};
  const std::vector<std::string> coolings{"air", "water_pipe", "mineral_oil",
                                          "fluorinert", "water"};
  const std::vector<std::string> benches{"bt", "cg", "dc", "ep", "ft",
                                         "is",  "lu", "mg", "sp"};
  std::unordered_map<std::uint64_t, std::string> seen;
  std::size_t distinct = 0;
  for (int i = 0; i < 20000; ++i) {
    CellConfig config;
    switch (rng.uniform_index(4)) {
      case 0: {
        GridOptions grid;
        grid.nx = 8 << rng.uniform_index(4);
        grid.ny = 8 << rng.uniform_index(4);
        config = freq_cap_cell(chips[rng.uniform_index(chips.size())],
                               1 + rng.uniform_index(16),
                               coolings[rng.uniform_index(coolings.size())],
                               rng.uniform(60.0, 110.0), grid);
        break;
      }
      case 1:
        config = npb_des_cell(
            1 + rng.uniform_index(16), 4,
            benches[rng.uniform_index(benches.size())],
            rng.uniform(1.0e9, 3.6e9), 1 + rng.uniform_index(1000000),
            rng.uniform_index(1000), rng.uniform_index(2) == 1);
        break;
      case 2:
        config = htc_cell(chips[rng.uniform_index(chips.size())],
                          1 + rng.uniform_index(16),
                          rng.uniform(10.0, 4000.0), {});
        break;
      default:
        config = rotation_cell(chips[rng.uniform_index(chips.size())],
                               1 + rng.uniform_index(16),
                               coolings[rng.uniform_index(coolings.size())],
                               rng.uniform_index(16),
                               rng.uniform(1.0e9, 3.6e9), {});
        break;
    }
    const std::string canonical = config.canonical();
    const auto [it, fresh] = seen.emplace(config.hash(), canonical);
    if (fresh) {
      ++distinct;
    } else {
      ASSERT_EQ(it->second, canonical)
          << "hash collision between distinct cells";
    }
  }
  // The corpus must actually exercise distinct keys, not one key 20k times.
  EXPECT_GT(distinct, 15000u);
}

}  // namespace
}  // namespace aqua::sweep
