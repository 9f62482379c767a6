#include "common/stencil.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solvers.hpp"
#include "support/csr_oracle.hpp"

namespace aqua {
namespace {

/// A random 7-point operator on `g` (non-symmetric unless asked),
/// assembled pairwise by the CSR oracle, so the CSR is independent of the
/// stencil code. The diagonal dominates.
oracle::Csr random_stencil_csr(const GridShape& g, std::uint64_t seed,
                               bool symmetric = false) {
  oracle::Coo b(g.nodes());
  Xoshiro256 rng(seed);
  const auto idx = [&](std::size_t l, std::size_t ix, std::size_t iy) {
    return l * g.plane() + iy * g.nx + ix;
  };
  const auto couple = [&](std::size_t p, std::size_t q) {
    const double pq = rng.uniform(-1.0, 0.0);
    b.add(p, q, pq);
    b.add(q, p, symmetric ? pq : rng.uniform(-1.0, 0.0));
  };
  for (std::size_t l = 0; l < g.layers; ++l) {
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix) {
        const std::size_t p = idx(l, ix, iy);
        b.add(p, p, rng.uniform(7.0, 8.0));
        if (ix + 1 < g.nx) couple(p, idx(l, ix + 1, iy));
        if (iy + 1 < g.ny) couple(p, idx(l, ix, iy + 1));
        if (l + 1 < g.layers) couple(p, idx(l + 1, ix, iy));
      }
    }
  }
  return b.build();
}

/// Equal bits, or both NaN (a NaN's payload is not part of the contract).
bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

::testing::AssertionResult multiply_matches(const StencilMatrix& stencil,
                                            const oracle::Csr& csr,
                                            const std::vector<double>& x) {
  std::vector<double> got(stencil.rows());
  std::vector<double> want(csr.rows());
  stencil.multiply(x, got);
  oracle::multiply(csr, x, want);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!same_value(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::string shape_name(const GridShape& g) {
  return std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
         std::to_string(g.layers);
}

TEST(Stencil, MultiplyMatchesCsrBitwise) {
  const GridShape planes[] = {{32, 32, 1}, {5, 7, 1}, {17, 9, 1}, {9, 2, 1}};
  for (const GridShape& plane : planes) {
    for (const std::size_t layers : {1u, 3u, 15u}) {
      const GridShape g{plane.nx, plane.ny, layers};
      SCOPED_TRACE(shape_name(g));
      const oracle::Csr csr = random_stencil_csr(g, g.nodes());
      const StencilMatrix stencil = oracle::to_stencil(csr, g);
      Xoshiro256 rng(3);
      std::vector<double> x(g.nodes());
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      ASSERT_TRUE(multiply_matches(stencil, csr, x));
      // Zeros of both signs: the +0.0 accumulator must not leak a sign.
      for (std::size_t i = 0; i < x.size(); i += 3) x[i] = i % 2 ? 0.0 : -0.0;
      ASSERT_TRUE(multiply_matches(stencil, csr, x));
      // Non-finite entries, one on a grid corner: an off-grid neighbour
      // never multiplies them.
      x.front() = std::numeric_limits<double>::infinity();
      x.back() = -std::numeric_limits<double>::infinity();
      x[x.size() / 2] = std::numeric_limits<double>::quiet_NaN();
      ASSERT_TRUE(multiply_matches(stencil, csr, x));
    }
  }
}

TEST(Stencil, ToCsrRoundTripsTheBuilder) {
  for (const GridShape& g :
       {GridShape{4, 3, 2}, GridShape{1, 5, 3}, GridShape{6, 1, 1}}) {
    SCOPED_TRACE(shape_name(g));
    const oracle::Csr csr = random_stencil_csr(g, 9);
    const oracle::Csr back = oracle::to_csr(oracle::to_stencil(csr, g));
    ASSERT_EQ(back.row_ptr, csr.row_ptr);
    ASSERT_EQ(back.col_idx, csr.col_idx);
    for (std::size_t k = 0; k < csr.nonzeros(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back.values[k]),
                std::bit_cast<std::uint64_t>(csr.values[k]));
    }
  }
}

TEST(Stencil, FromCsrRejectsAnythingButTheSevenPointStencil) {
  const GridShape g{4, 3, 2};
  const oracle::Csr good = random_stencil_csr(g, 2);
  EXPECT_NO_THROW((void)oracle::to_stencil(good, g));
  // Wrong shape for the right size, and the wrong size.
  EXPECT_THROW((void)oracle::to_stencil(good, GridShape{3, 4, 2}), Error);
  EXPECT_THROW((void)oracle::to_stencil(good, GridShape{4, 3, 3}), Error);

  // Rebuilds `good` with row `row`'s entries filtered / extended.
  const auto edited = [&](std::size_t row, bool drop_first_off_diagonal,
                          std::ptrdiff_t extra_offset) {
    oracle::Coo b(g.nodes());
    for (std::size_t r = 0; r < good.rows(); ++r) {
      bool dropped = false;
      for (std::size_t k = good.row_ptr[r]; k < good.row_ptr[r + 1]; ++k) {
        const std::size_t c = good.col_idx[k];
        if (r == row && drop_first_off_diagonal && c != r && !dropped) {
          dropped = true;
          continue;
        }
        b.add(r, c, good.values[k]);
      }
      if (r == row && extra_offset != 0) {
        b.add(r, static_cast<std::size_t>(static_cast<std::ptrdiff_t>(r) +
                                           extra_offset),
              0.25);
      }
    }
    return b.build();
  };
  const std::size_t interior = g.plane() + g.nx + 1;  // (layer 1, 1, 1)
  // A missing neighbour.
  EXPECT_THROW((void)oracle::to_stencil(edited(interior, true, 0), g), Error);
  // A diagonal (ix+1, iy+1) coupling, and a wrap-around "-1" neighbour of
  // a row's first node.
  EXPECT_THROW(
      (void)oracle::to_stencil(
          edited(interior, false, static_cast<std::ptrdiff_t>(g.nx) + 1), g),
      Error);
  EXPECT_THROW((void)oracle::to_stencil(edited(g.nx, false, -1), g), Error);
}

TEST(Stencil, DiagonalIsTheDiagonalBand) {
  const GridShape g{3, 3, 2};
  const oracle::Csr csr = random_stencil_csr(g, 4);
  std::vector<double> want(g.nodes());
  for (std::size_t r = 0; r < g.nodes(); ++r) {
    for (std::size_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      if (csr.col_idx[k] == r) want[r] = csr.values[k];
    }
  }
  const StencilMatrix stencil = oracle::to_stencil(csr, g);
  EXPECT_EQ(stencil.diagonal(), want);
  std::vector<double> y(g.nodes());
  EXPECT_THROW(stencil.multiply(std::vector<double>(g.nodes() + 1), y), Error);
}

TEST(Stencil, NonFiniteRhsThrows) {
  // A non-finite right-hand side poisons CG's first residual: the solve
  // throws rather than iterate on it or hand back an answer, with the
  // default Jacobi and with a caller-given preconditioner alike.
  const GridShape g{6, 5, 3};
  const StencilMatrix stencil =
      oracle::to_stencil(random_stencil_csr(g, 8, /*symmetric=*/true), g);
  const JacobiPreconditioner given(stencil);
  SolverOptions options;
  options.max_iterations = 200;
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};
  for (const double poison : poisons) {
    for (const std::size_t at : {std::size_t{0}, g.nodes() / 2}) {
      SCOPED_TRACE(std::to_string(poison) + " at " + std::to_string(at));
      std::vector<double> b(g.nodes(), 1.0);
      b[at] = poison;
      EXPECT_THROW((void)solve_cg(stencil, b, options), Error);
      EXPECT_THROW((void)solve_cg(stencil, b, options, &given), Error);
    }
  }
}

}  // namespace
}  // namespace aqua
