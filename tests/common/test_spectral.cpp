#include "common/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solvers.hpp"
#include "common/stencil.hpp"

namespace aqua {
namespace {

using Band = StencilMatrix::Band;

/// Per-layer coefficients of a layered operator: lateral conductances,
/// a ground term per layer, and the vertical conductance of each layer
/// interface (all positive).
struct Layers {
  std::vector<double> gx, gy, ground, gv;
};

/// Writes the layered operator of `c` into `g`'s bands the way the stack
/// model assembles its matrix: each diagonal sums its terms from 0.0.
StencilMatrix layered_operator(const GridShape& g, const Layers& c) {
  StencilMatrix a(g);
  const auto down = a.band(Band::kMinusPlane);
  const auto south = a.band(Band::kMinusRow);
  const auto west = a.band(Band::kMinusOne);
  const auto diag = a.band(Band::kDiag);
  const auto east = a.band(Band::kPlusOne);
  const auto north = a.band(Band::kPlusRow);
  const auto up = a.band(Band::kPlusPlane);
  std::size_t i = 0;
  for (std::size_t l = 0; l < g.layers; ++l) {
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      for (std::size_t ix = 0; ix < g.nx; ++ix, ++i) {
        double d = 0.0;
        if (iy > 0) d += c.gy[l];
        if (ix > 0) d += c.gx[l];
        if (ix + 1 < g.nx) d += c.gx[l];
        if (iy + 1 < g.ny) d += c.gy[l];
        if (l > 0) d += c.gv[l - 1];
        if (l + 1 < g.layers) d += c.gv[l];
        d += c.ground[l];
        if (l > 0) down[i] = -c.gv[l - 1];
        if (iy > 0) south[i] = -c.gy[l];
        if (ix > 0) west[i] = -c.gx[l];
        diag[i] = d;
        if (ix + 1 < g.nx) east[i] = -c.gx[l];
        if (iy + 1 < g.ny) north[i] = -c.gy[l];
        if (l + 1 < g.layers) up[i] = -c.gv[l];
      }
    }
  }
  return a;
}

/// Random coefficients in [0.1, 1]: every layer grounded, so the
/// operator's condition number stays near 100 and rounding alone cannot
/// move a residual past 1e-12.
Layers random_layers(std::size_t layers, Xoshiro256& rng) {
  Layers c;
  for (std::size_t l = 0; l < layers; ++l) {
    c.gx.push_back(rng.uniform(0.1, 1.0));
    c.gy.push_back(rng.uniform(0.1, 1.0));
    c.ground.push_back(rng.uniform(0.1, 1.0));
    if (l + 1 < layers) c.gv.push_back(rng.uniform(0.1, 1.0));
  }
  return c;
}

/// The stack's shape of coupling: strong lateral, weak vertical, and a
/// ground term on the outer layers only (the convective boundaries).
StencilMatrix stack_like_matrix(const GridShape& g) {
  Layers c;
  for (std::size_t l = 0; l < g.layers; ++l) {
    c.gx.push_back(1.0);
    c.gy.push_back(1.0);
    c.ground.push_back(l == 0 || l + 1 == g.layers ? 0.1 : 0.0);
    if (l + 1 < g.layers) c.gv.push_back(0.01);
  }
  return layered_operator(g, c);
}

std::vector<double> random_vector(std::size_t n, Xoshiro256& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

std::string shape_name(const GridShape& g) {
  return std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
         std::to_string(g.layers);
}

/// Calls `check` on random layered operators over every pairing of the
/// extents {1, 2, 3, 4, 7, 16, 33} (square and not), two per pairing,
/// each with 1 to 20 layers.
template <typename Check>
void for_random_layered_operators(Check check) {
  const std::size_t extents[] = {1, 2, 3, 4, 7, 16, 33};
  Xoshiro256 rng(29);
  for (const std::size_t nx : extents) {
    for (const std::size_t ny : extents) {
      for (int trial = 0; trial < 2; ++trial) {
        const GridShape g{nx, ny, 1 + rng.uniform_index(20)};
        SCOPED_TRACE(shape_name(g));
        check(layered_operator(g, random_layers(g.layers, rng)), rng);
      }
    }
  }
}

/// The n x n orthonormal DCT-II, row k holding mode k: the transform
/// oracle, straight from the definition.
std::vector<double> dct_matrix(std::size_t n) {
  std::vector<double> c(n * n);
  const double size = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double scale = std::sqrt((k == 0 ? 1.0 : 2.0) / size);
    for (std::size_t i = 0; i < n; ++i) {
      c[k * n + i] =
          scale * std::cos(std::numbers::pi * static_cast<double>(k) *
                           (2.0 * static_cast<double>(i) + 1.0) / (2.0 * size));
    }
  }
  return c;
}

/// The largest |a - b| over two blocks.
double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(FastDct, MatchesDenseProductForEveryLengthUpTo256) {
  // Every n in [1, 256]: powers of two, 2^k times 3, 5, ..., and primes
  // (a dense base of n). With n = 2^a m, m odd, the bound per unit of
  // input is 4 eps (n + m^2): the dense products cost about n eps, and
  // the last split's 1 / (2 cos(pi (2i + 1) / 4m)) twiddles, up to about
  // 2m / pi, scale the m-point base's rounding by m. Measured worst case
  // about a quarter of the bound (n = 138 = 2 x 69); at the grids the
  // figures use (m = 1 or 3) the error is below 0.3 n eps.
  constexpr std::size_t kWidth = 3;
  Xoshiro256 rng(35);
  for (std::size_t n = 1; n <= 256; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::size_t m = n;
    while (m % 2 == 0) m /= 2;
    const double rounding = 4.0 * std::numeric_limits<double>::epsilon() *
                             static_cast<double>(n + m * m);
    const FastDct dct(n);
    const std::vector<double> c = dct_matrix(n);
    const std::vector<double> x = random_vector(n * kWidth, rng);
    // Dense oracle: y = C x and C^T x, column by column.
    std::vector<double> want2(n * kWidth, 0.0);
    std::vector<double> want3(n * kWidth, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t e = 0; e < kWidth; ++e) {
          want2[k * kWidth + e] += c[k * n + i] * x[i * kWidth + e];
          want3[k * kWidth + e] += c[i * n + k] * x[i * kWidth + e];
        }
      }
    }
    std::vector<double> scratch(n * kWidth);
    std::vector<double> got2(n * kWidth);
    std::vector<double> got3(n * kWidth);
    dct.forward(x, got2, scratch);
    dct.backward(x, got3, scratch);
    EXPECT_LE(max_diff(got2, want2), rounding);
    EXPECT_LE(max_diff(got3, want3), rounding);

    // In place gives the same bits, and back after forward is the
    // identity.
    std::vector<double> round_trip = x;
    dct.forward(round_trip, round_trip, scratch);
    EXPECT_EQ(round_trip, got2);
    dct.backward(round_trip, round_trip, scratch);
    EXPECT_LE(max_diff(round_trip, x), rounding);
  }
}

TEST(FastDct, BackwardIsForwardsTranspose) {
  // <C x, y> == <x, C^T y> for the computed transforms, to rounding: the
  // symmetry the preconditioner inherits.
  Xoshiro256 rng(36);
  for (const std::size_t n : {2u, 12u, 32u, 48u, 96u, 100u, 127u, 256u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const FastDct dct(n);
    const std::vector<double> x = random_vector(n, rng);
    const std::vector<double> y = random_vector(n, rng);
    std::vector<double> cx(n);
    std::vector<double> cty(n);
    std::vector<double> scratch(n);
    dct.forward(x, cx, scratch);
    dct.backward(y, cty, scratch);
    EXPECT_NEAR(dot(cx, y), dot(x, cty), 1e-14 * static_cast<double>(n));
  }
}

TEST(FastDct, RejectsBadShapes) {
  EXPECT_THROW((void)FastDct(0), Error);
  const FastDct dct(4);
  std::vector<double> in(8);
  std::vector<double> out(8);
  std::vector<double> scratch(8);
  std::vector<double> ragged(6);
  EXPECT_NO_THROW(dct.forward(in, out, scratch));
  EXPECT_THROW(dct.forward(ragged, ragged, ragged), Error);
  EXPECT_THROW(dct.forward(in, ragged, scratch), Error);
  EXPECT_THROW(dct.backward(in, out, ragged), Error);
}

TEST(Spectral, InvertsRandomLayeredOperators) {
  for_random_layered_operators([](const StencilMatrix& a, Xoshiro256& rng) {
    const SpectralPreconditioner m(a);
    const std::vector<double> r = random_vector(a.rows(), rng);
    std::vector<double> z(a.rows());
    std::vector<double> az(a.rows());
    m.apply(r, z);
    a.multiply(z, az);
    for (std::size_t i = 0; i < r.size(); ++i) az[i] -= r[i];
    EXPECT_LE(norm2(az), 1e-12 * norm2(r));
  });
}

TEST(Spectral, ApplyIsSymmetric) {
  // CG requires a symmetric preconditioner: <M r, s> == <r, M s>.
  for_random_layered_operators([](const StencilMatrix& a, Xoshiro256& rng) {
    const SpectralPreconditioner m(a);
    const std::vector<double> r = random_vector(a.rows(), rng);
    const std::vector<double> s = random_vector(a.rows(), rng);
    std::vector<double> mr(a.rows());
    std::vector<double> ms(a.rows());
    m.apply(r, mr);
    m.apply(s, ms);
    EXPECT_NEAR(dot(mr, s), dot(r, ms), 1e-12 * norm2(mr) * norm2(s));
  });
}

TEST(Spectral, RejectsPerturbedCoefficient) {
  const GridShape g{5, 4, 3};
  Xoshiro256 rng(3);
  const Layers layers = random_layers(g.layers, rng);
  EXPECT_NO_THROW((void)SpectralPreconditioner(layered_operator(g, layers)));
  const auto rejects = [](const StencilMatrix& a) {
    try {
      (void)SpectralPreconditioner(a);
    } catch (const Error& e) {
      return std::string(e.what()).find("not layered") != std::string::npos;
    }
    return false;
  };
  // One coefficient of each band, one part in a million off its layer's
  // value, at an interior node and at a layer's first node (the one the
  // layer's values are read from).
  const std::size_t interior = g.plane() + 2 * g.nx + 2;  // layer 1, (2, 2)
  for (std::size_t b = 0; b < StencilMatrix::kBands; ++b) {
    for (const std::size_t node : {interior, g.plane()}) {
      SCOPED_TRACE("band " + std::to_string(b) + " node " +
                   std::to_string(node));
      StencilMatrix a = layered_operator(g, layers);
      if (!a.has_neighbour(node, b)) continue;
      a.band(b)[node] *= 1.0 + 1e-6;
      EXPECT_TRUE(rejects(a));
    }
  }
  // A coupling to an off-grid neighbour.
  StencilMatrix edge = layered_operator(g, layers);
  edge.band(Band::kMinusOne)[g.nx] = -0.5;  // (0, 1): no west neighbour
  EXPECT_TRUE(rejects(edge));
  // A vertical coupling that is constant in its layer but not symmetric.
  StencilMatrix lopsided = layered_operator(g, layers);
  for (std::size_t i = 0; i < g.plane(); ++i) {
    lopsided.band(Band::kPlusPlane)[i] *= 2.0;
    lopsided.band(Band::kDiag)[i] += layers.gv[0];
  }
  EXPECT_TRUE(rejects(lopsided));
  // Layered but not positive definite: every layer's ground term is
  // negative.
  Layers floating = layers;
  for (double& ground : floating.ground) ground = -1e-3;
  EXPECT_THROW((void)SpectralPreconditioner(layered_operator(g, floating)),
               Error);
  EXPECT_THROW((void)SpectralPreconditioner(StencilMatrix()), Error);
}

TEST(Spectral, RejectsShapeMismatch) {
  const GridShape g{8, 8, 2};
  const SpectralPreconditioner m(stack_like_matrix(g));
  std::vector<double> r(g.nodes(), 1.0);
  std::vector<double> z(g.nodes() + 1);
  EXPECT_THROW(m.apply(r, z), Error);
  EXPECT_THROW(m.apply(z, r), Error);
}

TEST(Spectral, CgMatchesJacobiCgOnManufacturedSolution) {
  const GridShape g{32, 32, 6};
  const StencilMatrix a = stack_like_matrix(g);
  // Smooth manufactured solution x* so b = A x* has a known answer.
  std::vector<double> x_star(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    x_star[i] = std::sin(0.05 * static_cast<double>(i)) +
                0.3 * std::cos(0.017 * static_cast<double>(i));
  }
  std::vector<double> b(a.rows());
  a.multiply(x_star, b);

  SolverOptions opts;
  opts.tolerance = 1e-11;
  const SolveResult jacobi = solve_cg(a, b, opts);
  const SpectralPreconditioner m(a);
  const SolveResult spectral = solve_cg(a, b, opts, &m);

  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(spectral.converged);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(spectral.x[i], jacobi.x[i], 1e-8);
    EXPECT_NEAR(spectral.x[i], x_star[i], 1e-6);
  }
}

TEST(Spectral, CgConvergesInOneIteration) {
  const GridShape g{32, 32, 6};
  const StencilMatrix a = stack_like_matrix(g);
  Xoshiro256 rng(11);
  const std::vector<double> b = random_vector(a.rows(), rng);
  const SolveResult jacobi = solve_cg(a, b);
  const SpectralPreconditioner m(a);
  const SolveResult spectral = solve_cg(a, b, {}, &m);
  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(spectral.converged);
  EXPECT_EQ(spectral.iterations, 1u);
  EXPECT_GT(jacobi.iterations, 100u);
}

}  // namespace
}  // namespace aqua
