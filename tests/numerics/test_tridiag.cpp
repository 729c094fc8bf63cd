#include "numerics/tridiag.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "base/error.hpp"

namespace foam::numerics {
namespace {

TEST(Tridiag, SolvesIdentity) {
  std::vector<double> a = {0, 0, 0};
  std::vector<double> b = {1, 1, 1};
  std::vector<double> c = {0, 0, 0};
  std::vector<double> d = {4, 5, 6};
  std::vector<double> cp;
  solve_tridiag(a, b, c, d, cp);
  EXPECT_DOUBLE_EQ(d[0], 4);
  EXPECT_DOUBLE_EQ(d[1], 5);
  EXPECT_DOUBLE_EQ(d[2], 6);
}

TEST(Tridiag, SolvesKnownSystem) {
  // [2 1 0][x0]   [4]
  // [1 2 1][x1] = [8]   -> x = (1, 2, 3)
  // [0 1 2][x2]   [8]
  std::vector<double> a = {0, 1, 1};
  std::vector<double> b = {2, 2, 2};
  std::vector<double> c = {1, 1, 0};
  std::vector<double> d = {4, 8, 8};
  std::vector<double> cp;
  solve_tridiag(a, b, c, d, cp);
  EXPECT_NEAR(d[0], 1.0, 1e-14);
  EXPECT_NEAR(d[1], 2.0, 1e-14);
  EXPECT_NEAR(d[2], 3.0, 1e-14);
}

TEST(Tridiag, RandomDiagonallyDominantResidual) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> cp;  // one scratch reused across sizes
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 30);
    std::vector<double> a(n), b(n), c(n), d(n), x;
    for (int i = 0; i < n; ++i) {
      a[i] = (i > 0) ? dist(rng) : 0.0;
      c[i] = (i < n - 1) ? dist(rng) : 0.0;
      b[i] = 3.0 + std::abs(dist(rng));  // dominant
      d[i] = dist(rng);
    }
    x = d;
    solve_tridiag(a, b, c, x, cp);
    for (int i = 0; i < n; ++i) {
      double r = b[i] * x[i] - d[i];
      if (i > 0) r += a[i] * x[i - 1];
      if (i < n - 1) r += c[i] * x[i + 1];
      EXPECT_NEAR(r, 0.0, 1e-12) << "trial " << trial << " row " << i;
    }
  }
}

TEST(Tridiag, ImplicitDiffusionIsConservativeAndStable) {
  // Backward-Euler diffusion matrix: (I - r*L) x_new = x_old with L the
  // 1-D no-flux Laplacian. The solve must conserve the sum and contract
  // the max — the property the ocean/atm vertical mixing relies on.
  const int n = 16;
  const double r = 5.0;  // strongly implicit
  std::vector<double> a(n), b(n), c(n), d(n);
  for (int i = 0; i < n; ++i) {
    const double up = (i > 0) ? r : 0.0;
    const double dn = (i < n - 1) ? r : 0.0;
    a[i] = -up;
    c[i] = -dn;
    b[i] = 1.0 + up + dn;
    d[i] = (i == 7) ? 10.0 : 0.0;
  }
  double sum_before = 0.0;
  for (const double v : d) sum_before += v;
  std::vector<double> cp;
  solve_tridiag(a, b, c, d, cp);
  double sum_after = 0.0, maxv = 0.0;
  for (const double v : d) {
    sum_after += v;
    maxv = std::max(maxv, std::abs(v));
    EXPECT_GE(v, -1e-12);  // no undershoot
  }
  EXPECT_NEAR(sum_after, sum_before, 1e-10);
  EXPECT_LT(maxv, 10.0);
}

TEST(Tridiag, PairedSolveMatchesSingleSolvesBitwise) {
  // tridiag_factor + tridiag_solve2 (the ocean's paired vertical solves)
  // give each interleaved right-hand side exactly solve_tridiag's bits.
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> scratch;
  for (int n = 1; n <= 30; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> a(n), b(n), c(n), d0(n), d1(n);
      for (int i = 0; i < n; ++i) {
        a[i] = (i > 0) ? dist(rng) : 0.0;
        c[i] = (i < n - 1) ? dist(rng) : 0.0;
        b[i] = 3.0 + std::abs(dist(rng));
        d0[i] = dist(rng);
        d1[i] = 1e3 * dist(rng);
      }
      std::vector<double> x(2 * n), cp(n), den(n);
      for (int i = 0; i < n; ++i) {
        x[2 * i] = d0[i];
        x[2 * i + 1] = d1[i];
      }
      tridiag_factor(a.data(), b.data(), c.data(), n, cp.data(), den.data());
      tridiag_solve2(a.data(), cp.data(), den.data(), n, x.data());
      solve_tridiag(a, b, c, d0, scratch);
      solve_tridiag(a, b, c, d1, scratch);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x[2 * i]),
                  std::bit_cast<std::uint64_t>(d0[i]))
            << "n " << n << " trial " << trial << " row " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x[2 * i + 1]),
                  std::bit_cast<std::uint64_t>(d1[i]))
            << "n " << n << " trial " << trial << " row " << i;
      }
    }
  }
}

TEST(Tridiag, SizeMismatchThrows) {
  std::vector<double> a = {0, 1};
  std::vector<double> b = {1, 1, 1};
  std::vector<double> c = {0, 0, 0};
  std::vector<double> d = {1, 1, 1};
  std::vector<double> cp;
  EXPECT_THROW(solve_tridiag(a, b, c, d, cp), Error);
}

}  // namespace
}  // namespace foam::numerics
