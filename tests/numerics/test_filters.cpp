#include "numerics/filters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "base/constants.hpp"
#include "oracle/fft.hpp"

namespace foam::numerics {
namespace {

using oracle::Fft;
using constants::pi;

Field2D<int> all_ocean(int nx, int ny) { return Field2D<int>(nx, ny, 1); }

TEST(PolarFilter, IdentityEquatorwardOfCriticalLatitude) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = std::sin(0.7 * i) + 0.1 * j;
  Field2Dd orig(f);
  filter.apply(f);
  for (int j = 0; j < 64; ++j) {
    if (std::abs(grid.lat(j)) * 180.0 / pi < 59.0) {
      for (int i = 0; i < 64; ++i)
        EXPECT_NEAR(f(i, j), orig(i, j), 1e-12) << "j=" << j;
    }
  }
}

TEST(PolarFilter, PreservesZonalMean) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = 3.0 + std::cos(2.0 * pi * 13.0 * i / 64.0);
  std::vector<double> mean_before(64, 0.0);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) mean_before[j] += f(i, j) / 64.0;
  filter.apply(f);
  for (int j = 0; j < 64; ++j) {
    double mean = 0.0;
    for (int i = 0; i < 64; ++i) mean += f(i, j) / 64.0;
    EXPECT_NEAR(mean, mean_before[j], 1e-12) << "j=" << j;
  }
}

TEST(PolarFilter, DampsHighWavenumbersNearPole) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  const int j_polar = 63;  // northernmost row
  ASSERT_GT(std::abs(grid.lat(j_polar)) * 180.0 / pi, 70.0);
  Field2Dd f(64, 64, 0.0);
  const int m = 30;  // near-Nyquist zonal wave
  for (int i = 0; i < 64; ++i)
    f(i, j_polar) = std::cos(2.0 * pi * m * i / 64.0);
  filter.apply(f);
  double amp = 0.0;
  for (int i = 0; i < 64; ++i) amp = std::max(amp, std::abs(f(i, j_polar)));
  EXPECT_LT(amp, 0.5);  // strongly attenuated
  EXPECT_GT(amp, 0.0);
}

TEST(PolarFilter, FactorProperties) {
  MercatorGrid grid(128, 128, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  for (int j = 0; j < 128; ++j) {
    EXPECT_DOUBLE_EQ(filter.factor(0, j), 1.0);
    double prev = 2.0;
    for (int m = 1; m <= 64; ++m) {
      const double fac = filter.factor(m, j);
      EXPECT_LE(fac, 1.0);
      EXPECT_GE(fac, 0.0);
      EXPECT_LE(fac, prev + 1e-15);  // monotone non-increasing in m
      prev = fac;
    }
  }
}

TEST(PolarFilter, NeverAmplifies) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 55.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i)
      f(i, j) = std::sin(1.3 * i + 0.2 * j) + std::cos(2.9 * i);
  const double max_before = f.max_abs();
  filter.apply(f);
  EXPECT_LE(f.max_abs(), max_before * (1.0 + 1e-12));
}

TEST(PolarFilter, MaskedApplyLeavesLandUntouched) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  Field2D<int> mask = all_ocean(64, 64);
  for (int i = 20; i < 40; ++i) mask(i, 62) = 0;  // land strip near pole
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = std::sin(2.1 * i) + j;
  Field2Dd orig(f);
  filter.apply(f, mask);
  for (int i = 20; i < 40; ++i)
    EXPECT_DOUBLE_EQ(f(i, 62), orig(i, 62)) << "land i=" << i;
}

// The reference formulation of one masked polar row: wet-mean fill, the
// reference FFT's real transforms, scale, write back the wet cells.
std::vector<double> reference_filter_row(const PolarFourierFilter& filter,
                                         int j, std::vector<double> row,
                                         const std::vector<int>& mask) {
  const int n = static_cast<int>(row.size());
  double mean = 0.0;
  int n_wet = 0;
  for (int i = 0; i < n; ++i)
    if (mask[i] != 0) {
      mean += row[i];
      ++n_wet;
    }
  if (n_wet == 0) return row;
  mean /= n_wet;
  std::vector<double> vals(n);
  for (int i = 0; i < n; ++i) vals[i] = mask[i] != 0 ? row[i] : mean;
  const Fft fft(n);
  auto spec = fft.forward_real(vals);
  for (int m = 1; m <= n / 2; ++m) spec[m] *= filter.factor(m, j);
  vals = fft.inverse_real(spec);
  for (int i = 0; i < n; ++i)
    if (mask[i] != 0) row[i] = vals[i];
  return row;
}

TEST(PolarFilter, NonFiniteInputStaysNonFinite) {
  // The explicit complex products drop Annex G's infinity recovery; a NaN
  // or infinity in a polar row must still leave a non-finite row behind.
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  PolarFourierFilter::Workspace ws(filter);
  const int j = grid.nlat() - 1;
  ASSERT_TRUE(filter.is_polar_row(j));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> row(64);
    for (int i = 0; i < 64; ++i) row[i] = std::sin(0.9 * i) + 2.0;
    row[11] = bad;
    filter.filter_row(row.data(), j, nullptr, ws);
    EXPECT_TRUE(std::any_of(row.begin(), row.end(),
                            [](double v) { return !std::isfinite(v); }))
        << bad;
  }
}

class PolarFilterOracle : public ::testing::TestWithParam<int> {};

TEST_P(PolarFilterOracle, FilterRowMatchesReferenceBitwise) {
  const int nx = GetParam();
  MercatorGrid grid(nx, 32, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  PolarFourierFilter::Workspace ws(filter);
  std::mt19937 rng(static_cast<unsigned>(nx));
  std::uniform_real_distribution<double> value(-2.0, 30.0);
  std::bernoulli_distribution wet(0.7);
  std::uniform_int_distribution<int> cell(0, nx - 1);
  int polar_rows = 0;
  for (int j = 0; j < grid.nlat(); ++j) {
    if (!filter.is_polar_row(j)) continue;
    ++polar_rows;
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> row(nx);
      std::vector<int> mask(nx);
      for (int i = 0; i < nx; ++i) {
        row[i] = value(rng);
        mask[i] = wet(rng) ? 1 : 0;
      }
      if (trial == 3) {  // single wet cell
        std::fill(mask.begin(), mask.end(), 0);
        mask[cell(rng)] = 1;
      }
      if (trial == 4) std::fill(mask.begin(), mask.end(), 1);
      const std::vector<double> expect =
          reference_filter_row(filter, j, row, mask);
      std::vector<double> unmasked = row;
      filter.filter_row(row.data(), j, mask.data(), ws);
      for (int i = 0; i < nx; ++i)
        EXPECT_EQ(row[i], expect[i])
            << "nx=" << nx << " j=" << j << " trial=" << trial << " i=" << i;
      if (trial == 4) {  // a null mask is the all-ocean row
        filter.filter_row(unmasked.data(), j, nullptr, ws);
        for (int i = 0; i < nx; ++i)
          EXPECT_EQ(unmasked[i], expect[i]) << "nx=" << nx << " i=" << i;
      }
    }
  }
  EXPECT_GT(polar_rows, 0);
}

TEST_P(PolarFilterOracle, AllLandRowUntouched) {
  const int nx = GetParam();
  MercatorGrid grid(nx, 32, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  PolarFourierFilter::Workspace ws(filter);
  const int j = grid.nlat() - 1;
  ASSERT_TRUE(filter.is_polar_row(j));
  std::vector<double> row(nx);
  for (int i = 0; i < nx; ++i) row[i] = std::sin(1.7 * i) + 4.0;
  const std::vector<double> orig = row;
  const std::vector<int> land(nx, 0);
  filter.filter_row(row.data(), j, land.data(), ws);
  for (int i = 0; i < nx; ++i) EXPECT_EQ(row[i], orig[i]) << "i=" << i;
}

TEST_P(PolarFilterOracle, FilterRowsMatchReferenceBitwise) {
  // Batches of 1..kLanes rows (short batches are padded), with masked,
  // all-land and unmasked rows of different latitudes side by side: every
  // row equals the reference formulation, whatever batch it rides in.
  constexpr int L = PolarFourierFilter::kLanes;
  const int nx = GetParam();
  MercatorGrid grid(nx, 32, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  PolarFourierFilter::Workspace ws(filter);
  std::vector<int> polar;
  for (int j = 0; j < grid.nlat(); ++j)
    if (filter.is_polar_row(j)) polar.push_back(j);
  ASSERT_FALSE(polar.empty());
  std::mt19937 rng(static_cast<unsigned>(nx) + 7u);
  std::uniform_real_distribution<double> value(-2.0, 30.0);
  std::bernoulli_distribution wet(0.7);
  const std::vector<int> all_ocean(nx, 1);
  for (int nrows = 1; nrows <= L; ++nrows) {
    std::vector<std::vector<double>> got(nrows), expect(nrows);
    std::vector<std::vector<int>> mask(nrows);
    double* rows[L];
    int js[L];
    const int* masks[L];
    for (int r = 0; r < nrows; ++r) {
      got[r].resize(nx);
      mask[r].resize(nx);
      for (int i = 0; i < nx; ++i) {
        got[r][i] = value(rng);
        mask[r][i] = wet(rng) ? 1 : 0;
      }
      if (r == 1) std::fill(mask[r].begin(), mask[r].end(), 0);
      js[r] = polar[static_cast<std::size_t>(r) % polar.size()];
      rows[r] = got[r].data();
      masks[r] = r == 2 ? nullptr : mask[r].data();
      expect[r] = reference_filter_row(filter, js[r], got[r],
                                       r == 2 ? all_ocean : mask[r]);
    }
    filter.filter_rows(rows, js, masks, nrows, ws);
    for (int r = 0; r < nrows; ++r)
      for (int i = 0; i < nx; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r][i]),
                  std::bit_cast<std::uint64_t>(expect[r][i]))
            << "nx=" << nx << " batch=" << nrows << " row=" << r
            << " i=" << i;
  }
}

// Even lengths of the model grids plus one odd length (the odd-n spectrum
// has no Nyquist coefficient).
INSTANTIATE_TEST_SUITE_P(Lengths, PolarFilterOracle,
                         ::testing::Values(36, 45, 96, 128));

TEST(LaplacianMasked, ZeroForConstantField) {
  MercatorGrid grid(32, 32, 70.0);
  Field2Dd f(32, 32, 5.0);
  Field2D<int> mask = all_ocean(32, 32);
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_NEAR(lap.max_abs(), 0.0, 1e-18);
}

TEST(LaplacianMasked, SignOfCurvature) {
  MercatorGrid grid(32, 32, 70.0);
  Field2Dd f(32, 32, 0.0);
  Field2D<int> mask = all_ocean(32, 32);
  f(16, 16) = 1.0;  // local maximum
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_LT(lap(16, 16), 0.0);
  EXPECT_GT(lap(15, 16), 0.0);
  EXPECT_GT(lap(16, 15), 0.0);
}

TEST(LaplacianMasked, NoFluxThroughLand) {
  // Two meridional land walls split the periodic domain into two basins,
  // each holding a different constant: with the no-flux closure the
  // Laplacian must vanish everywhere — no diffusion through land.
  MercatorGrid grid(16, 16, 70.0);
  Field2D<int> mask = all_ocean(16, 16);
  for (int j = 0; j < 16; ++j) {
    mask(0, j) = 0;
    mask(8, j) = 0;
  }
  Field2Dd f(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = (i < 8) ? 1.0 : 2.0;
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_NEAR(lap.max_abs(), 0.0, 1e-18);
  for (int j = 0; j < 16; ++j) EXPECT_DOUBLE_EQ(lap(8, j), 0.0);
}

TEST(LaplacianMasked, PeriodicInLongitude) {
  MercatorGrid grid(16, 8, 70.0);
  Field2D<int> mask = all_ocean(16, 8);
  Field2Dd f(16, 8, 0.0);
  f(0, 4) = 1.0;
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  // The cell west of i=0 wraps to i=15: it must feel the bump.
  EXPECT_GT(lap(15, 4), 0.0);
  EXPECT_GT(lap(1, 4), 0.0);
}

TEST(Biharmonic, DampsExtremaOfNoise) {
  MercatorGrid grid(32, 32, 70.0);
  Field2D<int> mask = all_ocean(32, 32);
  Field2Dd f(32, 32, 0.0);
  // Checkerboard — the grid-scale mode del^4 dissipation exists to kill.
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) f(i, j) = ((i + j) % 2 == 0) ? 1.0 : -1.0;
  Field2Dd tend;
  biharmonic_tendency(grid, f, mask, 1.0e15, tend);
  // Tendency must oppose the checkerboard everywhere.
  for (int j = 2; j < 30; ++j)
    for (int i = 0; i < 32; ++i)
      EXPECT_LT(tend(i, j) * f(i, j), 0.0) << i << "," << j;
}

TEST(Biharmonic, ZeroCoefficientGivesZeroTendency) {
  MercatorGrid grid(16, 16, 70.0);
  Field2D<int> mask = all_ocean(16, 16);
  Field2Dd f(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = std::sin(0.5 * i * j);
  Field2Dd tend;
  biharmonic_tendency(grid, f, mask, 0.0, tend);
  EXPECT_DOUBLE_EQ(tend.max_abs(), 0.0);
}

}  // namespace
}  // namespace foam::numerics
