// Property tests of the FFT beyond round trips: linearity and the shift
// theorem, over the sizes FOAM uses.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "base/constants.hpp"
#include "oracle/fft.hpp"

namespace foam::numerics {
namespace {

using oracle::Fft;
using constants::two_pi;
using cplx = std::complex<double>;

class FftProperties : public ::testing::TestWithParam<int> {};

TEST_P(FftProperties, Linearity) {
  const int n = GetParam();
  Fft fft(n);
  std::mt19937 rng(n * 3 + 1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n), y(n), z(n);
  for (int i = 0; i < n; ++i) {
    x[i] = cplx(dist(rng), dist(rng));
    y[i] = cplx(dist(rng), dist(rng));
    z[i] = 2.5 * x[i] - 0.75 * y[i];
  }
  auto fx = x, fy = y, fz = z;
  fft.forward(fx);
  fft.forward(fy);
  fft.forward(fz);
  for (int k = 0; k < n; ++k) {
    const cplx expect = 2.5 * fx[k] - 0.75 * fy[k];
    EXPECT_NEAR(std::abs(fz[k] - expect), 0.0, 1e-10 * n);
  }
}

TEST_P(FftProperties, ShiftTheorem) {
  // Circularly shifting the input multiplies bin k by exp(-2 pi i k s / n).
  const int n = GetParam();
  if (n < 2) return;
  Fft fft(n);
  std::mt19937 rng(n * 7 + 5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n), shifted(n);
  for (int i = 0; i < n; ++i) x[i] = cplx(dist(rng), dist(rng));
  const int s = n / 3 + 1;
  for (int i = 0; i < n; ++i) shifted[i] = x[(i + s) % n];
  auto fx = x, fs = shifted;
  fft.forward(fx);
  fft.forward(fs);
  for (int k = 0; k < n; ++k) {
    const double ang = two_pi * k * s / n;
    const cplx expect = fx[k] * cplx(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(fs[k] - expect), 0.0, 1e-9 * n) << "k=" << k;
  }
}

TEST_P(FftProperties, RealSpectrumConjugateSymmetry) {
  const int n = GetParam();
  if (n % 2 != 0) return;  // symmetry check for even sizes
  Fft fft(n);
  std::mt19937 rng(n + 17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) x[i] = cplx(dist(rng), 0.0);
  auto fx = x;
  fft.forward(fx);
  for (int k = 1; k < n / 2; ++k)
    EXPECT_NEAR(std::abs(fx[k] - std::conj(fx[n - k])), 0.0, 1e-10 * n);
  EXPECT_NEAR(fx[0].imag(), 0.0, 1e-10 * n);
  EXPECT_NEAR(fx[n / 2].imag(), 0.0, 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(FoamSizes, FftProperties,
                         ::testing::Values(4, 12, 20, 48, 64, 128));

}  // namespace
}  // namespace foam::numerics
