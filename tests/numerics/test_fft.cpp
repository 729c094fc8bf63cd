#include "oracle/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::numerics {
namespace {

using oracle::Fft;
using constants::two_pi;
using cplx = std::complex<double>;

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, RoundTripIsIdentity) {
  const int n = GetParam();
  Fft fft(n);
  std::mt19937 rng(7 * n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  std::vector<cplx> y(x);
  fft.forward(y);
  fft.inverse(y);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-11) << "n=" << n;
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-11) << "n=" << n;
  }
}

TEST_P(FftSizes, MatchesDirectDft) {
  const int n = GetParam();
  Fft fft(n);
  std::mt19937 rng(13 * n + 1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  std::vector<cplx> fast(x);
  fft.forward(fast);
  for (int k = 0; k < n; ++k) {
    cplx direct(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      const double ang = -two_pi * j * k / n;
      direct += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(fast[k].real(), direct.real(), 1e-9 * n) << "k=" << k;
    EXPECT_NEAR(fast[k].imag(), direct.imag(), 1e-9 * n) << "k=" << k;
  }
}

// 48 and 128 are the lengths FOAM actually uses (R15 atmosphere longitudes,
// ocean grid longitudes); the rest probe every radix path including the
// direct fallback (11, 13) and mixed factorizations.
INSTANTIATE_TEST_SUITE_P(AllRadixPaths, FftSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13,
                                           15, 16, 20, 21, 30, 35, 48, 60, 64,
                                           100, 128));

TEST(Fft, SingleModeLandsInRightBin) {
  const int n = 48;
  Fft fft(n);
  const int m = 5;
  std::vector<double> x(n);
  for (int j = 0; j < n; ++j) x[j] = std::cos(two_pi * m * j / n);
  const auto spec = fft.forward_real(x);
  for (int k = 0; k <= n / 2; ++k) {
    const double expected = (k == m) ? n / 2.0 : 0.0;
    EXPECT_NEAR(spec[k].real(), expected, 1e-9) << "k=" << k;
    EXPECT_NEAR(spec[k].imag(), 0.0, 1e-9) << "k=" << k;
  }
}

TEST(Fft, RealRoundTrip) {
  const int n = 128;
  Fft fft(n);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  const auto spec = fft.forward_real(x);
  EXPECT_EQ(spec.size(), static_cast<std::size_t>(n / 2 + 1));
  const auto back = fft.inverse_real(spec);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-11);
}

TEST(Fft, ParsevalHolds) {
  const int n = 60;
  Fft fft(n);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  std::vector<cplx> y(x);
  fft.forward(y);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * time_energy);
}

TEST(Fft, DcBinIsSum) {
  Fft fft(5);
  std::vector<cplx> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  fft.forward(x);
  EXPECT_NEAR(x[0].real(), 15.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), 0.0, 1e-12);
}

TEST(Fft, RejectsBadInputs) {
  EXPECT_THROW(Fft(0), Error);
  Fft fft(8);
  std::vector<cplx> wrong(7);
  EXPECT_THROW(fft.forward(wrong), Error);
  std::vector<double> wrong_real(7);
  EXPECT_THROW(fft.forward_real(wrong_real), Error);
}

}  // namespace
}  // namespace foam::numerics
