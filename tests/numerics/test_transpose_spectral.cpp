#include "numerics/transpose_spectral.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "par/decomp.hpp"

namespace foam::numerics {
namespace {

using cplx = std::complex<double>;

SpectralField random_spec(int mmax, int kmax, unsigned seed) {
  SpectralField s(mmax, kmax);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int m = 0; m <= mmax; ++m)
    for (int k = 0; k < kmax; ++k)
      s.at(m, k) =
          (m == 0) ? cplx(dist(rng), 0.0) : cplx(dist(rng), dist(rng));
  return s;
}

std::vector<int> block_rows(int n, int nranks, int rank) {
  const par::Range r = par::block_range(n, nranks, rank);
  std::vector<int> rows;
  for (int j = r.lo; j < r.hi; ++j) rows.push_back(j);
  return rows;
}

class TransposeRanks : public ::testing::TestWithParam<int> {};

TEST_P(TransposeRanks, AnalyzeMatchesSerial) {
  const int nranks = GetParam();
  GaussianGrid grid(48, 40);
  SpectralTransform st(grid, 15);
  const SpectralField s_in = random_spec(15, 16, 3);
  const Field2Dd g = st.synthesize(s_in);
  const SpectralField ref = st.analyze(g);

  par::run(nranks, [&](par::Comm& comm) {
    TransposeSpectralTransform tst(st, block_rows(40, nranks, comm.rank()),
                                   comm);
    const SpectralField got = tst.analyze(comm, g);
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(got.at(m, k) - ref.at(m, k)), 0.0, 1e-12)
            << "m=" << m << " k=" << k;
  });
}

TEST_P(TransposeRanks, SynthesizeMatchesSerial) {
  const int nranks = GetParam();
  GaussianGrid grid(48, 40);
  SpectralTransform st(grid, 15);
  const SpectralField s = random_spec(15, 16, 11);
  const Field2Dd ref = st.synthesize(s);

  par::run(nranks, [&](par::Comm& comm) {
    const auto rows = block_rows(40, nranks, comm.rank());
    TransposeSpectralTransform tst(st, rows, comm);
    Field2Dd out(48, 40, 0.0);
    tst.synthesize(comm, s, out);
    for (const int j : rows)
      for (int i = 0; i < 48; ++i)
        EXPECT_NEAR(out(i, j), ref(i, j), 1e-12) << i << "," << j;
  });
}

TEST_P(TransposeRanks, AgreesWithDistributedSumVariant) {
  // The paper's two parallel-transform strategies must be interchangeable.
  const int nranks = GetParam();
  GaussianGrid grid(48, 40);
  SpectralTransform st(grid, 15);
  const Field2Dd g = st.synthesize(random_spec(15, 16, 17));

  par::run(nranks, [&](par::Comm& comm) {
    const auto rows = block_rows(40, nranks, comm.rank());
    TransposeSpectralTransform tst(st, rows, comm);
    ParSpectralTransform pst(st, rows);
    const SpectralField a = tst.analyze(comm, g);
    const SpectralField b = pst.analyze(comm, g);
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(a.at(m, k) - b.at(m, k)), 0.0, 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TransposeRanks,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST_P(TransposeRanks, MatchesSerialBitwise) {
  // The transpose runs the same folded sums in the same order as the serial
  // engine, and a Fourier row's FFT does not depend on which rows share its
  // batch, so the results agree bit for bit (not just to rounding).
  const int nranks = GetParam();
  GaussianGrid grid(48, 40);
  SpectralTransform st(grid, 15);
  const SpectralField s = random_spec(15, 16, 23);
  const Field2Dd g = st.synthesize(s);
  const SpectralField ref = st.analyze(g);
  par::run(nranks, [&](par::Comm& comm) {
    const auto rows = block_rows(40, nranks, comm.rank());
    TransposeSpectralTransform tst(st, rows, comm);
    const SpectralField got = tst.analyze(comm, g);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.data()[i].real()),
                std::bit_cast<std::uint64_t>(ref.data()[i].real()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.data()[i].imag()),
                std::bit_cast<std::uint64_t>(ref.data()[i].imag()));
    }
    Field2Dd back(48, 40, 0.0);
    tst.synthesize(comm, s, back);
    for (const int j : rows)
      for (int i = 0; i < 48; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back(i, j)),
                  std::bit_cast<std::uint64_t>(g(i, j)))
            << "i=" << i << " j=" << j;
  });
}

TEST(Transpose, RoundTripThroughTransposePair) {
  // forward_transpose output covers every (m, lat) exactly once.
  GaussianGrid grid(24, 20);
  SpectralTransform st(grid, 7);
  par::run(4, [&](par::Comm& comm) {
    const auto rows = block_rows(20, 4, comm.rank());
    TransposeSpectralTransform tst(st, rows, comm);
    // Fourier rows with a recognizable encoding: value = j + i*m/100.
    std::vector<cplx> fm(rows.size() * 8);
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (int m = 0; m <= 7; ++m) fm[r * 8 + m] = cplx(rows[r], m / 100.0);
    const auto cols = tst.forward_transpose(comm, fm);
    ASSERT_EQ(static_cast<int>(cols.size()), tst.m_hi() - tst.m_lo());
    for (int m = tst.m_lo(); m < tst.m_hi(); ++m)
      for (int j = 0; j < 20; ++j) {
        EXPECT_DOUBLE_EQ(cols[m - tst.m_lo()][j].real(), j);
        EXPECT_DOUBLE_EQ(cols[m - tst.m_lo()][j].imag(), m / 100.0);
      }
  });
}

class TransposeExchangeModes : public ::testing::TestWithParam<int> {};

TEST_P(TransposeExchangeModes, OverlapMatchesBlockingBitwise) {
  // The overlap exchange is a pure data-movement reorganization: both modes
  // must produce bit-identical transforms.
  const int nranks = GetParam();
  GaussianGrid grid(48, 40);
  SpectralTransform st(grid, 15);
  const SpectralField s_in = random_spec(15, 16, 23);
  const Field2Dd g = st.synthesize(s_in);

  par::run(nranks, [&](par::Comm& comm) {
    const auto rows = block_rows(40, nranks, comm.rank());
    TransposeSpectralTransform blocking(st, rows, comm, /*overlap=*/false);
    TransposeSpectralTransform overlap(st, rows, comm, /*overlap=*/true);
    EXPECT_FALSE(blocking.overlap());
    EXPECT_TRUE(overlap.overlap());

    const SpectralField a = blocking.analyze(comm, g);
    const SpectralField b = overlap.analyze(comm, g);
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_EQ(a.at(m, k), b.at(m, k)) << "m=" << m << " k=" << k;

    Field2Dd fa(48, 40, 0.0), fb(48, 40, 0.0);
    blocking.synthesize(comm, s_in, fa);
    overlap.synthesize(comm, s_in, fb);
    for (const int j : rows)
      for (int i = 0; i < 48; ++i) EXPECT_EQ(fa(i, j), fb(i, j));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TransposeExchangeModes,
                         ::testing::Values(1, 2, 4, 8));

TEST(Transpose, OverlapToggleSwitchesPath) {
  GaussianGrid grid(24, 20);
  SpectralTransform st(grid, 7);
  const SpectralField s = random_spec(7, 8, 5);
  const Field2Dd ref = st.synthesize(s);
  par::run(4, [&](par::Comm& comm) {
    const auto rows = block_rows(20, 4, comm.rank());
    TransposeSpectralTransform tst(st, rows, comm);
    Field2Dd out(24, 20, 0.0);
    tst.synthesize(comm, s, out);
    tst.set_overlap(false);
    Field2Dd out2(24, 20, 0.0);
    tst.synthesize(comm, s, out2);
    for (const int j : rows)
      for (int i = 0; i < 24; ++i) {
        EXPECT_NEAR(out(i, j), ref(i, j), 1e-12);
        EXPECT_EQ(out(i, j), out2(i, j));
      }
  });
}

TEST(Transpose, RejectsMoreRanksThanWavenumbers) {
  GaussianGrid grid(24, 20);
  SpectralTransform st(grid, 7);  // 8 wavenumbers
  par::run(10, [&](par::Comm& comm) {
    EXPECT_THROW(TransposeSpectralTransform(
                     st, block_rows(20, 10, comm.rank()), comm),
                 Error);
  });
}

}  // namespace
}  // namespace foam::numerics
