// Tests for the plan-based FFT (FftPlan) against the reference recursion,
// and the agreement of the spectral transform's batched entry points with
// the reference loops (tests/oracle).

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/spectral.hpp"
#include "oracle/fft.hpp"
#include "oracle/spectral_oracle.hpp"

namespace fn = foam::numerics;
using foam::oracle::Fft;
using cplx = std::complex<double>;
using Field2Dd = foam::Field2Dd;

namespace {

std::vector<cplx> random_complex(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& z : v) z = cplx(dist(rng), dist(rng));
  return v;
}

/// Bit pattern of a double: bitwise comparisons also tell signed zeros apart.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> random_real(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}


/// Plan-forward (or inverse) of kLanes rows through the lane entry points,
/// returned row by row.
std::vector<std::vector<cplx>> lanes_transform(
    const fn::FftPlan& plan, const std::vector<std::vector<cplx>>& rows,
    bool forward) {
  constexpr int L = fn::FftPlan::kLanes;
  const int n = plan.size();
  std::vector<double> re(static_cast<std::size_t>(n) * L);
  std::vector<double> im(re.size());
  std::vector<double> work(plan.lanes_workspace_size());
  for (int l = 0; l < L; ++l)
    for (int i = 0; i < n; ++i) {
      re[static_cast<std::size_t>(i) * L + l] = rows[l][i].real();
      im[static_cast<std::size_t>(i) * L + l] = rows[l][i].imag();
    }
  if (forward)
    plan.forward_lanes(re.data(), im.data(), work.data());
  else
    plan.inverse_lanes(re.data(), im.data(), work.data());
  std::vector<std::vector<cplx>> out(L, std::vector<cplx>(n));
  for (int l = 0; l < L; ++l)
    for (int i = 0; i < n; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * L + l;
      out[l][i] = cplx(re[at], im[at]);
    }
  return out;
}

}  // namespace

TEST(FftPlan, MatchesReferenceAcrossSizes) {
  // Mixed radix {2,3,5,7}, powers of two, primes (11, 101 take the direct
  // fallback), and the grid sizes the model actually uses (36, 45, 48, 96,
  // 128). kLanes distinct rows go through forward_lanes/inverse_lanes; the
  // iterative plan replicates the recursion's butterflies, so every lane is
  // bitwise identical to the reference (signed zeros included).
  constexpr int L = fn::FftPlan::kLanes;
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 30, 35, 36, 45, 48, 96,
                      101, 105, 128}) {
    const Fft ref(n);
    const fn::FftPlan plan(n);
    std::vector<std::vector<cplx>> want(L);
    for (int l = 0; l < L; ++l)
      want[l] = random_complex(n, 1234u + 97u * n + l);
    std::vector<std::vector<cplx>> got = want;
    for (const bool fwd : {true, false}) {
      got = lanes_transform(plan, got, fwd);
      for (int l = 0; l < L; ++l) {
        if (fwd)
          ref.forward(want[l]);
        else
          ref.inverse(want[l]);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[l][i].real()), bits(want[l][i].real()))
              << "n=" << n << " lane=" << l << " i=" << i << " fwd=" << fwd;
          ASSERT_EQ(bits(got[l][i].imag()), bits(want[l][i].imag()))
              << "n=" << n << " lane=" << l << " i=" << i << " fwd=" << fwd;
        }
      }
    }
  }
}

namespace {

/// One row through the rows API.
std::vector<cplx> rows_forward(const fn::FftPlan& plan, const double* x,
                               int nkeep, double scale) {
  std::vector<cplx> out(nkeep);
  std::vector<double> scratch(plan.rows_scratch_size());
  plan.forward_real_rows(&x, 1, nkeep, scale, out.data(), scratch.data());
  return out;
}

std::vector<double> rows_inverse(const fn::FftPlan& plan, const cplx* spec,
                                 int nkeep, double scale) {
  std::vector<double> x(plan.size());
  double* row = x.data();
  std::vector<double> scratch(plan.rows_scratch_size());
  plan.inverse_real_rows(spec, 1, nkeep, scale, &row, scratch.data());
  return x;
}

}  // namespace

TEST(FftPlan, RealRoundTripEvenAndOdd) {
  for (const int n : {2, 4, 6, 7, 9, 15, 48, 63, 96}) {
    const fn::FftPlan plan(n);
    const std::vector<double> x = random_real(n, 99u + n);
    const std::vector<cplx> spec = rows_forward(plan, x.data(), n / 2 + 1, 1.0);
    const std::vector<double> back =
        rows_inverse(plan, spec.data(), n / 2 + 1, 1.0);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], x[i], 1e-13) << "n=" << n << " i=" << i;
  }
}

TEST(FftPlan, RealMatchesReference) {
  for (const int n : {2, 5, 12, 48, 96, 128}) {
    const Fft ref(n);
    const fn::FftPlan plan(n);
    const std::vector<double> x = random_real(n, 7u * n + 3u);
    const std::vector<cplx> sref = ref.forward_real(x);
    const std::vector<cplx> s = rows_forward(plan, x.data(), n / 2 + 1, 1.0);
    double scale = 0.0;
    for (const cplx& z : sref) scale = std::max(scale, std::abs(z));
    for (int k = 0; k <= n / 2; ++k)
      EXPECT_NEAR(std::abs(s[k] - sref[k]), 0.0, 1e-14 * scale)
          << "n=" << n << " k=" << k;
  }
}

TEST(FftPlan, Parseval) {
  const int n = 48;
  const fn::FftPlan plan(n);
  const std::vector<double> x = random_real(n, 42u);
  const std::vector<cplx> spec = rows_forward(plan, x.data(), n / 2 + 1, 1.0);
  double grid_power = 0.0;
  for (const double v : x) grid_power += v * v;
  // sum |X_k|^2 over the full spectrum = N * sum x_j^2; the one-sided
  // coefficients count twice except DC and (even n) Nyquist.
  double spec_power = std::norm(spec[0]) + std::norm(spec[n / 2]);
  for (int k = 1; k < n / 2; ++k) spec_power += 2.0 * std::norm(spec[k]);
  EXPECT_NEAR(spec_power, n * grid_power, 1e-10 * n * grid_power);
}

// ---------------------------------------------------------------------------
// Bitwise oracle for the rows API: the per-row real transforms as they were
// first written, with std::complex arithmetic — pack the row, run the
// reference Fft of length n/2 (bitwise equal to the plan's complex path),
// then split / un-split. Odd lengths take the full-length complex fallback.

namespace {

// GCC 12's SLP "addsub" pattern fuses the (re, im) pair of a std::complex
// product into one vfmaddsub when the target has FMA, despite
// -ffp-contract=off. The plan's lane loops never match the pattern; the
// oracle's one-row products do, so the oracle stays out of the vectorizer,
// or an FMA-capable -march moves the oracle's bits instead of the plan's.
#if defined(__GNUC__) && !defined(__clang__) && defined(__FMA__)
#define ORACLE_NO_FUSED_ADDSUB __attribute__((optimize("no-tree-vectorize")))
#else
#define ORACLE_NO_FUSED_ADDSUB
#endif

cplx real_twiddle(int k, int n) {
  const double ang = -foam::constants::two_pi * k / n;
  return cplx(std::cos(ang), std::sin(ang));
}

ORACLE_NO_FUSED_ADDSUB std::vector<cplx> oracle_forward_real(
    const std::vector<double>& x, int nkeep, double scale) {
  const int n = static_cast<int>(x.size());
  std::vector<cplx> spec;
  if (n % 2 != 0) {
    spec = Fft(n).forward_real(x);
  } else {
    const int n2 = n / 2;
    std::vector<cplx> z(n2);
    for (int j = 0; j < n2; ++j) z[j] = cplx(x[2 * j], x[2 * j + 1]);
    Fft(n2).forward(z);
    spec.resize(n2 + 1);
    for (int k = 0; k <= n2; ++k) {
      const cplx zk = (k == n2) ? z[0] : z[k];
      const cplx zc = std::conj(k == 0 ? z[0] : z[n2 - k]);
      const cplx even = 0.5 * (zk + zc);
      const cplx odd = cplx(0.0, -0.5) * (zk - zc);
      spec[k] = even + real_twiddle(k, n) * odd;
    }
  }
  spec.resize(nkeep);
  for (cplx& v : spec) v = v * scale;
  return spec;
}

ORACLE_NO_FUSED_ADDSUB std::vector<double> oracle_inverse_real(
    const cplx* fm, int nkeep, int n, double scale) {
  std::vector<cplx> spec(n / 2 + 1, cplx(0.0, 0.0));
  for (int k = 0; k < nkeep; ++k) spec[k] = fm[k] * scale;
  if (n % 2 != 0) return Fft(n).inverse_real(spec);
  const int n2 = n / 2;
  std::vector<cplx> z(n2);
  for (int k = 0; k < n2; ++k) {
    const cplx xk = spec[k];
    const cplx xc = std::conj(spec[n2 - k]);
    const cplx fe = 0.5 * (xk + xc);
    const cplx fo = std::conj(real_twiddle(k, n)) * (0.5 * (xk - xc));
    z[k] = fe + cplx(0.0, 1.0) * fo;
  }
  Fft(n2).inverse(z);
  std::vector<double> x(n);
  for (int j = 0; j < n2; ++j) {
    x[2 * j] = z[j].real();
    x[2 * j + 1] = z[j].imag();
  }
  return x;
}

}  // namespace

TEST(FftPlan, RealRowsMatchOracleBitwise) {
  // The model's grid lengths (24/36/48 carry a radix-3 stage, 128 is pure
  // radix-2), an odd length on the full-complex fallback, and batch sizes
  // around the lane width so tail groups are covered.
  for (const int n : {24, 36, 48, 128, 45}) {
    const fn::FftPlan plan(n);
    std::vector<double> scratch(plan.rows_scratch_size());
    for (const int nkeep : {n / 2 + 1, n / 3}) {
      for (const int nrows : {1, 7, 8, 9, 17}) {
        std::vector<std::vector<double>> xs;
        std::vector<const double*> in;
        for (int r = 0; r < nrows; ++r)
          xs.push_back(random_real(n, 1000u * n + 10u * nrows + r));
        for (const auto& x : xs) in.push_back(x.data());
        const double fscale = 1.0 / n;
        std::vector<cplx> fm(static_cast<std::size_t>(nrows) * nkeep);
        plan.forward_real_rows(in.data(), nrows, nkeep, fscale, fm.data(),
                               scratch.data());
        // Inverse of the coefficients just produced, as the engine does.
        std::vector<std::vector<double>> ys(nrows, std::vector<double>(n));
        std::vector<double*> out;
        for (auto& y : ys) out.push_back(y.data());
        plan.inverse_real_rows(fm.data(), nrows, nkeep,
                               static_cast<double>(n), out.data(),
                               scratch.data());
        for (int r = 0; r < nrows; ++r) {
          const std::vector<cplx> want =
              oracle_forward_real(xs[r], nkeep, fscale);
          for (int k = 0; k < nkeep; ++k) {
            const cplx got = fm[static_cast<std::size_t>(r) * nkeep + k];
            EXPECT_EQ(bits(got.real()), bits(want[k].real()))
                << "n=" << n << " nrows=" << nrows << " r=" << r
                << " k=" << k;
            EXPECT_EQ(bits(got.imag()), bits(want[k].imag()))
                << "n=" << n << " nrows=" << nrows << " r=" << r
                << " k=" << k;
          }
          const std::vector<double> back = oracle_inverse_real(
              fm.data() + static_cast<std::size_t>(r) * nkeep, nkeep, n,
              static_cast<double>(n));
          for (int i = 0; i < n; ++i)
            EXPECT_EQ(bits(ys[r][i]), bits(back[i]))
                << "n=" << n << " nrows=" << nrows << " r=" << r
                << " i=" << i;
        }
      }
    }
  }
}

TEST(FftPlan, RealRowsWriteOnlyRealRows) {
  // A tail group pads its lanes with a repeated row; nothing past nrows
  // may be written.
  const int n = 48, nkeep = 16, nrows = 3;
  const fn::FftPlan plan(n);
  std::vector<double> scratch(plan.rows_scratch_size());
  const std::vector<double> x = random_real(n, 5u);
  std::vector<const double*> in(nrows, x.data());
  std::vector<cplx> fm((nrows + 1) * nkeep, cplx(-7.0, -7.0));
  plan.forward_real_rows(in.data(), nrows, nkeep, 1.0, fm.data(),
                         scratch.data());
  for (int k = 0; k < nkeep; ++k)
    EXPECT_EQ(fm[nrows * nkeep + k], cplx(-7.0, -7.0));
  // One more output row than nrows: it must keep its sentinel.
  std::vector<std::vector<double>> ys(nrows + 1, std::vector<double>(n, -7.0));
  std::vector<double*> out;
  for (auto& y : ys) out.push_back(y.data());
  plan.inverse_real_rows(fm.data(), nrows, nkeep, 1.0, out.data(),
                         scratch.data());
  EXPECT_EQ(ys[nrows], std::vector<double>(n, -7.0));
  EXPECT_NE(ys[0], std::vector<double>(n, -7.0));
  EXPECT_THROW(plan.forward_real_rows(in.data(), nrows, n / 2 + 2, 1.0,
                                      fm.data(), scratch.data()),
               foam::Error);
}

TEST(FftPlan, PrimeDirectFallback) {
  // 101 is prime > 7: the plan must fall back to the O(p^2) direct combine
  // and still agree with a brute-force DFT.
  const int n = 101;
  const fn::FftPlan plan(n);
  std::vector<std::vector<cplx>> rows(fn::FftPlan::kLanes);
  for (std::size_t l = 0; l < rows.size(); ++l)
    rows[l] = random_complex(n, 5u + static_cast<unsigned>(l));
  const std::vector<cplx> x = rows[0];
  const std::vector<cplx> a = lanes_transform(plan, rows, true)[0];
  for (int k = 0; k < n; k += 17) {  // spot-check a few bins
    cplx ref(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * j * k / n;
      ref += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(std::abs(a[k] - ref), 0.0, 1e-11) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Engine vs the reference loops over the batched spectral entry points.

namespace {

class EngineAgreement : public ::testing::TestWithParam<std::pair<int, int>> {
};

Field2Dd wavy(const fn::GaussianGrid& grid, int which) {
  Field2Dd f(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double mu = grid.mu(j);
    for (int i = 0; i < grid.nlon(); ++i) {
      const double lam = 2.0 * M_PI * i / grid.nlon();
      f(i, j) = std::sin((1 + which % 3) * lam) * (1.0 - mu * mu) +
                0.3 * std::cos(2.0 * lam + which) * mu + 0.05 * which;
    }
  }
  return f;
}

void expect_spec_near(const fn::SpectralField& a, const fn::SpectralField& b,
                      double tol) {
  double scale = 1e-30;
  for (int m = 0; m <= a.mmax(); ++m)
    for (int k = 0; k < a.kmax(); ++k)
      scale = std::max(scale, std::abs(a.at(m, k)));
  for (int m = 0; m <= a.mmax(); ++m)
    for (int k = 0; k < a.kmax(); ++k)
      EXPECT_NEAR(std::abs(a.at(m, k) - b.at(m, k)), 0.0, tol * scale)
          << "m=" << m << " k=" << k;
}

void expect_grid_near(const Field2Dd& a, const Field2Dd& b, double tol) {
  double scale = 1e-30;
  for (std::size_t i = 0; i < a.size(); ++i)
    scale = std::max(scale, std::abs(a.vec()[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a.vec()[i], b.vec()[i], tol * scale) << "i=" << i;
}

template <typename T>
std::vector<T*> ptrs(std::vector<T>& v) {
  std::vector<T*> out;
  out.reserve(v.size());
  for (auto& x : v) out.push_back(&x);
  return out;
}

template <typename T>
std::vector<const T*> cptrs(const std::vector<T>& v) {
  std::vector<const T*> out;
  out.reserve(v.size());
  for (const auto& x : v) out.push_back(&x);
  return out;
}

}  // namespace

// (nlon, nlat) at the highest alias-free rhomboidal truncation the
// longitudes allow, mmax = (nlon - 1) / 3: R7 with even nlat (all rows
// mirror-paired) and odd nlat (an unpaired equator row), and
// bench_spectral_kernels' R15 (48x40) and R31 (96x80).
INSTANTIATE_TEST_SUITE_P(Grids, EngineAgreement,
                         ::testing::Values(std::pair<int, int>{24, 20},
                                           std::pair<int, int>{24, 11},
                                           std::pair<int, int>{48, 40},
                                           std::pair<int, int>{96, 80}));

TEST_P(EngineAgreement, AllBatchEntryPoints) {
  const auto [nlon, nlat] = GetParam();
  const int mmax = (nlon - 1) / 3;
  const fn::GaussianGrid grid(nlon, nlat);
  const fn::SpectralTransform st(grid, mmax);
  const foam::oracle::SpectralOracle ref(grid, mmax);
  const std::vector<int>& all = ref.all_lats();
  fn::SpectralWorkspace ws;
  const double tol = 1e-12;

  const int batch = 3;
  std::vector<Field2Dd> As, Bs;
  for (int f = 0; f < batch; ++f) {
    As.push_back(wavy(grid, f));
    Bs.push_back(wavy(grid, f + batch));
  }

  // Oracle results, one field at a time. The analyzed fields feed the
  // synthesis and the winds (the curl as chi exercises both wind terms).
  std::vector<fn::SpectralField> s_ref, d_ref, c_ref;
  std::vector<Field2Dd> g_ref, u_ref(batch, Field2Dd(nlon, nlat)),
      v_ref(batch, Field2Dd(nlon, nlat));
  for (int f = 0; f < batch; ++f) {
    s_ref.push_back(ref.analyze(As[f]));
    d_ref.push_back(ref.analyze_div(As[f], Bs[f], all));
    c_ref.push_back(ref.analyze_curl(As[f], Bs[f], all));
    g_ref.push_back(ref.synthesize(s_ref[f]));
    ref.uv_from_psi_chi(s_ref[f], c_ref[f], u_ref[f], v_ref[f], all);
  }

  // Engine results, one batch per entry point.
  const auto a_ptrs = cptrs(As), b_ptrs = cptrs(Bs);
  const auto s_eng = st.analyze_batch(a_ptrs, ws);
  const auto d_eng = st.analyze_div_batch(a_ptrs, b_ptrs, ws);
  const auto c_eng = st.analyze_curl_batch(a_ptrs, b_ptrs, ws);
  std::vector<Field2Dd> g_eng(batch, Field2Dd(nlon, nlat));
  st.synthesize_batch(cptrs(s_ref), ptrs(g_eng), ws);
  std::vector<Field2Dd> u_eng(batch, Field2Dd(nlon, nlat)),
      v_eng(batch, Field2Dd(nlon, nlat));
  st.uv_from_psi_chi_batch(cptrs(s_ref), cptrs(c_ref), ptrs(u_eng),
                           ptrs(v_eng), ws);

  for (int f = 0; f < batch; ++f) {
    expect_spec_near(s_ref[f], s_eng[f], tol);
    expect_spec_near(d_ref[f], d_eng[f], tol);
    expect_spec_near(c_ref[f], c_eng[f], tol);
    expect_grid_near(g_ref[f], g_eng[f], tol);
    expect_grid_near(u_ref[f], u_eng[f], tol);
    expect_grid_near(v_ref[f], v_eng[f], tol);
  }

  // Single-field entry points agree with their batch-of-one selves.
  const fn::SpectralField s1 = st.analyze(As[0], ws);
  expect_spec_near(s1, s_eng[0], 0.0);
}
