#include "numerics/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "base/constants.hpp"
#include "oracle/spectral_oracle.hpp"
#include "par/decomp.hpp"
#include "par/team.hpp"

namespace foam::numerics {
namespace {

using constants::earth_radius;
using cplx = std::complex<double>;

/// R15 configuration used by the FOAM atmosphere.
struct R15 {
  R15() : grid(48, 40), st(grid, 15) {}
  GaussianGrid grid;
  SpectralTransform st;
};

SpectralField random_spectral(int mmax, int kmax, unsigned seed) {
  SpectralField s(mmax, kmax);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int m = 0; m <= mmax; ++m)
    for (int k = 0; k < kmax; ++k)
      s.at(m, k) = (m == 0) ? cplx(dist(rng), 0.0)
                            : cplx(dist(rng), dist(rng));
  return s;
}

TEST(Spectral, SynthesizeAnalyzeIsIdentityOnTruncatedFields) {
  R15 r;
  const SpectralField s = random_spectral(15, 16, 11);
  const Field2Dd g = r.st.synthesize(s);
  const SpectralField back = r.st.analyze(g);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      EXPECT_NEAR(back.at(m, k).real(), s.at(m, k).real(), 1e-10)
          << "m=" << m << " k=" << k;
      EXPECT_NEAR(back.at(m, k).imag(), s.at(m, k).imag(), 1e-10)
          << "m=" << m << " k=" << k;
    }
}

TEST(Spectral, ConstantFieldMapsToMeanCoefficient) {
  R15 r;
  Field2Dd g(48, 40, 3.25);
  const SpectralField s = r.st.analyze(g);
  EXPECT_NEAR(s.at(0, 0).real(), 3.25, 1e-12);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k)
      if (!(m == 0 && k == 0)) {
        EXPECT_NEAR(std::abs(s.at(m, k)), 0.0, 1e-12);
      }
}

TEST(Spectral, SphericalHarmonicIsLaplacianEigenfunction) {
  R15 r;
  // Y_n^m with (m, n) = (3, 7): put a single coefficient, synthesize,
  // analyze the Laplacian and compare with the eigenvalue.
  SpectralField s(15, 16);
  s.at(3, 4) = cplx(1.0, 0.5);  // n = 3 + 4 = 7
  SpectralField lap(s);
  r.st.laplacian(lap);
  const double expected = -7.0 * 8.0 / (earth_radius * earth_radius);
  EXPECT_NEAR(lap.at(3, 4).real(), expected * 1.0, std::abs(expected) * 1e-12);
  EXPECT_NEAR(lap.at(3, 4).imag(), expected * 0.5, std::abs(expected) * 1e-12);
}

TEST(Spectral, InverseLaplacianInvertsAwayFromN0) {
  R15 r;
  SpectralField s = random_spectral(15, 16, 21);
  SpectralField t(s);
  r.st.laplacian(t);
  r.st.inverse_laplacian(t);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      if (m == 0 && k == 0) {
        EXPECT_NEAR(std::abs(t.at(0, 0)), 0.0, 1e-14);
      } else {
        EXPECT_NEAR(t.at(m, k).real(), s.at(m, k).real(), 1e-11);
        EXPECT_NEAR(t.at(m, k).imag(), s.at(m, k).imag(), 1e-11);
      }
    }
}

TEST(Spectral, PowerMatchesAreaWeightedMeanSquare) {
  R15 r;
  const SpectralField s = random_spectral(15, 16, 31);
  const Field2Dd g = r.st.synthesize(s);
  // Area-weighted mean square over the Gaussian grid.
  double ms = 0.0;
  for (int j = 0; j < 40; ++j) {
    double row = 0.0;
    for (int i = 0; i < 48; ++i) row += g(i, j) * g(i, j);
    ms += 0.5 * r.grid.gauss_weight(j) * row / 48.0;
  }
  EXPECT_NEAR(s.power(), ms, 1e-10 * std::max(1.0, ms));
}

TEST(Spectral, CurlOfPsiWindsRecoversVorticity) {
  // U, V from a pure streamfunction psi: analyze_curl(U, V) must equal
  // laplacian(psi) — the core identity of the vorticity-divergence dycore.
  R15 r;
  SpectralField psi = random_spectral(15, 16, 41);
  psi *= 1.0e7;  // physical streamfunction magnitude [m^2/s]
  // Zero the last total wavenumber rows to leave headroom: the winds of a
  // degree-n streamfunction have degree n+1 content.
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);  // zero
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField zeta = r.st.analyze_curl(U, V);
  SpectralField expected(psi);
  r.st.laplacian(expected);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k) {
      EXPECT_NEAR(zeta.at(m, k).real(), expected.at(m, k).real(), 1e-9)
          << "m=" << m << " k=" << k;
      EXPECT_NEAR(zeta.at(m, k).imag(), expected.at(m, k).imag(), 1e-9)
          << "m=" << m << " k=" << k;
    }
}

TEST(Spectral, DivOfChiWindsRecoversDivergence) {
  R15 r;
  SpectralField chi = random_spectral(15, 16, 43);
  chi *= 1.0e7;  // physical velocity-potential magnitude [m^2/s]
  for (int m = 0; m <= 15; ++m) chi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField psi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField div = r.st.analyze_div(U, V);
  SpectralField expected(chi);
  r.st.laplacian(expected);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k) {
      EXPECT_NEAR(div.at(m, k).real(), expected.at(m, k).real(), 1e-9);
      EXPECT_NEAR(div.at(m, k).imag(), expected.at(m, k).imag(), 1e-9);
    }
}

TEST(Spectral, PsiWindsAreNonDivergent) {
  R15 r;
  SpectralField psi = random_spectral(15, 16, 47);
  psi *= 1.0e7;
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField div = r.st.analyze_div(U, V);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k)
      EXPECT_NEAR(std::abs(div.at(m, k)), 0.0, 1e-9)
          << "m=" << m << " k=" << k;
}

TEST(Spectral, DdlonMultipliesByIm) {
  R15 r;
  SpectralField s = random_spectral(15, 16, 53);
  const SpectralField d = r.st.d_dlon(s);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      const cplx expected = cplx(0.0, static_cast<double>(m)) * s.at(m, k);
      EXPECT_NEAR(d.at(m, k).real(), expected.real(), 1e-14);
      EXPECT_NEAR(d.at(m, k).imag(), expected.imag(), 1e-14);
    }
}

TEST(Spectral, RejectsTooCoarseGrids) {
  GaussianGrid tiny(32, 20);
  EXPECT_THROW(SpectralTransform(tiny, 15), Error);  // nlon < 3*15+1
}

// ---------------------------------------------------------------------------
// Batch vs single-field calls, bit for bit: every Fourier row goes through
// the FFT rows API alone or with the rest of its batch, and a row's result
// must not depend on which lanes it shared.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_spec_bitwise(const SpectralField& a, const SpectralField& b,
                         const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a.data()[i].real()), bits(b.data()[i].real()))
        << what << " i=" << i;
    EXPECT_EQ(bits(a.data()[i].imag()), bits(b.data()[i].imag()))
        << what << " i=" << i;
  }
}

void expect_rows_bitwise(const Field2Dd& a, const Field2Dd& b,
                         const std::vector<int>& rows, const char* what) {
  for (const int j : rows)
    for (int i = 0; i < a.nx(); ++i)
      EXPECT_EQ(bits(a(i, j)), bits(b(i, j))) << what << " i=" << i
                                              << " j=" << j;
}

/// F smooth-plus-noise grid fields and F spectral fields for one grid.
struct BatchInputs {
  BatchInputs(const GaussianGrid& grid, int nf, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int f = 0; f < 2 * nf; ++f) {
      Field2Dd g(grid.nlon(), grid.nlat());
      for (int j = 0; j < grid.nlat(); ++j)
        for (int i = 0; i < grid.nlon(); ++i)
          g(i, j) = std::sin(0.3 * (f + 1) * i) * grid.mu(j) + dist(rng);
      grids.push_back(std::move(g));
      specs.push_back(random_spectral(15, 16, seed + 31u * f));
    }
    for (int f = 0; f < nf; ++f) {
      A.push_back(&grids[f]);
      B.push_back(&grids[nf + f]);
      psi.push_back(&specs[f]);
      chi.push_back(&specs[nf + f]);
    }
  }
  std::vector<Field2Dd> grids;
  std::vector<SpectralField> specs;
  std::vector<const Field2Dd*> A, B;
  std::vector<const SpectralField*> psi, chi;
};

std::vector<Field2Dd> blank_grids(const GaussianGrid& grid, int nf) {
  return std::vector<Field2Dd>(nf, Field2Dd(grid.nlon(), grid.nlat(), 0.0));
}

std::vector<Field2Dd*> ptrs(std::vector<Field2Dd>& gs) {
  std::vector<Field2Dd*> out;
  for (auto& g : gs) out.push_back(&g);
  return out;
}

TEST(Spectral, BatchEqualsSingleCallsBitwise) {
  // Even nlat (all rows paired) and odd nlat (an unpaired equator row); 5
  // fields is not a multiple of the FFT lane width.
  for (const int nlat : {40, 41}) {
    const GaussianGrid grid(48, nlat);
    const SpectralTransform st(grid, 15);
    SpectralWorkspace ws;
    const int nf = 5;
    const BatchInputs in(grid, nf, 300u + nlat);
    std::vector<int> all(nlat);
    for (int j = 0; j < nlat; ++j) all[j] = j;

    const auto an = st.analyze_batch(in.A, ws);
    const auto dv = st.analyze_div_batch(in.A, in.B, ws);
    const auto cu = st.analyze_curl_batch(in.A, in.B, ws);
    auto syn = blank_grids(grid, nf);
    st.synthesize_batch(in.psi, ptrs(syn), ws);
    auto us = blank_grids(grid, nf), vs = blank_grids(grid, nf);
    st.uv_from_psi_chi_batch(in.psi, in.chi, ptrs(us), ptrs(vs), ws);
    for (int f = 0; f < nf; ++f) {
      expect_spec_bitwise(an[f], st.analyze(*in.A[f], ws), "analyze");
      expect_spec_bitwise(dv[f], st.analyze_div(*in.A[f], *in.B[f]), "div");
      expect_spec_bitwise(cu[f], st.analyze_curl(*in.A[f], *in.B[f]),
                          "curl");
      expect_rows_bitwise(syn[f], st.synthesize(*in.psi[f], ws), all,
                          "synthesize");
      Field2Dd u, v;
      st.uv_from_psi_chi(*in.psi[f], *in.chi[f], u, v);
      expect_rows_bitwise(us[f], u, all, "u");
      expect_rows_bitwise(vs[f], v, all, "v");
    }
  }
}

/// Every batched entry point's outputs for one set of inputs.
struct BatchOutputs {
  std::vector<SpectralField> an, dv, cu;
  std::vector<Field2Dd> syn, us, vs;
};

void expect_outputs_bitwise(const BatchOutputs& a, const BatchOutputs& b,
                            const std::vector<int>& rows, int members) {
  SCOPED_TRACE(::testing::Message() << members << " member(s)");
  for (std::size_t f = 0; f < a.an.size(); ++f) {
    expect_spec_bitwise(a.an[f], b.an[f], "analyze");
    expect_spec_bitwise(a.dv[f], b.dv[f], "div");
    expect_spec_bitwise(a.cu[f], b.cu[f], "curl");
    expect_rows_bitwise(a.syn[f], b.syn[f], rows, "synthesize");
    expect_rows_bitwise(a.us[f], b.us[f], rows, "u");
    expect_rows_bitwise(a.vs[f], b.vs[f], rows, "v");
  }
}

TEST(Spectral, TeamBatchEqualsSerialBitwise) {
  // Each batched entry point, serial and distributed, split by field over
  // a team of 1-4 members, must reproduce the team-less batch bit for bit.
  // 5 fields split unevenly; odd nlat and a partial latitude set give
  // unpaired rows.
  for (const int nlat : {40, 41}) {
    const GaussianGrid grid(48, nlat);
    const SpectralTransform st(grid, 15);
    const int nf = 5;
    const BatchInputs in(grid, nf, 900u + nlat);
    std::vector<int> all(nlat);
    for (int j = 0; j < nlat; ++j) all[j] = j;
    const auto serial = [&](par::Team* team) {
      SpectralWorkspace ws;
      BatchOutputs o;
      o.an = st.analyze_batch(in.A, ws, team);
      o.dv = st.analyze_div_batch(in.A, in.B, ws, team);
      o.cu = st.analyze_curl_batch(in.A, in.B, ws, team);
      o.syn = blank_grids(grid, nf);
      st.synthesize_batch(in.psi, ptrs(o.syn), ws, team);
      o.us = blank_grids(grid, nf);
      o.vs = blank_grids(grid, nf);
      st.uv_from_psi_chi_batch(in.psi, in.chi, ptrs(o.us), ptrs(o.vs), ws,
                               team);
      return o;
    };
    // The distributed transform over the southern two thirds of the rows:
    // some mirror pairs, some singles.
    std::vector<int> part;
    for (int j = 0; j < 2 * nlat / 3; ++j) part.push_back(j);
    const auto distributed = [&](par::Comm& comm, par::Team* team) {
      ParSpectralTransform pst(st, part);
      pst.set_team(team);
      BatchOutputs o;
      o.an = pst.analyze_batch(comm, in.A);
      o.dv = pst.analyze_div_batch(comm, in.A, in.B);
      o.cu = pst.analyze_curl_batch(comm, in.A, in.B);
      o.syn = blank_grids(grid, nf);
      pst.synthesize_batch(in.psi, ptrs(o.syn));
      o.us = blank_grids(grid, nf);
      o.vs = blank_grids(grid, nf);
      pst.uv_from_psi_chi_batch(in.psi, in.chi, ptrs(o.us), ptrs(o.vs));
      return o;
    };
    const BatchOutputs ref = serial(nullptr);
    par::run(1, [&](par::Comm& comm) {
      const BatchOutputs dref = distributed(comm, nullptr);
      for (int members = 1; members <= par::kMaxTeamMembers; ++members) {
        par::Team team(members);
        expect_outputs_bitwise(ref, serial(&team), all, members);
        expect_outputs_bitwise(dref, distributed(comm, &team), part, members);
      }
    });
  }
}

TEST(Spectral, NonFiniteGridPointGivesNonFiniteCoefficients) {
  // Explicit complex products drop C99 Annex G's infinity recovery; a NaN
  // or infinity in the grid must still surface as a non-finite spectrum
  // (the model's non-finite sentinel relies on it).
  R15 r;
  auto non_finite = [](const SpectralField& s) {
    for (std::size_t i = 0; i < s.size(); ++i)
      if (!std::isfinite(s.data()[i].real()) ||
          !std::isfinite(s.data()[i].imag()))
        return true;
    return false;
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Field2Dd g(48, 40, 1.5);
    g(17, 9) = bad;
    const Field2Dd ok(48, 40, 0.5);
    EXPECT_TRUE(non_finite(r.st.analyze(g))) << bad;
    EXPECT_TRUE(non_finite(r.st.analyze_div(g, ok))) << bad;
    EXPECT_TRUE(non_finite(r.st.analyze_curl(ok, g))) << bad;
    // The bad row shares its FFT lanes with finite rows, which stay finite.
    SpectralWorkspace ws;
    const auto batch = r.st.analyze_batch({&ok, &g, &ok}, ws);
    EXPECT_FALSE(non_finite(batch[0])) << bad;
    EXPECT_TRUE(non_finite(batch[1])) << bad;
    EXPECT_FALSE(non_finite(batch[2])) << bad;
  }
}

class ParSpectralRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParSpectralRanks, MatchesSerialTransform) {
  const int nranks = GetParam();
  R15 r;
  const SpectralField s_in = random_spectral(15, 16, 61);
  const Field2Dd g_ref = r.st.synthesize(s_in);
  const SpectralField spec_ref = r.st.analyze(g_ref);

  par::run(nranks, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    ParSpectralTransform pst(r.st, owned[comm.rank()]);
    // Parallel analysis of the full grid field (each rank reads only its
    // own latitude rows), as a batch of one.
    const SpectralField spec = pst.analyze_batch(comm, {&g_ref})[0];
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(spec.at(m, k) - spec_ref.at(m, k)), 0.0, 1e-11);
    // Parallel synthesis fills only owned rows; assemble and compare.
    Field2Dd local(48, 40, 0.0);
    pst.synthesize_batch({&spec}, {&local});
    for (const int j : owned[comm.rank()])
      for (int i = 0; i < 48; ++i)
        EXPECT_NEAR(local(i, j), g_ref(i, j), 1e-10);
  });
}

TEST_P(ParSpectralRanks, ParallelCurlMatchesSerial) {
  const int nranks = GetParam();
  R15 r;
  SpectralField psi = random_spectral(15, 16, 67);
  psi *= 1.0e7;
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField ref = r.st.analyze_curl(U, V);

  par::run(nranks, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    ParSpectralTransform pst(r.st, owned[comm.rank()]);
    const SpectralField curl = pst.analyze_curl_batch(comm, {&U}, {&V})[0];
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(curl.at(m, k) - ref.at(m, k)), 0.0, 1e-11);
  });
}

TEST_P(ParSpectralRanks, BatchEqualsSingleCallsBitwise) {
  // A batch of F fields against F batches of one.
  const int nranks = GetParam();
  R15 r;
  const int nf = 3;
  const BatchInputs in(r.grid, nf, 700u);
  par::run(nranks, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    const std::vector<int>& mine = owned[comm.rank()];
    ParSpectralTransform pst(r.st, mine);
    const auto an = pst.analyze_batch(comm, in.A);
    const auto dv = pst.analyze_div_batch(comm, in.A, in.B);
    const auto cu = pst.analyze_curl_batch(comm, in.A, in.B);
    auto syn = blank_grids(r.grid, nf);
    pst.synthesize_batch(in.psi, ptrs(syn));
    auto us = blank_grids(r.grid, nf), vs = blank_grids(r.grid, nf);
    pst.uv_from_psi_chi_batch(in.psi, in.chi, ptrs(us), ptrs(vs));
    for (int f = 0; f < nf; ++f) {
      expect_spec_bitwise(an[f], pst.analyze_batch(comm, {in.A[f]})[0],
                          "analyze");
      expect_spec_bitwise(
          dv[f], pst.analyze_div_batch(comm, {in.A[f]}, {in.B[f]})[0], "div");
      expect_spec_bitwise(
          cu[f], pst.analyze_curl_batch(comm, {in.A[f]}, {in.B[f]})[0],
          "curl");
      Field2Dd g(48, 40, 0.0), u(48, 40, 0.0), v(48, 40, 0.0);
      pst.synthesize_batch({in.psi[f]}, {&g});
      expect_rows_bitwise(syn[f], g, mine, "synthesize");
      pst.uv_from_psi_chi_batch({in.psi[f]}, {in.chi[f]}, {&u}, {&v});
      expect_rows_bitwise(us[f], u, mine, "u");
      expect_rows_bitwise(vs[f], v, mine, "v");
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParSpectralRanks,
                         ::testing::Values(1, 2, 4, 5));

/// Largest |a - b| over the field, relative to the largest |a|.
double rel_diff(const SpectralField& a, const SpectralField& b) {
  double scale = 1e-300, worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    scale = std::max(scale, std::abs(a.data()[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  return worst / scale;
}

double rel_diff(const Field2Dd& a, const Field2Dd& b) {
  double scale = 1e-300, worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    scale = std::max(scale, std::abs(a.vec()[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a.vec()[i] - b.vec()[i]));
  return worst / scale;
}

TEST(ParSpectral, ThreeRankSplitMatchesOracle) {
  // Every distributed batch entry point on a 3-rank paired-latitude split
  // against the reference loops. The analyses are complete after the
  // fused allreduce; a rank's syntheses are compared over the whole grid
  // with the oracle run on the rank's rows only, so a write to a row the
  // rank does not own fails too.
  R15 r;
  const oracle::SpectralOracle ref(r.grid, 15);
  const std::vector<int>& all = ref.all_lats();
  const int nf = 3;
  const BatchInputs in(r.grid, nf, 1100u);
  const double tol = 1e-12;
  par::run(3, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    const std::vector<int>& mine = owned[comm.rank()];
    ParSpectralTransform pst(r.st, mine);
    const auto an = pst.analyze_batch(comm, in.A);
    const auto dv = pst.analyze_div_batch(comm, in.A, in.B);
    const auto cu = pst.analyze_curl_batch(comm, in.A, in.B);
    auto syn = blank_grids(r.grid, nf);
    pst.synthesize_batch(in.psi, ptrs(syn));
    auto us = blank_grids(r.grid, nf), vs = blank_grids(r.grid, nf);
    pst.uv_from_psi_chi_batch(in.psi, in.chi, ptrs(us), ptrs(vs));
    for (int f = 0; f < nf; ++f) {
      EXPECT_LE(rel_diff(ref.analyze(*in.A[f], all), an[f]), tol);
      EXPECT_LE(rel_diff(ref.analyze_div(*in.A[f], *in.B[f], all), dv[f]),
                tol);
      EXPECT_LE(rel_diff(ref.analyze_curl(*in.A[f], *in.B[f], all), cu[f]),
                tol);
      Field2Dd g(48, 40, 0.0), u(48, 40, 0.0), v(48, 40, 0.0);
      ref.synthesize(*in.psi[f], g, mine);
      ref.uv_from_psi_chi(*in.psi[f], *in.chi[f], u, v, mine);
      EXPECT_LE(rel_diff(g, syn[f]), tol);
      EXPECT_LE(rel_diff(u, us[f]), tol);
      EXPECT_LE(rel_diff(v, vs[f]), tol);
    }
  });
}

}  // namespace
}  // namespace foam::numerics
