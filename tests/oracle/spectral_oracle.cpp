#include "oracle/spectral_oracle.hpp"

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::oracle {

using cplx = std::complex<double>;
using constants::earth_radius;
using numerics::SpectralField;

SpectralOracle::SpectralOracle(const numerics::GaussianGrid& grid, int mmax)
    : grid_(grid),
      mmax_(mmax),
      kmax_(mmax + 1),
      fft_(grid.nlon()),
      table_(mmax, /*kmax=*/mmax + 1, grid.mus()) {
  FOAM_REQUIRE(mmax >= 1, "mmax=" << mmax);
  all_lats_.resize(grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) all_lats_[j] = j;
}

std::vector<cplx> SpectralOracle::fourier_row(const Field2Dd& f,
                                              int j) const {
  const int nlon = grid_.nlon();
  std::vector<double> row(nlon);
  for (int i = 0; i < nlon; ++i) row[i] = f(i, j);
  std::vector<cplx> fm = fft_.forward_real(row);
  fm.resize(mmax_ + 1);
  const double inv_n = 1.0 / nlon;
  for (cplx& v : fm) v *= inv_n;
  return fm;
}

void SpectralOracle::inv_fourier_row(const std::vector<cplx>& fm,
                                     Field2Dd& f, int j) const {
  const int nlon = grid_.nlon();
  std::vector<cplx> spec(nlon / 2 + 1, cplx(0.0, 0.0));
  for (int m = 0; m <= mmax_; ++m)
    spec[m] = fm[m] * static_cast<double>(nlon);
  const std::vector<double> row = fft_.inverse_real(spec);
  for (int i = 0; i < nlon; ++i) f(i, j) = row[i];
}

SpectralField SpectralOracle::analyze(const Field2Dd& f,
                                      std::span<const int> lats) const {
  SpectralField s(mmax_, kmax_);
  for (const int j : lats) {
    const std::vector<cplx> fm = fourier_row(f, j);
    const double wj = 0.5 * grid_.gauss_weight(j);
    for (int m = 0; m <= mmax_; ++m) {
      const cplx wfm = wj * fm[m];
      for (int k = 0; k < kmax_; ++k) s.at(m, k) += wfm * table_.p(m, k, j);
    }
  }
  return s;
}

void SpectralOracle::synthesize(const SpectralField& s, Field2Dd& f,
                                std::span<const int> lats) const {
  std::vector<cplx> fm(mmax_ + 1);
  for (const int j : lats) {
    for (int m = 0; m <= mmax_; ++m) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < kmax_; ++k) acc += s.at(m, k) * table_.p(m, k, j);
      fm[m] = acc;
    }
    inv_fourier_row(fm, f, j);
  }
}

Field2Dd SpectralOracle::synthesize(const SpectralField& s) const {
  Field2Dd f(grid_.nlon(), grid_.nlat());
  synthesize(s, f, all_lats_);
  return f;
}

SpectralField SpectralOracle::analyze_vec(const Field2Dd& X,
                                          const Field2Dd& Y, double sign,
                                          std::span<const int> lats) const {
  SpectralField s(mmax_, kmax_);
  for (const int j : lats) {
    const std::vector<cplx> xm = fourier_row(X, j);
    const std::vector<cplx> ym = fourier_row(Y, j);
    const double mu = grid_.mu(j);
    const double wj =
        0.5 * grid_.gauss_weight(j) / (earth_radius * (1.0 - mu * mu));
    for (int m = 0; m <= mmax_; ++m) {
      const cplx ix = cplx(0.0, static_cast<double>(m)) * xm[m] * wj;
      const cplx y = sign * (ym[m] * wj);
      for (int k = 0; k < kmax_; ++k)
        s.at(m, k) += ix * table_.p(m, k, j) + y * table_.h(m, k, j);
    }
  }
  return s;
}

SpectralField SpectralOracle::analyze_div(const Field2Dd& A,
                                          const Field2Dd& B,
                                          std::span<const int> lats) const {
  // (1/(a(1-mu^2))) dA/dlon + (1/a) dB/dmu, integrated by parts.
  return analyze_vec(A, B, -1.0, lats);
}

SpectralField SpectralOracle::analyze_curl(const Field2Dd& A,
                                           const Field2Dd& B,
                                           std::span<const int> lats) const {
  // (1/(a(1-mu^2))) dB/dlon - (1/a) dA/dmu, integrated by parts.
  return analyze_vec(B, A, 1.0, lats);
}

void SpectralOracle::uv_from_psi_chi(const SpectralField& psi,
                                     const SpectralField& chi, Field2Dd& U,
                                     Field2Dd& V,
                                     std::span<const int> lats) const {
  std::vector<cplx> um(mmax_ + 1), vm(mmax_ + 1);
  const double inv_a = 1.0 / earth_radius;
  for (const int j : lats) {
    for (int m = 0; m <= mmax_; ++m) {
      const cplx im(0.0, static_cast<double>(m));
      cplx u(0.0, 0.0), v(0.0, 0.0);
      for (int k = 0; k < kmax_; ++k) {
        const double p = table_.p(m, k, j);
        const double h = table_.h(m, k, j);
        u += im * chi.at(m, k) * p - psi.at(m, k) * h;
        v += im * psi.at(m, k) * p + chi.at(m, k) * h;
      }
      um[m] = u * inv_a;
      vm[m] = v * inv_a;
    }
    inv_fourier_row(um, U, j);
    inv_fourier_row(vm, V, j);
  }
}

}  // namespace foam::oracle
