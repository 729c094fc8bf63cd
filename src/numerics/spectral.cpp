#include "numerics/spectral.hpp"

#include <array>
#include <cmath>

#include "base/constants.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::numerics {

using cplx = std::complex<double>;
using constants::earth_radius;

namespace {

/// Batch-level telemetry: per-row counters at ~1.3M row transforms per
/// simulated day would cost a few percent, so sizes are accounted here,
/// once per batch call. plan_rows counts latitude rows pushed through the
/// cached FFT plan — the plan-reuse analogue of a cache-hit counter.
void note_batch(std::size_t fields, std::size_t rows) {
  if (telemetry::current() == nullptr) return;
  telemetry::count("spectral.engine_batches");
  telemetry::observe("spectral.batch_fields", static_cast<double>(fields));
  telemetry::count("spectral.plan_rows",
                   static_cast<std::uint64_t>(rows) * fields);
}

/// i m times z, written out as the complex product GCC emits for
/// `cplx(0, m) * z` on baseline x86-64: (0 z_re - m z_im, 0 z_im + m z_re),
/// without the C99 Annex G NaN fallback (a non-finite input still gives a
/// non-finite output). The 0.0 * terms stay: dropping them can flip the
/// sign of a zero, and the pinned digests hash bits.
///
/// On an FMA-capable -march, GCC's SLP addsub pattern fuses such a
/// (re, im) pair of products and sums into one vfmaddsub despite
/// -ffp-contract=off, whether the product is spelled with std::complex or
/// not. The empty asm makes the four products opaque to the vectorizer, so
/// each is rounded on its own on every target; it emits no instruction.
cplx times_im(double m, cplx z) {
  double re0 = 0.0 * z.real(), re1 = m * z.imag();
  double im0 = 0.0 * z.imag(), im1 = m * z.real();
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  asm("" : "+x"(re0), "+x"(re1), "+x"(im0), "+x"(im1));
#endif
  return {re0 - re1, im0 + im1};
}

}  // namespace

SpectralField& SpectralField::operator+=(const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += o.c_[i];
  return *this;
}

SpectralField& SpectralField::operator-=(const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] -= o.c_[i];
  return *this;
}

SpectralField& SpectralField::operator*=(double s) {
  for (auto& v : c_) v *= s;
  return *this;
}

void SpectralField::axpy(double a, const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += a * o.c_[i];
}

double SpectralField::power() const {
  double sum = 0.0;
  for (int m = 0; m <= mmax_; ++m) {
    const double fac = (m == 0) ? 1.0 : 2.0;
    for (int k = 0; k < kmax_; ++k) sum += fac * std::norm(at(m, k));
  }
  return sum;
}

SpectralTransform::SpectralTransform(const GaussianGrid& grid, int mmax)
    : grid_(grid),
      mmax_(mmax),
      kmax_(mmax + 1),
      plan_(grid.nlon()),
      table_(mmax, /*kmax=*/mmax + 1, grid.mus()) {
  FOAM_REQUIRE(mmax >= 1, "mmax=" << mmax);
  // Alias-free quadratic products need nlon >= 3*mmax + 1 and
  // nlat >= (3*mmax + 1)/2 for rhomboidal truncation.
  FOAM_REQUIRE(grid.nlon() >= 3 * mmax + 1,
               "nlon=" << grid.nlon() << " too small for R" << mmax);
  FOAM_REQUIRE(grid.nlat() >= (3 * mmax + 1) / 2,
               "nlat=" << grid.nlat() << " too small for R" << mmax);
  std::vector<int> all(grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) all[j] = j;
  pairing_ = make_pairing(grid, all);
}

SpectralTransform::LatPairing SpectralTransform::make_pairing(
    const GaussianGrid& grid, std::span<const int> lats) {
  LatPairing lp;
  const int nlat = grid.nlat();
  std::vector<char> in_set(nlat, 0), used(nlat, 0);
  for (const int j : lats) {
    FOAM_REQUIRE(j >= 0 && j < nlat, "latitude " << j);
    in_set[j] = 1;
  }
  for (const int j : lats) {
    if (used[j]) continue;
    const int jm = nlat - 1 - j;
    // Gaussian nodes are stored exactly mirror-symmetric (gauss.cpp writes
    // mu[i] = -x, mu[n-1-i] = x), so the parity fold is exact; guard it
    // anyway in case a non-Gaussian latitude set ever reaches here.
    const bool mirrored =
        jm != j && in_set[jm] &&
        std::abs(grid.mu(j) + grid.mu(jm)) <=
            1e-14 * (1.0 + std::abs(grid.mu(j))) &&
        std::abs(grid.gauss_weight(j) - grid.gauss_weight(jm)) <=
            1e-14 * grid.gauss_weight(j);
    if (mirrored) {
      used[j] = used[jm] = 1;
      lp.pairs.push_back({std::min(j, jm), std::max(j, jm)});
    } else {
      used[j] = 1;
      lp.singles.push_back(j);
    }
  }
  return lp;
}

// ---------------------------------------------------------------------------
// Plan-based row transforms

void SpectralTransform::fourier_rows(SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nrows = static_cast<int>(ws.src_rows.size());
  ws.fm.resize(static_cast<std::size_t>(nrows) * nm);
  ws.lanes.resize(plan_.rows_scratch_size());
  plan_.forward_real_rows(ws.src_rows.data(), nrows, nm,
                          1.0 / grid_.nlon(), ws.fm.data(), ws.lanes.data());
}

void SpectralTransform::inv_fourier_rows(SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nrows = static_cast<int>(ws.dst_rows.size());
  FOAM_ASSERT(ws.fm.size() >= static_cast<std::size_t>(nrows) * nm,
              "Fourier rows for " << nrows << " grid rows");
  ws.lanes.resize(plan_.rows_scratch_size());
  plan_.inverse_real_rows(ws.fm.data(), nrows, nm,
                          static_cast<double>(grid_.nlon()),
                          ws.dst_rows.data(), ws.lanes.data());
}

// ---------------------------------------------------------------------------
// Engine kernels: parity-folded, panel-blocked Legendre sums.
//
// Pbar parity about the equator: P(m, k, jn) = (-1)^k P(m, k, js) and
// H(m, k, jn) = (-1)^{k+1} H(m, k, js) for a mirror pair (js, jn). Folding
// the pair's Fourier rows into even/odd combinations therefore halves the
// Legendre work: even-k coefficients see only the even fold, odd-k only the
// odd fold. The inner loops stream the LegendreTable's contiguous (m, k)
// panels for the southern row of each pair.
//
// Every kernel moves all Fourier rows of its batch through one FFT rows
// call, in the order its Legendre loops consume them: per mirror pair, each
// field's rows; then per single row, each field's rows.

void SpectralTransform::analyze_fields(const LatPairing& lp, Grids fs,
                                       std::span<SpectralField> out,
                                       SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(fs.size());
  ws.src_rows.clear();
  for (const auto& pr : lp.pairs)
    for (int f = 0; f < nf; ++f) {
      ws.src_rows.push_back(&(*fs[f])(0, pr[0]));
      ws.src_rows.push_back(&(*fs[f])(0, pr[1]));
    }
  for (const int j : lp.singles)
    for (int f = 0; f < nf; ++f) ws.src_rows.push_back(&(*fs[f])(0, j));
  fourier_rows(ws);
  const cplx* fm = ws.fm.data();
  ws.fold_pe.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_po.resize(static_cast<std::size_t>(nf) * nm);
  for (const auto& pr : lp.pairs) {
    const int js = pr[0];
    const double w = 0.5 * grid_.gauss_weight(js);
    for (int f = 0; f < nf; ++f, fm += 2 * nm) {
      const cplx* fm_s = fm;
      const cplx* fm_n = fm + nm;
      cplx* fe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      cplx* fo = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        fe[m] = w * (fm_s[m] + fm_n[m]);
        fo[m] = w * (fm_s[m] - fm_n[m]);
      }
    }
    const double* P = table_.p_row(js);
    for (int f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* fe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      const cplx* fo = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx Fe = fe[m], Fo = fo[m];
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          sm[k] += Fe * pm[k];
          sm[k + 1] += Fo * pm[k + 1];
        }
        if (k < kmax_) sm[k] += Fe * pm[k];
      }
    }
  }
  for (const int j : lp.singles) {
    const double w = 0.5 * grid_.gauss_weight(j);
    const double* P = table_.p_row(j);
    for (int f = 0; f < nf; ++f, fm += nm) {
      cplx* s = out[f].data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx wf = w * fm[m];
        for (int k = 0; k < kmax_; ++k) sm[k] += wf * pm[k];
      }
    }
  }
}

void SpectralTransform::synthesize_fields(const LatPairing& lp, Spectra ss,
                                          OutGrids outs,
                                          SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(ss.size());
  ws.fm.resize(static_cast<std::size_t>(nf) *
               (2 * lp.pairs.size() + lp.singles.size()) * nm);
  ws.dst_rows.clear();
  cplx* fm = ws.fm.data();
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double* P = table_.p_row(js);
    for (int f = 0; f < nf; ++f, fm += 2 * nm) {
      const cplx* s = ss[f]->data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        cplx acc_e(0.0, 0.0), acc_o(0.0, 0.0);
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          acc_e += sm[k] * pm[k];
          acc_o += sm[k + 1] * pm[k + 1];
        }
        if (k < kmax_) acc_e += sm[k] * pm[k];
        fm[m] = acc_e + acc_o;       // southern row: P as tabulated
        fm[nm + m] = acc_e - acc_o;  // northern mirror: (-1)^k parity
      }
      ws.dst_rows.push_back(&(*outs[f])(0, js));
      ws.dst_rows.push_back(&(*outs[f])(0, jn));
    }
  }
  for (const int j : lp.singles) {
    const double* P = table_.p_row(j);
    for (int f = 0; f < nf; ++f, fm += nm) {
      const cplx* s = ss[f]->data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        cplx acc(0.0, 0.0);
        for (int k = 0; k < kmax_; ++k) acc += sm[k] * pm[k];
        fm[m] = acc;
      }
      ws.dst_rows.push_back(&(*outs[f])(0, j));
    }
  }
  inv_fourier_rows(ws);
}

void SpectralTransform::analyze_vec_fields(const LatPairing& lp, bool curl,
                                           Grids As, Grids Bs,
                                           std::span<SpectralField> out,
                                           SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(As.size());
  ws.src_rows.clear();
  for (const auto& pr : lp.pairs)
    for (int f = 0; f < nf; ++f)
      for (const Field2Dd* g : {As[f], Bs[f]}) {
        ws.src_rows.push_back(&(*g)(0, pr[0]));
        ws.src_rows.push_back(&(*g)(0, pr[1]));
      }
  for (const int j : lp.singles)
    for (int f = 0; f < nf; ++f) {
      ws.src_rows.push_back(&(*As[f])(0, j));
      ws.src_rows.push_back(&(*Bs[f])(0, j));
    }
  fourier_rows(ws);
  const cplx* fm = ws.fm.data();
  ws.fold_pe.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_po.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_he.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_ho.resize(static_cast<std::size_t>(nf) * nm);
  for (const auto& pr : lp.pairs) {
    const int js = pr[0];
    const double mu = grid_.mu(js);
    const double wj = 0.5 * grid_.gauss_weight(js) /
                      (earth_radius * (1.0 - mu * mu));
    for (int f = 0; f < nf; ++f, fm += 4 * nm) {
      // A southern, A northern, B southern, B northern.
      const cplx* fm_a = fm;
      const cplx* fm_b = fm + nm;
      const cplx* fm_c = fm + 2 * nm;
      const cplx* fm_d = fm + 3 * nm;
      cplx* pe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      cplx* po = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      cplx* he = ws.fold_he.data() + static_cast<std::size_t>(f) * nm;
      cplx* ho = ws.fold_ho.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        if (!curl) {
          // div: s += (i m A_m) wj P - (B_m wj) H. With H's (-1)^{k+1}
          // parity the even-k H term sees the *odd* fold and vice versa.
          const cplx iaS = times_im(m, fm_a[m]) * wj;
          const cplx iaN = times_im(m, fm_b[m]) * wj;
          const cplx bS = fm_c[m] * wj, bN = fm_d[m] * wj;
          pe[m] = iaS + iaN;
          po[m] = iaS - iaN;
          he[m] = -(bS - bN);
          ho[m] = -(bS + bN);
        } else {
          // curl: s += (i m B_m) wj P + (A_m wj) H.
          const cplx ibS = times_im(m, fm_c[m]) * wj;
          const cplx ibN = times_im(m, fm_d[m]) * wj;
          const cplx aS = fm_a[m] * wj, aN = fm_b[m] * wj;
          pe[m] = ibS + ibN;
          po[m] = ibS - ibN;
          he[m] = aS - aN;
          ho[m] = aS + aN;
        }
      }
    }
    const double* P = table_.p_row(js);
    const double* H = table_.h_row(js);
    for (int f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* pe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      const cplx* po = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      const cplx* he = ws.fold_he.data() + static_cast<std::size_t>(f) * nm;
      const cplx* ho = ws.fold_ho.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx Pe = pe[m], Po = po[m], He = he[m], Ho = ho[m];
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          sm[k] += Pe * pm[k] + He * hm[k];
          sm[k + 1] += Po * pm[k + 1] + Ho * hm[k + 1];
        }
        if (k < kmax_) sm[k] += Pe * pm[k] + He * hm[k];
      }
    }
  }
  for (const int j : lp.singles) {
    const double mu = grid_.mu(j);
    const double wj =
        0.5 * grid_.gauss_weight(j) / (earth_radius * (1.0 - mu * mu));
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (int f = 0; f < nf; ++f, fm += 2 * nm) {
      const cplx* fm_a = fm;       // A
      const cplx* fm_c = fm + nm;  // B
      cplx* s = out[f].data();
      for (int m = 0; m < nm; ++m) {
        cplx cp, ch;
        if (!curl) {
          cp = times_im(m, fm_a[m]) * wj;
          ch = -fm_c[m] * wj;
        } else {
          cp = times_im(m, fm_c[m]) * wj;
          ch = fm_a[m] * wj;
        }
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        for (int k = 0; k < kmax_; ++k) sm[k] += cp * pm[k] + ch * hm[k];
      }
    }
  }
}

void SpectralTransform::uv_fields(const LatPairing& lp, Spectra psis,
                                  Spectra chis, OutGrids Us, OutGrids Vs,
                                  SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(psis.size());
  const double inv_a = 1.0 / earth_radius;
  ws.fm.resize(static_cast<std::size_t>(nf) *
               (4 * lp.pairs.size() + 2 * lp.singles.size()) * nm);
  ws.dst_rows.clear();
  cplx* fm = ws.fm.data();
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double* P = table_.p_row(js);
    const double* H = table_.h_row(js);
    for (int f = 0; f < nf; ++f, fm += 4 * nm) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      // U southern, U northern, V southern, V northern.
      cplx* fm_a = fm;
      cplx* fm_b = fm + nm;
      cplx* fm_c = fm + 2 * nm;
      cplx* fm_d = fm + 3 * nm;
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        const cplx* psm = psi + static_cast<std::size_t>(m) * kmax_;
        const cplx* csm = chi + static_cast<std::size_t>(m) * kmax_;
        // u = sum_k (i m chi_k) P_k - psi_k H_k;
        // v = sum_k (i m psi_k) P_k + chi_k H_k.
        // Split each of the four products by k parity; the northern row
        // flips the odd-parity P sums and the even-parity H sums.
        cplx Ae(0.0, 0.0), Ao(0.0, 0.0);  // (i m chi) P
        cplx Be(0.0, 0.0), Bo(0.0, 0.0);  // psi H
        cplx Ce(0.0, 0.0), Co(0.0, 0.0);  // (i m psi) P
        cplx De(0.0, 0.0), Do(0.0, 0.0);  // chi H
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          Ae += csm[k] * pm[k];
          Be += psm[k] * hm[k];
          Ce += psm[k] * pm[k];
          De += csm[k] * hm[k];
          Ao += csm[k + 1] * pm[k + 1];
          Bo += psm[k + 1] * hm[k + 1];
          Co += psm[k + 1] * pm[k + 1];
          Do += csm[k + 1] * hm[k + 1];
        }
        if (k < kmax_) {
          Ae += csm[k] * pm[k];
          Be += psm[k] * hm[k];
          Ce += psm[k] * pm[k];
          De += csm[k] * hm[k];
        }
        Ae = times_im(m, Ae);
        Ao = times_im(m, Ao);
        Ce = times_im(m, Ce);
        Co = times_im(m, Co);
        fm_a[m] = inv_a * (Ae + Ao - Be - Bo);
        fm_b[m] = inv_a * (Ae - Ao + Be - Bo);
        fm_c[m] = inv_a * (Ce + Co + De + Do);
        fm_d[m] = inv_a * (Ce - Co - De + Do);
      }
      ws.dst_rows.push_back(&(*Us[f])(0, js));
      ws.dst_rows.push_back(&(*Us[f])(0, jn));
      ws.dst_rows.push_back(&(*Vs[f])(0, js));
      ws.dst_rows.push_back(&(*Vs[f])(0, jn));
    }
  }
  for (const int j : lp.singles) {
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (int f = 0; f < nf; ++f, fm += 2 * nm) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        const cplx* psm = psi + static_cast<std::size_t>(m) * kmax_;
        const cplx* csm = chi + static_cast<std::size_t>(m) * kmax_;
        cplx u(0.0, 0.0), v(0.0, 0.0);
        for (int k = 0; k < kmax_; ++k) {
          u += times_im(m, csm[k]) * pm[k] - psm[k] * hm[k];
          v += times_im(m, psm[k]) * pm[k] + csm[k] * hm[k];
        }
        fm[m] = u * inv_a;
        fm[nm + m] = v * inv_a;
      }
      ws.dst_rows.push_back(&(*Us[f])(0, j));
      ws.dst_rows.push_back(&(*Vs[f])(0, j));
    }
  }
  inv_fourier_rows(ws);
}

// ---------------------------------------------------------------------------
// Batches split by field over a team

template <typename Body>
void SpectralTransform::split_fields(par::Team* team, std::size_t nf,
                                     SpectralWorkspace& ws, Body&& body) {
  if (team != nullptr &&
      ws.members.size() + 1 < static_cast<std::size_t>(team->size()))
    ws.members.resize(static_cast<std::size_t>(team->size()) - 1);
  par::for_chunks(team, static_cast<int>(nf), [&](int m, int lo, int hi) {
    body(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo),
         m == 0 ? ws : ws.members[static_cast<std::size_t>(m) - 1]);
  });
}

void SpectralTransform::engine_analyze(const LatPairing& lp, Grids fs,
                                       std::span<SpectralField> out,
                                       SpectralWorkspace& ws,
                                       par::Team* team) const {
  split_fields(team, fs.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 analyze_fields(lp, fs.subspan(lo, n), out.subspan(lo, n), w);
               });
}

void SpectralTransform::engine_synthesize(const LatPairing& lp, Spectra ss,
                                          OutGrids outs, SpectralWorkspace& ws,
                                          par::Team* team) const {
  split_fields(team, ss.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 synthesize_fields(lp, ss.subspan(lo, n), outs.subspan(lo, n),
                                   w);
               });
}

void SpectralTransform::engine_analyze_vec(const LatPairing& lp, bool curl,
                                           Grids As, Grids Bs,
                                           std::span<SpectralField> out,
                                           SpectralWorkspace& ws,
                                           par::Team* team) const {
  split_fields(team, As.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 analyze_vec_fields(lp, curl, As.subspan(lo, n),
                                    Bs.subspan(lo, n), out.subspan(lo, n), w);
               });
}

void SpectralTransform::engine_uv(const LatPairing& lp, Spectra psis,
                                  Spectra chis, OutGrids Us, OutGrids Vs,
                                  SpectralWorkspace& ws,
                                  par::Team* team) const {
  split_fields(team, psis.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 uv_fields(lp, psis.subspan(lo, n), chis.subspan(lo, n),
                           Us.subspan(lo, n), Vs.subspan(lo, n), w);
               });
}

// ---------------------------------------------------------------------------
// Serial entry points

SpectralField SpectralTransform::analyze(const Field2Dd& f) const {
  SpectralWorkspace ws;
  return analyze(f, ws);
}

SpectralField SpectralTransform::analyze(const Field2Dd& f,
                                         SpectralWorkspace& ws) const {
  FOAM_REQUIRE(f.nx() == grid_.nlon() && f.ny() == grid_.nlat(),
               "field shape " << f.nx() << "x" << f.ny());
  std::vector<SpectralField> out(1, SpectralField(mmax_, kmax_));
  analyze_fields(pairing_, std::array{&f}, out, ws);
  return std::move(out[0]);
}

Field2Dd SpectralTransform::synthesize(const SpectralField& s) const {
  SpectralWorkspace ws;
  return synthesize(s, ws);
}

Field2Dd SpectralTransform::synthesize(const SpectralField& s,
                                       SpectralWorkspace& ws) const {
  FOAM_REQUIRE(s.mmax() == mmax_ && s.kmax() == kmax_, "truncation mismatch");
  Field2Dd f(grid_.nlon(), grid_.nlat());
  synthesize_fields(pairing_, std::array{&s}, std::array{&f}, ws);
  return f;
}

SpectralField SpectralTransform::analyze_div(const Field2Dd& A,
                                             const Field2Dd& B) const {
  SpectralWorkspace ws;
  std::vector<SpectralField> out(1, SpectralField(mmax_, kmax_));
  analyze_vec_fields(pairing_, /*curl=*/false, std::array{&A},
                     std::array{&B}, out, ws);
  return std::move(out[0]);
}

SpectralField SpectralTransform::analyze_curl(const Field2Dd& A,
                                              const Field2Dd& B) const {
  SpectralWorkspace ws;
  std::vector<SpectralField> out(1, SpectralField(mmax_, kmax_));
  analyze_vec_fields(pairing_, /*curl=*/true, std::array{&A},
                     std::array{&B}, out, ws);
  return std::move(out[0]);
}

void SpectralTransform::uv_from_psi_chi(const SpectralField& psi,
                                        const SpectralField& chi,
                                        Field2Dd& U, Field2Dd& V) const {
  FOAM_REQUIRE(psi.mmax() == mmax_ && chi.mmax() == mmax_,
               "truncation mismatch");
  if (U.nx() != grid_.nlon() || U.ny() != grid_.nlat())
    U = Field2Dd(grid_.nlon(), grid_.nlat());
  if (V.nx() != grid_.nlon() || V.ny() != grid_.nlat())
    V = Field2Dd(grid_.nlon(), grid_.nlat());
  SpectralWorkspace ws;
  uv_fields(pairing_, std::array{&psi}, std::array{&chi}, std::array{&U},
            std::array{&V}, ws);
}

// ---------------------------------------------------------------------------
// Serial batched entry points

std::vector<SpectralField> SpectralTransform::analyze_batch(
    const std::vector<const Field2Dd*>& fs, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  note_batch(fs.size(), static_cast<std::size_t>(grid_.nlat()));
  std::vector<SpectralField> out(fs.size());
  for (auto& s : out) s = SpectralField(mmax_, kmax_);
  engine_analyze(pairing_, fs, out, ws, team);
  return out;
}

void SpectralTransform::synthesize_batch(
    const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_REQUIRE(ss.size() == outs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.synthesize_batch");
  note_batch(ss.size(), static_cast<std::size_t>(grid_.nlat()));
  for (auto* g : outs) {
    if (g->nx() != grid_.nlon() || g->ny() != grid_.nlat())
      *g = Field2Dd(grid_.nlon(), grid_.nlat());
  }
  engine_synthesize(pairing_, ss, outs, ws, team);
}

std::vector<SpectralField> SpectralTransform::analyze_div_batch(
    const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.analyze_div_batch");
  note_batch(As.size(), static_cast<std::size_t>(grid_.nlat()));
  std::vector<SpectralField> out(As.size());
  for (auto& s : out) s = SpectralField(mmax_, kmax_);
  engine_analyze_vec(pairing_, /*curl=*/false, As, Bs, out, ws, team);
  return out;
}

std::vector<SpectralField> SpectralTransform::analyze_curl_batch(
    const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.analyze_curl_batch");
  note_batch(As.size(), static_cast<std::size_t>(grid_.nlat()));
  std::vector<SpectralField> out(As.size());
  for (auto& s : out) s = SpectralField(mmax_, kmax_);
  engine_analyze_vec(pairing_, /*curl=*/true, As, Bs, out, ws, team);
  return out;
}

void SpectralTransform::uv_from_psi_chi_batch(
    const std::vector<const SpectralField*>& psis,
    const std::vector<const SpectralField*>& chis,
    const std::vector<Field2Dd*>& Us, const std::vector<Field2Dd*>& Vs,
    SpectralWorkspace& ws, par::Team* team) const {
  FOAM_REQUIRE(psis.size() == chis.size() && psis.size() == Us.size() &&
                   psis.size() == Vs.size(),
               "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.uv_batch");
  note_batch(psis.size(), static_cast<std::size_t>(grid_.nlat()));
  for (std::size_t f = 0; f < Us.size(); ++f) {
    if (Us[f]->nx() != grid_.nlon() || Us[f]->ny() != grid_.nlat())
      *Us[f] = Field2Dd(grid_.nlon(), grid_.nlat());
    if (Vs[f]->nx() != grid_.nlon() || Vs[f]->ny() != grid_.nlat())
      *Vs[f] = Field2Dd(grid_.nlon(), grid_.nlat());
  }
  engine_uv(pairing_, psis, chis, Us, Vs, ws, team);
}

double SpectralTransform::laplacian_eigenvalue(int n) const {
  return -static_cast<double>(n) * (n + 1) / (earth_radius * earth_radius);
}

void SpectralTransform::laplacian(SpectralField& s) const {
  for (int m = 0; m <= mmax_; ++m)
    for (int k = 0; k < kmax_; ++k) s.at(m, k) *= laplacian_eigenvalue(m + k);
}

void SpectralTransform::inverse_laplacian(SpectralField& s) const {
  for (int m = 0; m <= mmax_; ++m) {
    for (int k = 0; k < kmax_; ++k) {
      const int n = m + k;
      if (n == 0) {
        s.at(m, k) = cplx(0.0, 0.0);
      } else {
        s.at(m, k) /= laplacian_eigenvalue(n);
      }
    }
  }
}

SpectralField SpectralTransform::d_dlon(const SpectralField& s) const {
  SpectralField out(s);
  for (int m = 0; m <= mmax_; ++m) {
    const cplx im(0.0, static_cast<double>(m));
    for (int k = 0; k < kmax_; ++k) out.at(m, k) = im * s.at(m, k);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Distributed (latitude-band) transform

ParSpectralTransform::ParSpectralTransform(const SpectralTransform& serial,
                                           std::vector<int> my_lats)
    : serial_(serial), my_lats_(std::move(my_lats)) {
  for (const int j : my_lats_)
    FOAM_REQUIRE(j >= 0 && j < serial_.grid().nlat(), "latitude " << j);
  pairing_ = SpectralTransform::make_pairing(serial_.grid(), my_lats_);
}

void ParSpectralTransform::allreduce_fused(
    par::Comm& comm, std::vector<SpectralField>& fields) const {
  // A one-rank sum is the identity: skipping it keeps the bits and keeps
  // the rank thread's gap between a team's analysis and synthesis batches
  // short enough for the helpers to catch the next one without parking.
  if (fields.empty() || comm.size() == 1) return;
  FOAM_TRACE_SCOPE("spectral.allreduce");
  const std::size_t per = fields[0].size() * 2;
  ws_.reduce.resize(per * fields.size());
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const double* raw = reinterpret_cast<const double*>(fields[f].data());
    std::copy(raw, raw + per, ws_.reduce.begin() + f * per);
  }
  comm.allreduce(
      std::span<const double>(ws_.reduce.data(), ws_.reduce.size()),
      std::span<double>(ws_.reduce.data(), ws_.reduce.size()),
      par::ReduceOp::kSum);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    double* raw = reinterpret_cast<double*>(fields[f].data());
    std::copy(ws_.reduce.begin() + f * per,
              ws_.reduce.begin() + (f + 1) * per, raw);
  }
}

// ---------------------------------------------------------------------------
// Distributed batched entry points

std::vector<SpectralField> ParSpectralTransform::analyze_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& fs) const {
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  note_batch(fs.size(), my_lats_.size());
  std::vector<SpectralField> out(fs.size());
  for (auto& s : out) s = SpectralField(serial_.mmax(), serial_.kmax());
  serial_.engine_analyze(pairing_, fs, out, ws_, team_);
  allreduce_fused(comm, out);
  return out;
}

void ParSpectralTransform::synthesize_batch(
    const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs) const {
  FOAM_REQUIRE(ss.size() == outs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.synthesize_batch");
  note_batch(ss.size(), my_lats_.size());
  serial_.engine_synthesize(pairing_, ss, outs, ws_, team_);
}

std::vector<SpectralField> ParSpectralTransform::analyze_div_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.analyze_div_batch");
  note_batch(As.size(), my_lats_.size());
  std::vector<SpectralField> out(As.size());
  for (auto& s : out) s = SpectralField(serial_.mmax(), serial_.kmax());
  serial_.engine_analyze_vec(pairing_, /*curl=*/false, As, Bs, out, ws_,
                             team_);
  allreduce_fused(comm, out);
  return out;
}

std::vector<SpectralField> ParSpectralTransform::analyze_curl_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.analyze_curl_batch");
  note_batch(As.size(), my_lats_.size());
  std::vector<SpectralField> out(As.size());
  for (auto& s : out) s = SpectralField(serial_.mmax(), serial_.kmax());
  serial_.engine_analyze_vec(pairing_, /*curl=*/true, As, Bs, out, ws_,
                             team_);
  allreduce_fused(comm, out);
  return out;
}

void ParSpectralTransform::uv_from_psi_chi_batch(
    const std::vector<const SpectralField*>& psis,
    const std::vector<const SpectralField*>& chis,
    const std::vector<Field2Dd*>& Us, const std::vector<Field2Dd*>& Vs) const {
  FOAM_REQUIRE(psis.size() == chis.size() && psis.size() == Us.size() &&
                   psis.size() == Vs.size(),
               "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.uv_batch");
  note_batch(psis.size(), my_lats_.size());
  serial_.engine_uv(pairing_, psis, chis, Us, Vs, ws_, team_);
}

}  // namespace foam::numerics
