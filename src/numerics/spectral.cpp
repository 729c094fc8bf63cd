#include "numerics/spectral.hpp"

#include <array>
#include <cmath>

#include "base/constants.hpp"
#include "par/decomp.hpp"
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

/// The fields [lo, lo + n) of a per-field span; an empty span (no second
/// grid per field) stays empty.
template <typename T>
std::span<T> part(std::span<T> s, std::size_t lo, std::size_t n) {
  return s.empty() ? s : s.subspan(lo, n);
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
  // The parity fold pairs row j with its mirror nlat-1-j and needs them
  // exact: gauss.cpp stores mu[i] = -x, mu[n-1-i] = x and equal weights.
  for (int j = 0; j < grid.nlat() / 2; ++j) {
    const int jm = grid.nlat() - 1 - j;
    FOAM_REQUIRE(grid.mu(j) == -grid.mu(jm) &&
                     grid.gauss_weight(j) == grid.gauss_weight(jm),
                 "latitudes " << j << " and " << jm << " are not mirrors");
  }
}

// ---------------------------------------------------------------------------
// FFT stage: lane-batched real FFTs of whole rows, with the 1/nlon
// normalization folded into the forward direction.

namespace {
/// The rows \p lats of every grid, grid-major (field f's As grid, then its
/// Bs grid when Bs is not empty), into \p rows.
template <typename Row, typename Grid>
void collect_rows(std::span<Grid* const> As, std::span<Grid* const> Bs,
                  par::Range lats, std::vector<Row*>& rows) {
  rows.clear();
  const auto add = [&](Grid* g) {
    for (int j = lats.lo; j < lats.hi; ++j) rows.push_back(&(*g)(0, j));
  };
  for (std::size_t f = 0; f < As.size(); ++f) {
    add(As[f]);
    if (!Bs.empty()) add(Bs[f]);
  }
}
}  // namespace

void SpectralTransform::analyze_rows(Grids As, Grids Bs, par::Range lats,
                                     cplx* fm, SpectralWorkspace& ws) const {
  collect_rows(As, Bs, lats, ws.src_rows);
  ws.lanes.resize(plan_.rows_scratch_size());
  plan_.forward_real_rows(ws.src_rows.data(),
                          static_cast<int>(ws.src_rows.size()), mmax_ + 1,
                          1.0 / grid_.nlon(), fm, ws.lanes.data());
}

void SpectralTransform::synthesize_rows(const cplx* fm, par::Range lats,
                                        OutGrids As, OutGrids Bs,
                                        SpectralWorkspace& ws) const {
  collect_rows(As, Bs, lats, ws.dst_rows);
  ws.lanes.resize(plan_.rows_scratch_size());
  plan_.inverse_real_rows(fm, static_cast<int>(ws.dst_rows.size()),
                          mmax_ + 1, static_cast<double>(grid_.nlon()),
                          ws.dst_rows.data(), ws.lanes.data());
}

// ---------------------------------------------------------------------------
// Legendre stage: parity-folded, panel-blocked sums.
//
// Pbar parity about the equator: P(m, k, jn) = (-1)^k P(m, k, js) and
// H(m, k, jn) = (-1)^{k+1} H(m, k, js) for a mirror pair (js, jn). Folding
// the pair's Fourier rows into even/odd combinations therefore halves the
// Legendre work: even-k coefficients see only the even fold, odd-k only the
// odd fold. The inner loops stream the LegendreTable's contiguous (m, k)
// panels for the southern row of each pair (js, nlat-1-js); an odd-nlat
// grid's equator row is summed alone, after the pairs. Every coefficient
// of wavenumber m an analysis produces depends on mode m of the Fourier
// rows alone, so a wavenumber range computes exactly the serial sums'
// entries for those m. A synthesis computes each touched pair's folded
// sums whole, so a row range gets exactly the serial values of its rows.

namespace {
/// Row (q, j) of a buffer of Fourier rows over the latitudes \p lats, or
/// null when j is not one of them.
template <typename T>
T* row(T* fm, std::size_t q, int j, par::Range lats, int nm) {
  if (!lats.contains(j)) return nullptr;
  return fm + (q * lats.count() + (j - lats.lo)) * nm;
}
}  // namespace

void SpectralTransform::analyze_fields(const cplx* fm, par::Range ms,
                                       std::span<SpectralField> out,
                                       SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1, nlat = grid_.nlat();
  const par::Range all = all_lats();
  const std::size_t nf = out.size();
  ws.fold_pe.resize(nf * nm);
  ws.fold_po.resize(nf * nm);
  for (int js = 0; js < nlat / 2; ++js) {
    const double w = 0.5 * grid_.gauss_weight(js);
    for (std::size_t f = 0; f < nf; ++f) {
      const cplx* fm_s = row(fm, f, js, all, nm);
      const cplx* fm_n = row(fm, f, nlat - 1 - js, all, nm);
      cplx* fe = ws.fold_pe.data() + f * nm;
      cplx* fo = ws.fold_po.data() + f * nm;
      for (int m = ms.lo; m < ms.hi; ++m) {
        fe[m] = w * (fm_s[m] + fm_n[m]);
        fo[m] = w * (fm_s[m] - fm_n[m]);
      }
    }
    const double* P = table_.p_row(js);
    for (std::size_t f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* fe = ws.fold_pe.data() + f * nm;
      const cplx* fo = ws.fold_po.data() + f * nm;
      for (int m = ms.lo; m < ms.hi; ++m) {
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
  if (nlat % 2 != 0) {  // the unpaired equator row
    const int j = nlat / 2;
    const double w = 0.5 * grid_.gauss_weight(j);
    const double* P = table_.p_row(j);
    for (std::size_t f = 0; f < nf; ++f) {
      const cplx* fr = row(fm, f, j, all, nm);
      cplx* s = out[f].data();
      for (int m = ms.lo; m < ms.hi; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx wf = w * fr[m];
        for (int k = 0; k < kmax_; ++k) sm[k] += wf * pm[k];
      }
    }
  }
}

void SpectralTransform::synthesize_fields(Spectra ss, par::Range lats,
                                          cplx* fm) const {
  const int nm = mmax_ + 1, nlat = grid_.nlat();
  for (int js = 0; js < nlat / 2; ++js) {
    const int jn = nlat - 1 - js;
    if (!lats.contains(js) && !lats.contains(jn)) continue;
    const double* P = table_.p_row(js);
    for (std::size_t f = 0; f < ss.size(); ++f) {
      const cplx* s = ss[f]->data();
      cplx* fm_s = row(fm, f, js, lats, nm);
      cplx* fm_n = row(fm, f, jn, lats, nm);
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
        // Southern row: P as tabulated; northern mirror: (-1)^k parity.
        if (fm_s != nullptr) fm_s[m] = acc_e + acc_o;
        if (fm_n != nullptr) fm_n[m] = acc_e - acc_o;
      }
    }
  }
  if (nlat % 2 != 0 && lats.contains(nlat / 2)) {  // the equator row
    const int j = nlat / 2;
    const double* P = table_.p_row(j);
    for (std::size_t f = 0; f < ss.size(); ++f) {
      const cplx* s = ss[f]->data();
      cplx* fr = row(fm, f, j, lats, nm);
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        cplx acc(0.0, 0.0);
        for (int k = 0; k < kmax_; ++k) acc += sm[k] * pm[k];
        fr[m] = acc;
      }
    }
  }
}

void SpectralTransform::analyze_vec_fields(const cplx* fm, bool curl,
                                           par::Range ms,
                                           std::span<SpectralField> out,
                                           SpectralWorkspace& ws) const {
  const int nm = mmax_ + 1, nlat = grid_.nlat();
  const par::Range all = all_lats();
  const std::size_t nf = out.size();
  ws.fold_pe.resize(nf * nm);
  ws.fold_po.resize(nf * nm);
  ws.fold_he.resize(nf * nm);
  ws.fold_ho.resize(nf * nm);
  for (int js = 0; js < nlat / 2; ++js) {
    const int jn = nlat - 1 - js;
    const double mu = grid_.mu(js);
    const double wj = 0.5 * grid_.gauss_weight(js) /
                      (earth_radius * (1.0 - mu * mu));
    for (std::size_t f = 0; f < nf; ++f) {
      // A southern, A northern, B southern, B northern.
      const cplx* fm_a = row(fm, 2 * f, js, all, nm);
      const cplx* fm_b = row(fm, 2 * f, jn, all, nm);
      const cplx* fm_c = row(fm, 2 * f + 1, js, all, nm);
      const cplx* fm_d = row(fm, 2 * f + 1, jn, all, nm);
      cplx* pe = ws.fold_pe.data() + f * nm;
      cplx* po = ws.fold_po.data() + f * nm;
      cplx* he = ws.fold_he.data() + f * nm;
      cplx* ho = ws.fold_ho.data() + f * nm;
      for (int m = ms.lo; m < ms.hi; ++m) {
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
    for (std::size_t f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* pe = ws.fold_pe.data() + f * nm;
      const cplx* po = ws.fold_po.data() + f * nm;
      const cplx* he = ws.fold_he.data() + f * nm;
      const cplx* ho = ws.fold_ho.data() + f * nm;
      for (int m = ms.lo; m < ms.hi; ++m) {
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
  if (nlat % 2 != 0) {  // the unpaired equator row
    const int j = nlat / 2;
    const double mu = grid_.mu(j);
    const double wj =
        0.5 * grid_.gauss_weight(j) / (earth_radius * (1.0 - mu * mu));
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (std::size_t f = 0; f < nf; ++f) {
      const cplx* fm_a = row(fm, 2 * f, j, all, nm);      // A
      const cplx* fm_c = row(fm, 2 * f + 1, j, all, nm);  // B
      cplx* s = out[f].data();
      for (int m = ms.lo; m < ms.hi; ++m) {
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

void SpectralTransform::uv_fields(Spectra psis, Spectra chis,
                                  par::Range lats, cplx* fm) const {
  const int nm = mmax_ + 1, nlat = grid_.nlat();
  const double inv_a = 1.0 / earth_radius;
  for (int js = 0; js < nlat / 2; ++js) {
    const int jn = nlat - 1 - js;
    if (!lats.contains(js) && !lats.contains(jn)) continue;
    const double* P = table_.p_row(js);
    const double* H = table_.h_row(js);
    for (std::size_t f = 0; f < psis.size(); ++f) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      // U southern, U northern, V southern, V northern.
      cplx* fm_a = row(fm, 2 * f, js, lats, nm);
      cplx* fm_b = row(fm, 2 * f, jn, lats, nm);
      cplx* fm_c = row(fm, 2 * f + 1, js, lats, nm);
      cplx* fm_d = row(fm, 2 * f + 1, jn, lats, nm);
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
        if (fm_a != nullptr) {
          fm_a[m] = inv_a * (Ae + Ao - Be - Bo);
          fm_c[m] = inv_a * (Ce + Co + De + Do);
        }
        if (fm_b != nullptr) {
          fm_b[m] = inv_a * (Ae - Ao + Be - Bo);
          fm_d[m] = inv_a * (Ce - Co - De + Do);
        }
      }
    }
  }
  if (nlat % 2 != 0 && lats.contains(nlat / 2)) {  // the equator row
    const int j = nlat / 2;
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (std::size_t f = 0; f < psis.size(); ++f) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      cplx* fu = row(fm, 2 * f, j, lats, nm);
      cplx* fv = row(fm, 2 * f + 1, j, lats, nm);
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
        fu[m] = u * inv_a;
        fv[m] = v * inv_a;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The serial pass: batches split by field over a team

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

void SpectralTransform::engine_analyze(Grids As, Grids Bs, bool curl,
                                       std::span<SpectralField> out,
                                       SpectralWorkspace& ws,
                                       par::Team* team) const {
  const std::size_t per_field =
      (Bs.empty() ? 1u : 2u) * grid_.nlat() * (mmax_ + 1u);
  split_fields(team, As.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 w.fm.resize(n * per_field);
                 analyze_rows(As.subspan(lo, n), part(Bs, lo, n), all_lats(),
                              w.fm.data(), w);
                 if (Bs.empty())
                   analyze_fields(w.fm.data(), all_modes(),
                                  out.subspan(lo, n), w);
                 else
                   analyze_vec_fields(w.fm.data(), curl, all_modes(),
                                      out.subspan(lo, n), w);
               });
}

void SpectralTransform::engine_synthesize(Spectra ss, Spectra chis,
                                          OutGrids As, OutGrids Bs,
                                          par::Range lats,
                                          SpectralWorkspace& ws,
                                          par::Team* team) const {
  const std::size_t per_field =
      (chis.empty() ? 1u : 2u) * lats.count() * (mmax_ + 1u);
  split_fields(team, ss.size(), ws,
               [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
                 w.fm.resize(n * per_field);
                 if (chis.empty())
                   synthesize_fields(ss.subspan(lo, n), lats, w.fm.data());
                 else
                   uv_fields(ss.subspan(lo, n), chis.subspan(lo, n), lats,
                             w.fm.data());
                 synthesize_rows(w.fm.data(), lats, As.subspan(lo, n),
                                 part(Bs, lo, n), w);
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
  engine_analyze(std::array{&f}, {}, false, out, ws);
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
  engine_synthesize(std::array{&s}, {}, std::array{&f}, {}, all_lats(), ws);
  return f;
}

SpectralField SpectralTransform::analyze_div(const Field2Dd& A,
                                             const Field2Dd& B) const {
  SpectralWorkspace ws;
  std::vector<SpectralField> out(1, SpectralField(mmax_, kmax_));
  engine_analyze(std::array{&A}, std::array{&B}, /*curl=*/false, out, ws);
  return std::move(out[0]);
}

SpectralField SpectralTransform::analyze_curl(const Field2Dd& A,
                                              const Field2Dd& B) const {
  SpectralWorkspace ws;
  std::vector<SpectralField> out(1, SpectralField(mmax_, kmax_));
  engine_analyze(std::array{&A}, std::array{&B}, /*curl=*/true, out, ws);
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
  engine_synthesize(std::array{&psi}, std::array{&chi}, std::array{&U},
                    std::array{&V}, all_lats(), ws);
}

// ---------------------------------------------------------------------------
// Serial batched entry points

std::vector<SpectralField> SpectralTransform::analyze_batch(
    const std::vector<const Field2Dd*>& fs, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  note_batch(fs.size(), static_cast<std::size_t>(grid_.nlat()));
  std::vector<SpectralField> out(fs.size(), SpectralField(mmax_, kmax_));
  engine_analyze(fs, {}, false, out, ws, team);
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
  engine_synthesize(ss, {}, outs, {}, all_lats(), ws, team);
}

std::vector<SpectralField> SpectralTransform::analyze_vec_batch(
    Grids As, Grids Bs, bool curl, SpectralWorkspace& ws,
    par::Team* team) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE(curl ? "spectral.analyze_curl_batch"
                        : "spectral.analyze_div_batch");
  note_batch(As.size(), static_cast<std::size_t>(grid_.nlat()));
  std::vector<SpectralField> out(As.size(), SpectralField(mmax_, kmax_));
  engine_analyze(As, Bs, curl, out, ws, team);
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
  engine_synthesize(psis, chis, Us, Vs, all_lats(), ws, team);
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
// Distributed transform: latitude blocks; analyses transpose to wavenumber
// blocks, syntheses need no communication.

ParSpectralTransform::ParSpectralTransform(const SpectralTransform& serial,
                                           par::Comm* comm)
    : serial_(serial), comm_(comm) {
  const int me = comm_ != nullptr ? comm_->rank() : 0;
  lats_ = lats_of(me);
  modes_ = modes_of(me);
}

par::Range ParSpectralTransform::lats_of(int r) const {
  return par::block_range(serial_.grid().nlat(),
                          comm_ != nullptr ? comm_->size() : 1, r);
}

par::Range ParSpectralTransform::modes_of(int r) const {
  return par::block_range(serial_.mmax() + 1,
                          comm_ != nullptr ? comm_->size() : 1, r);
}

void ParSpectralTransform::transpose(std::size_t ngrids) const {
  FOAM_TRACE_SCOPE("spectral.transpose");
  const int nranks = comm_->size();
  const int nm = serial_.mmax() + 1, nlat = serial_.grid().nlat();
  // Equal blocks, sized for the most rows and wavenumbers a rank owns
  // (rank 0's: block_range gives remainders to the lowest ranks). The
  // block rank s sends rank t holds s's rows in t's wavenumbers.
  const std::size_t max_rows = lats_of(0).count();
  const std::size_t max_modes = modes_of(0).count();
  const std::size_t block = ngrids * max_rows * max_modes;
  const auto slot = [&](std::size_t q, int j, int m, par::Range rows,
                        par::Range ms) {
    return (q * max_rows + (j - rows.lo)) * max_modes + (m - ms.lo);
  };
  ws_.send.assign(block * nranks, cplx(0.0, 0.0));
  ws_.recv.resize(block * nranks);
  for (int t = 0; t < nranks; ++t) {
    const par::Range ms = modes_of(t);
    cplx* out = ws_.send.data() + t * block;
    for (std::size_t q = 0; q < ngrids; ++q)
      for (int j = lats_.lo; j < lats_.hi; ++j)
        for (int m = ms.lo; m < ms.hi; ++m)
          out[slot(q, j, m, lats_, ms)] =
              ws_.local[(q * lats_.count() + (j - lats_.lo)) * nm + m];
  }
  comm_->alltoall(reinterpret_cast<const double*>(ws_.send.data()),
                  reinterpret_cast<double*>(ws_.recv.data()), 2 * block);
  for (int s = 0; s < nranks; ++s) {
    const par::Range rows = lats_of(s);
    const cplx* in = ws_.recv.data() + s * block;
    for (std::size_t q = 0; q < ngrids; ++q)
      for (int j = rows.lo; j < rows.hi; ++j)
        for (int m = modes_.lo; m < modes_.hi; ++m)
          ws_.fm[(q * nlat + j) * nm + m] = in[slot(q, j, m, rows, modes_)];
  }
}

void ParSpectralTransform::gather_modes(std::span<SpectralField> out) const {
  FOAM_TRACE_SCOPE("spectral.transpose");
  const int nranks = comm_->size(), kmax = serial_.kmax();
  const std::size_t max_modes = modes_of(0).count();
  const std::size_t block = out.size() * max_modes * kmax;
  const auto slot = [&](std::size_t f, int m, par::Range ms) {
    return (f * max_modes + (m - ms.lo)) * kmax;
  };
  ws_.send.assign(block, cplx(0.0, 0.0));
  ws_.recv.resize(block * nranks);
  for (std::size_t f = 0; f < out.size(); ++f)
    for (int m = modes_.lo; m < modes_.hi; ++m)
      std::copy_n(&out[f].at(m, 0), kmax,
                  ws_.send.data() + slot(f, m, modes_));
  comm_->allgather(reinterpret_cast<const double*>(ws_.send.data()),
                   2 * block, reinterpret_cast<double*>(ws_.recv.data()));
  for (int r = 0; r < nranks; ++r) {
    const par::Range ms = modes_of(r);
    const cplx* in = ws_.recv.data() + r * block;
    for (std::size_t f = 0; f < out.size(); ++f)
      for (int m = ms.lo; m < ms.hi; ++m)
        std::copy_n(in + slot(f, m, ms), kmax, &out[f].at(m, 0));
  }
}

std::vector<SpectralField> ParSpectralTransform::analyze_transposed(
    SpectralTransform::Grids As, SpectralTransform::Grids Bs,
    bool curl) const {
  const std::size_t nf = As.size(), grids = Bs.empty() ? 1 : 2;
  note_batch(nf, lats_.count());
  // One field's Fourier rows: the rank's own, and every latitude's.
  const std::size_t per_lat = grids * (serial_.mmax() + 1u);
  const std::size_t local = per_lat * lats_.count();
  const std::size_t full = per_lat * serial_.grid().nlat();
  ws_.local.resize(nf * local);
  ws_.fm.resize(nf * full);
  SpectralTransform::split_fields(
      team_, nf, ws_,
      [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
        serial_.analyze_rows(As.subspan(lo, n), part(Bs, lo, n), lats_,
                             ws_.local.data() + lo * local, w);
      });
  transpose(nf * grids);
  std::vector<SpectralField> out(
      nf, SpectralField(serial_.mmax(), serial_.kmax()));
  const std::span<SpectralField> outs(out);
  SpectralTransform::split_fields(
      team_, nf, ws_,
      [&](std::size_t lo, std::size_t n, SpectralWorkspace& w) {
        const cplx* fm = ws_.fm.data() + lo * full;
        if (Bs.empty())
          serial_.analyze_fields(fm, modes_, outs.subspan(lo, n), w);
        else
          serial_.analyze_vec_fields(fm, curl, modes_, outs.subspan(lo, n),
                                     w);
      });
  gather_modes(out);
  return out;
}

// ---------------------------------------------------------------------------
// Distributed batched entry points: one rank runs the serial ones.

std::vector<SpectralField> ParSpectralTransform::analyze_batch(
    const std::vector<const Field2Dd*>& fs) const {
  if (!distributed()) return serial_.analyze_batch(fs, ws_, team_);
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  return analyze_transposed(fs, {}, false);
}

void ParSpectralTransform::synthesize_batch(
    const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs) const {
  if (!distributed()) return serial_.synthesize_batch(ss, outs, ws_, team_);
  FOAM_REQUIRE(ss.size() == outs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.synthesize_batch");
  note_batch(ss.size(), lats_.count());
  serial_.engine_synthesize(ss, {}, outs, {}, lats_, ws_, team_);
}

std::vector<SpectralField> ParSpectralTransform::analyze_vec_batch(
    const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, bool curl) const {
  if (!distributed())
    return serial_.analyze_vec_batch(As, Bs, curl, ws_, team_);
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  FOAM_TRACE_SCOPE(curl ? "spectral.analyze_curl_batch"
                        : "spectral.analyze_div_batch");
  return analyze_transposed(As, Bs, curl);
}

void ParSpectralTransform::uv_from_psi_chi_batch(
    const std::vector<const SpectralField*>& psis,
    const std::vector<const SpectralField*>& chis,
    const std::vector<Field2Dd*>& Us, const std::vector<Field2Dd*>& Vs) const {
  if (!distributed())
    return serial_.uv_from_psi_chi_batch(psis, chis, Us, Vs, ws_, team_);
  FOAM_REQUIRE(psis.size() == chis.size() && psis.size() == Us.size() &&
                   psis.size() == Vs.size(),
               "batch size mismatch");
  FOAM_TRACE_SCOPE("spectral.uv_batch");
  note_batch(psis.size(), lats_.count());
  serial_.engine_synthesize(psis, chis, Us, Vs, lats_, ws_, team_);
}

}  // namespace foam::numerics
