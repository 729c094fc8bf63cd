#include "numerics/fft_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::numerics {

using cplx = std::complex<double>;

namespace {

constexpr int L = FftPlan::kLanes;

/// a * b as (ar*br - ai*bi, ar*bi + ai*br): the products and sums GCC emits
/// for std::complex operator*, without the Annex G NaN recovery branch.
inline cplx cmul(cplx a, cplx b) {
  return cplx(a.real() * b.real() - a.imag() * b.imag(),
              a.real() * b.imag() + a.imag() * b.real());
}

/// a * z part by part, as std::complex's real-times-complex operator* does.
inline cplx rmul(double a, cplx z) {
  return cplx(a * z.real(), a * z.imag());
}

/// Radix-2 butterfly over the lanes: d0 = a + w0*b, d1 = a + w1*b.
inline void radix2_lanes(const double* __restrict ar,
                         const double* __restrict ai,
                         const double* __restrict br,
                         const double* __restrict bi, cplx w0, cplx w1,
                         double* __restrict d0r, double* __restrict d0i,
                         double* __restrict d1r, double* __restrict d1i) {
  const double w0r = w0.real(), w0i = w0.imag();
  const double w1r = w1.real(), w1i = w1.imag();
  for (int l = 0; l < L; ++l) {
    const double xr = br[l], xi = bi[l];
    d0r[l] = ar[l] + (w0r * xr - w0i * xi);
    d0i[l] = ai[l] + (w0r * xi + w0i * xr);
    d1r[l] = ar[l] + (w1r * xr - w1i * xi);
    d1i[l] = ai[l] + (w1r * xi + w1i * xr);
  }
}

/// acc += w * x over the lanes.
inline void mac_lanes(cplx w, const double* __restrict xr,
                      const double* __restrict xi, double* __restrict accr,
                      double* __restrict acci) {
  const double wr = w.real(), wi = w.imag();
  for (int l = 0; l < L; ++l) {
    accr[l] += wr * xr[l] - wi * xi[l];
    acci[l] += wr * xi[l] + wi * xr[l];
  }
}

}  // namespace

FftPlan::FftPlan(int n) : FftPlan(n, /*build_real_path=*/true) {}

FftPlan::FftPlan(int n, bool build_real_path) : n_(n) {
  FOAM_REQUIRE(n > 0, "FFT length " << n);
  build();
  if (build_real_path && n_ % 2 == 0 && n_ >= 2) {
    half_ = std::unique_ptr<FftPlan>(new FftPlan(n_ / 2, false));
    const int n2 = n_ / 2;
    real_tw_.resize(n2 + 1);
    for (int k = 0; k <= n2; ++k) {
      const double ang = -constants::two_pi * k / n_;
      real_tw_[k] = cplx(std::cos(ang), std::sin(ang));
    }
  }
}

void FftPlan::build() {
  int rem = n_;
  for (int p : {2, 3, 5, 7}) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }
  // Remaining primes take the O(p^2) direct combine, same as the reference.
  for (int p = 11; rem > 1; p += 2) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }

  // Digit-reversal permutation: replicate the reference recursion's leaf
  // order (factor fidx splits into p subsequences of stride*p, child r's
  // output occupying the r-th chunk).
  perm_.resize(n_);
  struct Frame {
    int src_off, stride, count, out_off;
    std::size_t fidx;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 1, n_, 0, 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.count == 1) {
      perm_[f.out_off] = f.src_off;
      continue;
    }
    const int p = factors_[f.fidx];
    const int m = f.count / p;
    for (int r = 0; r < p; ++r)
      stack.push_back({f.src_off + r * f.stride, f.stride * p, m,
                       f.out_off + r * m, f.fidx + 1});
  }

  // Bottom-up combine stages (deepest factor first) with per-stage twiddle
  // tables: tw[r*count + k] = exp(-2 pi i r k (n/count) / n), and the
  // conjugate table the inverse multiplies by.
  int m = 1;
  for (std::size_t i = factors_.size(); i-- > 0;) {
    const int p = factors_[i];
    const int count = p * m;
    Stage st{p, m, count, stage_tw_.size()};
    const int big_stride = n_ / count;
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < count; ++k) {
        const long long tidx =
            (static_cast<long long>(r) * k * big_stride) % n_;
        const double ang = -constants::two_pi * static_cast<double>(tidx) / n_;
        stage_tw_.push_back(cplx(std::cos(ang), std::sin(ang)));
        stage_tw_inv_.push_back(std::conj(stage_tw_.back()));
      }
    }
    stages_.push_back(st);
    m = count;
  }
}

bool FftPlan::run_lanes(double* are, double* aim, double* bre, double* bim,
                        const cplx* tw_all) const {
  // Bottom-up over the factor stages, each complex point widened to kLanes
  // doubles per part: point i of lane l lives at [i*L + l]. Radix 2 gives
  // both outputs their own tabulated twiddle (tw(1, q+m) == -tw(1, q) only
  // mathematically: bitwise identity with the reference recursion requires
  // multiplying by the same cos/sin values); other radices sum the p
  // products in the recursion's r order.
  double *sr = are, *si = aim, *dr = bre, *di = bim;
  for (const Stage& st : stages_) {
    const cplx* tw = tw_all + st.tw_offset;
    const int p = st.p, m = st.m, count = st.count;
    if (p == 2) {
      const cplx* tw1 = tw + count;
      for (int base = 0; base < n_; base += count) {
        for (int q = 0; q < m; ++q) {
          const std::size_t a = static_cast<std::size_t>(base + q) * L;
          const std::size_t b = a + static_cast<std::size_t>(m) * L;
          radix2_lanes(sr + a, si + a, sr + b, si + b, tw1[q], tw1[m + q],
                       dr + a, di + a, dr + b, di + b);
        }
      }
    } else {
      for (int base = 0; base < n_; base += count) {
        for (int q = 0; q < m; ++q) {
          for (int s = 0; s < p; ++s) {
            const int k = q + s * m;
            double* accr = dr + static_cast<std::size_t>(base + k) * L;
            double* acci = di + static_cast<std::size_t>(base + k) * L;
            std::fill(accr, accr + L, 0.0);
            std::fill(acci, acci + L, 0.0);
            for (int r = 0; r < p; ++r) {
              const std::size_t x =
                  static_cast<std::size_t>(base + r * m + q) * L;
              mac_lanes(tw[r * count + k], sr + x, si + x, accr, acci);
            }
          }
        }
      }
    }
    std::swap(sr, dr);
    std::swap(si, di);
  }
  return sr == bre;
}

void FftPlan::run_rows(double* re, double* im, double* work,
                       const cplx* tw) const {
  if (n_ == 1) return;
  const std::size_t plane = static_cast<std::size_t>(n_) * L;
  double* wre = work;
  double* wim = work + plane;
  for (int i = 0; i < n_; ++i) {
    const std::size_t from = static_cast<std::size_t>(perm_[i]) * L;
    std::memcpy(wre + static_cast<std::size_t>(i) * L, re + from,
                sizeof(double) * L);
    std::memcpy(wim + static_cast<std::size_t>(i) * L, im + from,
                sizeof(double) * L);
  }
  if (!run_lanes(wre, wim, re, im, tw)) {
    std::memcpy(re, wre, sizeof(double) * plane);
    std::memcpy(im, wim, sizeof(double) * plane);
  }
}

void FftPlan::forward_lanes(double* re, double* im, double* work) const {
  run_rows(re, im, work, stage_tw_.data());
}

void FftPlan::inverse_lanes(double* re, double* im, double* work) const {
  run_rows(re, im, work, stage_tw_inv_.data());
  // Fft::inverse()'s 1/N scaling, part by part.
  const double inv = 1.0 / n_;
  const std::size_t plane = static_cast<std::size_t>(n_) * L;
  for (std::size_t at = 0; at < plane; ++at) {
    re[at] = inv * re[at];
    im[at] = inv * im[at];
  }
}

std::size_t FftPlan::rows_scratch_size() const {
  const int nc = half_ ? half_->n_ : n_;
  return 4 * static_cast<std::size_t>(nc) * L;
}

void FftPlan::forward_real_rows(const double* const* rows, int nrows,
                                int nkeep, double scale, cplx* out,
                                double* scratch) const {
  FOAM_REQUIRE(nrows >= 0 && nkeep >= 1 && nkeep <= n_ / 2 + 1,
               "rows " << nrows << " nkeep " << nkeep << " for n " << n_);
  // Even n: pack pairs into the half-length complex sequence z. Odd n: the
  // full complex transform of (x_j, 0).
  const FftPlan& cp = half_ ? *half_ : *this;
  const int nc = cp.n_;
  const std::size_t plane = static_cast<std::size_t>(nc) * L;
  double* are = scratch;
  double* aim = are + plane;
  double* bre = aim + plane;
  double* bim = bre + plane;
  for (int g = 0; g < nrows; g += L) {
    const int nl = std::min(L, nrows - g);
    const double* x[L];
    for (int l = 0; l < L; ++l) x[l] = rows[g + std::min(l, nl - 1)];
    // Pack straight into leaf (digit-reversed) order.
    for (int i = 0; i < nc; ++i) {
      const int j = cp.perm_[i];
      double* pr = are + static_cast<std::size_t>(i) * L;
      double* pi = aim + static_cast<std::size_t>(i) * L;
      if (half_) {
        for (int l = 0; l < L; ++l) {
          pr[l] = x[l][2 * j];
          pi[l] = x[l][2 * j + 1];
        }
      } else {
        for (int l = 0; l < L; ++l) {
          pr[l] = x[l][j];
          pi[l] = 0.0;
        }
      }
    }
    const bool in_b = cp.run_lanes(are, aim, bre, bim, cp.stage_tw_.data());
    const double* zr = in_b ? bre : are;
    const double* zi = in_b ? bim : aim;
    for (int l = 0; l < nl; ++l) {
      cplx* o = out + static_cast<std::size_t>(g + l) * nkeep;
      auto z = [&](int k) {
        const std::size_t at = static_cast<std::size_t>(k) * L + l;
        return cplx(zr[at], zi[at]);
      };
      if (!half_) {
        for (int k = 0; k < nkeep; ++k) o[k] = rmul(scale, z(k));
        continue;
      }
      // Split: X_k = (Z_k + conj(Z_{n2-k}))/2 - (i/2) w_k (Z_k -
      // conj(Z_{n2-k})) with w_k = exp(-2 pi i k / n) and Z_{n2} == Z_0.
      const int n2 = nc;
      for (int k = 0; k < nkeep; ++k) {
        const cplx zk = z(k == n2 ? 0 : k);
        const cplx zc = std::conj(z(k == 0 ? 0 : n2 - k));
        const cplx even = rmul(0.5, zk + zc);
        const cplx odd = cmul(cplx(0.0, -0.5), zk - zc);
        o[k] = rmul(scale, even + cmul(real_tw_[k], odd));
      }
    }
  }
}

void FftPlan::inverse_real_rows(const cplx* spec, int nrows, int nkeep,
                                double scale, double* const* rows,
                                double* scratch) const {
  FOAM_REQUIRE(nrows >= 0 && nkeep >= 1 && nkeep <= n_ / 2 + 1,
               "rows " << nrows << " nkeep " << nkeep << " for n " << n_);
  const FftPlan& cp = half_ ? *half_ : *this;
  const int nc = cp.n_;
  const std::size_t plane = static_cast<std::size_t>(nc) * L;
  double* are = scratch;
  double* aim = are + plane;
  double* bre = aim + plane;
  double* bim = bre + plane;
  for (int g = 0; g < nrows; g += L) {
    const int nl = std::min(L, nrows - g);
    for (int l = 0; l < L; ++l) {
      // Row coefficients, scaled, zero above the truncation.
      const int r = g + std::min(l, nl - 1);
      const cplx* s = spec + static_cast<std::size_t>(r) * nkeep;
      auto X = [&](int k) {
        return k < nkeep ? rmul(scale, s[k]) : cplx(0.0, 0.0);
      };
      for (int i = 0; i < nc; ++i) {
        const int k = cp.perm_[i];
        cplx v;
        if (half_) {
          // Un-split: Fe_k = (X_k + conj(X_{n2-k}))/2,
          //           Fo_k = conj(w_k) (X_k - conj(X_{n2-k}))/2,
          //           Z_k  = Fe_k + i Fo_k.
          const cplx xk = X(k);
          const cplx xc = std::conj(X(nc - k));
          const cplx fe = rmul(0.5, xk + xc);
          const cplx fo = cmul(std::conj(real_tw_[k]), rmul(0.5, xk - xc));
          v = fe + cmul(cplx(0.0, 1.0), fo);
        } else {
          v = k <= n_ / 2 ? X(k) : std::conj(X(n_ - k));
        }
        are[static_cast<std::size_t>(i) * L + l] = v.real();
        aim[static_cast<std::size_t>(i) * L + l] = v.imag();
      }
    }
    const bool in_b =
        cp.run_lanes(are, aim, bre, bim, cp.stage_tw_inv_.data());
    const double* zr = in_b ? bre : are;
    const double* zi = in_b ? bim : aim;
    const double inv = 1.0 / nc;
    for (int l = 0; l < nl; ++l) {
      double* x = rows[g + l];
      for (int j = 0; j < nc; ++j) {
        const std::size_t at = static_cast<std::size_t>(j) * L + l;
        if (half_) {
          x[2 * j] = zr[at] * inv;
          x[2 * j + 1] = zi[at] * inv;
        } else {
          x[j] = zr[at] * inv;
        }
      }
    }
  }
}

}  // namespace foam::numerics
