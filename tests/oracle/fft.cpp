#include "oracle/fft.hpp"

#include <cmath>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::oracle {

using cplx = std::complex<double>;

Fft::Fft(int n) : n_(n) {
  FOAM_REQUIRE(n > 0, "FFT length " << n);
  int rem = n;
  for (int p : {2, 3, 5, 7}) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }
  // Remaining prime factors handled by the direct O(p^2) butterfly.
  for (int p = 11; rem > 1; p += 2) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }
  twiddle_fwd_.resize(n);
  for (int j = 0; j < n; ++j) {
    const double ang = -constants::two_pi * j / n;
    twiddle_fwd_[j] = cplx(std::cos(ang), std::sin(ang));
  }
}

namespace {

/// Recursive mixed-radix Cooley-Tukey: data has `count` elements at stride
/// `stride` within `src`; result written densely into `dst`.
void fft_rec(const cplx* src, cplx* dst, int count, int stride,
             const std::vector<int>& factors, std::size_t fidx,
             const std::vector<cplx>& tw, int n, int sign) {
  if (count == 1) {
    dst[0] = src[0];
    return;
  }
  const int p =
      fidx < factors.size() ? factors[fidx] : count;  // direct fallback
  const int m = count / p;
  // Transform the p interleaved subsequences.
  std::vector<cplx> sub(static_cast<std::size_t>(count));
  for (int r = 0; r < p; ++r) {
    fft_rec(src + static_cast<std::ptrdiff_t>(r) * stride,
            sub.data() + static_cast<std::ptrdiff_t>(r) * m, m, stride * p,
            factors, fidx + 1, tw, n, sign);
  }
  // Combine: dst[q + s*m] = sum_r twiddle(r*(q+s*m)) * sub[r*m + q]
  const int big_stride = n / count;  // twiddle step for this level
  for (int q = 0; q < m; ++q) {
    for (int s = 0; s < p; ++s) {
      const int k = q + s * m;
      cplx acc(0.0, 0.0);
      for (int r = 0; r < p; ++r) {
        // twiddle index r*k*bigStride mod n, conjugated for inverse.
        const long long tidx =
            (static_cast<long long>(r) * k * big_stride) % n;
        cplx w = tw[static_cast<std::size_t>(tidx)];
        if (sign > 0) w = std::conj(w);
        acc += w * sub[static_cast<std::size_t>(r) * m + q];
      }
      dst[k] = acc;
    }
  }
}

}  // namespace

void Fft::transform(std::vector<cplx>& data, int sign) const {
  FOAM_REQUIRE(static_cast<int>(data.size()) == n_,
               "FFT input length " << data.size() << " != " << n_);
  std::vector<cplx> out(data.size());
  fft_rec(data.data(), out.data(), n_, 1, factors_, 0, twiddle_fwd_, n_,
          sign);
  data.swap(out);
}

void Fft::forward(std::vector<cplx>& data) const { transform(data, -1); }

void Fft::inverse(std::vector<cplx>& data) const {
  transform(data, +1);
  const double inv = 1.0 / n_;
  for (auto& v : data) v *= inv;
}

std::vector<cplx> Fft::forward_real(const std::vector<double>& x) const {
  FOAM_REQUIRE(static_cast<int>(x.size()) == n_,
               "FFT input length " << x.size() << " != " << n_);
  std::vector<cplx> data(n_);
  for (int j = 0; j < n_; ++j) data[j] = cplx(x[j], 0.0);
  forward(data);
  data.resize(n_ / 2 + 1);
  return data;
}

std::vector<double> Fft::inverse_real(const std::vector<cplx>& spec) const {
  FOAM_REQUIRE(static_cast<int>(spec.size()) == n_ / 2 + 1,
               "rFFT spectrum length " << spec.size() << " != " << n_ / 2 + 1);
  std::vector<cplx> full(n_);
  for (int k = 0; k <= n_ / 2; ++k) full[k] = spec[k];
  for (int k = n_ / 2 + 1; k < n_; ++k) full[k] = std::conj(spec[n_ - k]);
  inverse(full);
  std::vector<double> x(n_);
  for (int j = 0; j < n_; ++j) x[j] = full[j].real();
  return x;
}

}  // namespace foam::oracle
