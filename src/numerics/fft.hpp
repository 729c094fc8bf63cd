#pragma once

/// \file fft.hpp
/// Mixed-radix fast Fourier transform — the reference recursion.
///
/// The spectral atmosphere needs length-48 transforms (R15 Gaussian grid)
/// and the ocean polar filter length-128 ones, so the implementation
/// handles any length whose prime factors are small (2, 3, 5, 7); other
/// factors fall back to an O(p^2) direct step, which keeps the code correct
/// for every size used in tests. Production paths run FftPlan
/// (fft_plan.hpp); this class is the spectral reference path and the
/// oracle FftPlan and the polar filter are tested against.
///
/// Conventions: forward() computes X_k = sum_j x_j exp(-2*pi*i*j*k/N)
/// (unnormalized); inverse() includes the 1/N factor so
/// inverse(forward(x)) == x.

#include <complex>
#include <vector>

namespace foam::numerics {

/// Planned FFT of a fixed length. Plans are cheap; the constructor only
/// factorizes N and tabulates twiddles.
class Fft {
 public:
  explicit Fft(int n);

  int size() const { return n_; }

  /// Unnormalized forward DFT.
  void forward(std::vector<std::complex<double>>& data) const;
  /// Normalized (1/N) inverse DFT.
  void inverse(std::vector<std::complex<double>>& data) const;

  /// Real-to-complex convenience: returns the n/2+1 non-redundant
  /// coefficients of the forward DFT of a real sequence.
  std::vector<std::complex<double>> forward_real(
      const std::vector<double>& x) const;

  /// Complex-to-real inverse of forward_real: expects n/2+1 coefficients,
  /// reconstructs the length-n real sequence (conjugate symmetry implied).
  std::vector<double> inverse_real(
      const std::vector<std::complex<double>>& spec) const;

 private:
  void transform(std::vector<std::complex<double>>& data, int sign) const;
  int n_;
  std::vector<int> factors_;
  std::vector<std::complex<double>> twiddle_fwd_;  // exp(-2 pi i j / n)
};

}  // namespace foam::numerics
