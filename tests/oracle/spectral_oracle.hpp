#pragma once

/// \file spectral_oracle.hpp
/// The reference spectral transform: the correctness-first scalar loops the
/// plan-based engine (numerics/spectral.hpp) was written against, kept as a
/// test oracle.
///
/// One recursive FFT (Fft) per latitude row and the full (m, k, j) Legendre
/// triple loops, with no equatorial folding and no batching. Every entry
/// point runs over an explicit latitude list: the full grid reproduces the
/// serial transform, a rank's rows reproduce the rows a ParSpectralTransform
/// rank's synthesis writes, and summing the per-rank analyses gives the
/// distributed Legendre transform (partial latitude sums added across
/// ranks). The engine agrees with these loops to <= 1e-12 relative: its
/// folding reassociates the latitude sums, and FftPlan's rows are bitwise
/// equal to this Fft's.

#include <complex>
#include <span>
#include <vector>

#include "base/field.hpp"
#include "numerics/grid.hpp"
#include "numerics/legendre.hpp"
#include "numerics/spectral.hpp"
#include "oracle/fft.hpp"

namespace foam::oracle {

class SpectralOracle {
 public:
  /// Rhomboidal truncation R(mmax) on \p grid, as SpectralTransform.
  SpectralOracle(const numerics::GaussianGrid& grid, int mmax);

  const numerics::GaussianGrid& grid() const { return grid_; }
  /// Every latitude row of the grid, in order.
  const std::vector<int>& all_lats() const { return all_lats_; }

  /// Grid -> spectral, summed over \p lats.
  numerics::SpectralField analyze(const Field2Dd& f,
                                  std::span<const int> lats) const;
  /// Spectral -> grid, into the rows \p lats of \p f (other rows untouched).
  void synthesize(const numerics::SpectralField& s, Field2Dd& f,
                  std::span<const int> lats) const;
  /// Divergence / curl of the flux pair (A, B), summed over \p lats.
  numerics::SpectralField analyze_div(const Field2Dd& A, const Field2Dd& B,
                                      std::span<const int> lats) const;
  numerics::SpectralField analyze_curl(const Field2Dd& A, const Field2Dd& B,
                                       std::span<const int> lats) const;
  /// Winds (U, V) = (u, v) cos(lat) into the rows \p lats.
  void uv_from_psi_chi(const numerics::SpectralField& psi,
                       const numerics::SpectralField& chi, Field2Dd& U,
                       Field2Dd& V, std::span<const int> lats) const;

  /// Full-grid conveniences.
  numerics::SpectralField analyze(const Field2Dd& f) const {
    return analyze(f, all_lats_);
  }
  Field2Dd synthesize(const numerics::SpectralField& s) const;

 private:
  /// Fourier analysis of row j: mmax+1 modes, 1/nlon folded in.
  std::vector<std::complex<double>> fourier_row(const Field2Dd& f,
                                                int j) const;
  /// Inverse: place mmax+1 Fourier modes into grid row j.
  void inv_fourier_row(const std::vector<std::complex<double>>& fm,
                       Field2Dd& f, int j) const;
  /// Shared div/curl loop: s += (i m X_m) wj P + sign * (Y_m wj) H.
  numerics::SpectralField analyze_vec(const Field2Dd& X, const Field2Dd& Y,
                                      double sign,
                                      std::span<const int> lats) const;

  const numerics::GaussianGrid& grid_;
  int mmax_;
  int kmax_;
  std::vector<int> all_lats_;
  Fft fft_;
  numerics::LegendreTable table_;
};

}  // namespace foam::oracle
