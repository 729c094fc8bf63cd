#pragma once

/// \file fft_plan.hpp
/// Plan-based iterative mixed-radix FFT — the transform engine's kernel.
///
/// The reference Fft (fft.hpp) recurses with a fresh std::vector at every
/// level and runs real transforms through the full n-point complex path.
/// FftPlan is the production replacement: the constructor factorizes N,
/// builds the digit-reversal permutation and per-stage twiddle tables once
/// (a forward table and its conjugate for the inverse, so no butterfly
/// tests a sign), and every transform afterwards runs iteratively
/// (bottom-up over the factor stages, ping-ponging between two buffers)
/// with **no allocation**.
///
/// One lane kernel behind two pairs of entry points:
///
///  * forward_lanes()/inverse_lanes() — kLanes complex rows at once (the
///    ocean polar filter). Each lane performs the same butterfly sums in
///    the same order as the reference recursion, so every lane agrees with
///    Fft::forward()/inverse() bitwise.
///  * forward_real_rows()/inverse_real_rows() — many real rows at once (the
///    spectral engine). Even N runs the N/2-point complex plan plus an O(N)
///    split post-pass, half the butterflies of the reference path; odd N
///    falls back to the full complex plan. A tail group of fewer than
///    kLanes rows is padded by repeating its last row; only real rows are
///    written.
///
/// Both keep kLanes rows interleaved as split re/im arrays indexed
/// [point][lane], so each butterfly is a fixed-length lane loop the
/// compiler vectorizes at the baseline ISA. Each lane performs exactly the
/// operations of a single-row transform (scale and truncation included),
/// so the result of a row does not depend on the batch it rides in.
///
/// Bits. Every complex product is written out as
/// (ar*br - ai*bi, ar*bi + ai*br): the same two products and sum GCC emits
/// for std::complex operator*, minus its C99 Annex G NaN check and
/// __muldc3 fallback. Finite results are therefore bitwise equal to the
/// std::complex formulation. The library is built with -ffp-contract=off.
/// GCC 12's SLP addsub pattern can still fuse a (re, im) product pair on an
/// FMA-capable -march; the butterfly lane loops apply one operation to
/// every lane and never match it, and the oracle tests run in an
/// x86-64-v3 build as well. A non-finite input gives NaN where Annex G
/// would have recovered an infinity; it still gives a non-finite output.
///
/// Thread safety: a plan is immutable after construction and may be shared
/// freely; workspaces and scratch belong to the caller (one per thread).
///
/// Conventions match Fft: forward is the unnormalized DFT
/// X_k = sum_j x_j exp(-2 pi i j k / N); inverse includes the 1/N factor.

#include <complex>
#include <memory>
#include <vector>

namespace foam::numerics {

class FftPlan {
 public:
  /// Rows interleaved per pass of the lane and real-rows transforms.
  static constexpr int kLanes = 8;

  explicit FftPlan(int n);

  int size() const { return n_; }

  /// Doubles of workspace forward_lanes()/inverse_lanes() need.
  std::size_t lanes_workspace_size() const {
    return 2 * static_cast<std::size_t>(n_) * kLanes;
  }

  /// Unnormalized in-place forward DFT of kLanes independent complex rows.
  /// The rows are split into a real and an imaginary plane of n*kLanes
  /// doubles, point i of lane l at [i*kLanes + l] (natural point order).
  /// Each lane's result is bitwise Fft::forward()'s for that row. \p work:
  /// >= lanes_workspace_size() doubles.
  void forward_lanes(double* re, double* im, double* work) const;
  /// Normalized (1/N) inverse of kLanes rows in the layout of
  /// forward_lanes(); each lane bitwise Fft::inverse()'s.
  void inverse_lanes(double* re, double* im, double* work) const;

  /// Doubles of scratch the *_real_rows transforms need.
  std::size_t rows_scratch_size() const;

  /// Real-to-complex forward of \p nrows rows of n reals each: row r's
  /// first \p nkeep (<= n/2+1) DFT coefficients, times \p scale, go to
  /// out[r*nkeep .. r*nkeep + nkeep).
  void forward_real_rows(const double* const* rows, int nrows, int nkeep,
                         double scale, std::complex<double>* out,
                         double* scratch) const;

  /// Complex-to-real inverse of forward_real_rows: row r's coefficients are
  /// spec[r*nkeep + k] * \p scale for k < nkeep and zero above (conjugate
  /// symmetry implied); the n reals, with the 1/N normalization, go to
  /// rows[r]. inverse_real_rows(forward_real_rows(x), scale 1) == x.
  void inverse_real_rows(const std::complex<double>* spec, int nrows,
                         int nkeep, double scale, double* const* rows,
                         double* scratch) const;

 private:
  FftPlan(int n, bool build_real_path);
  void build();
  /// Digit-reversal gather of the [point][lane] planes into \p work, then
  /// run_lanes() with twiddle table \p tw (stage_tw_ or stage_tw_inv_), the
  /// result back in (re, im).
  void run_rows(double* re, double* im, double* work,
                const std::complex<double>* tw) const;
  /// Lane kernel over leaf-ordered [point][lane] input in (are, aim),
  /// ping-ponging with (bre, bim). Returns true when the result lands in b.
  bool run_lanes(double* are, double* aim, double* bre, double* bim,
                 const std::complex<double>* tw) const;

  /// One bottom-up combine stage: radix \p p merging sub-blocks of size
  /// \p m into blocks of size \p count = p*m; twiddles at \p tw_offset
  /// (p*count values, layout tw[r*count + k]).
  struct Stage {
    int p;
    int m;
    int count;
    std::size_t tw_offset;
  };

  int n_;
  std::vector<int> factors_;
  std::vector<int> perm_;  // digit-reversal gather: leaf i reads perm_[i]
  std::vector<Stage> stages_;
  std::vector<std::complex<double>> stage_tw_;      // exp(-2 pi i ...)
  std::vector<std::complex<double>> stage_tw_inv_;  // conj(stage_tw_)
  // Split post-pass twiddles w_k = exp(-2 pi i k / n), k = 0..n/2 (even n).
  std::vector<std::complex<double>> real_tw_;
  std::unique_ptr<FftPlan> half_;  // n/2 complex plan for the real path
};

}  // namespace foam::numerics
