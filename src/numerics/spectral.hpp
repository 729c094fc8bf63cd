#pragma once

/// \file spectral.hpp
/// Spherical-harmonic spectral transform with rhomboidal truncation.
///
/// The FOAM atmosphere is a spectral-transform model derived from CCM2 at
/// R15: zonal wavenumbers m = 0..15 each carry 16 total wavenumbers
/// n = m..m+15 (the rhomboidal set). A scalar grid field on the Gaussian
/// grid maps to coefficients
///   f_n^m = (1/2) sum_j w_j f_m(mu_j) Pbar_n^m(mu_j),
/// where f_m(mu_j) are the Fourier coefficients of latitude row j and w_j
/// the Gaussian weights; synthesis is the adjoint sum. Vector analysis
/// (divergence / curl of flux pairs) uses integration by parts so no grid
/// derivative is ever taken (the standard transform-method trick that also
/// shapes the parallel data flow).
///
/// One implementation, the plan-based engine: an allocation-free iterative
/// real FFT (FftPlan) over every Fourier row of a call at once, in SIMD
/// lanes (FftPlan::forward_real_rows); equatorial-symmetry folding of the
/// Legendre sums (Pbar_n^m(-mu) = (-1)^{n+m} Pbar_n^m(mu), so north/south
/// latitude pairs fold into even/odd-parity contributions and the Legendre
/// flops halve); and contiguous panel kernels over the LegendreTable rows.
/// The *_batch entry points transform many fields per pass, amortizing FFT
/// plans and Legendre panel loads.
///
/// The correctness-first scalar loops this engine was written against (a
/// recursive FFT per row, full (m, k, j) Legendre triple loops) live on as
/// the test oracle in tests/oracle/spectral_oracle.hpp. The engine agrees
/// with them to <= 1e-12 relative: the folding reassociates the latitude
/// sums, and the FFT rows are bitwise equal to the oracle's.
///
/// Entry points are const and thread-safe as long as each thread uses its
/// own SpectralWorkspace (the overloads without a workspace allocate a
/// fresh one per call).
///
/// Threads inside a rank: every batched entry point takes an optional
/// par::Team and splits the batch *by field* over its members (static
/// contiguous chunks). Each member runs the engine kernels on its own
/// fields with its own workspace, so a field's FFT rows and Legendre sums
/// keep their serial order and the results are bitwise independent of the
/// team size. Telemetry and every collective stay on the calling (rank)
/// thread.
///
/// ParSpectralTransform runs the same kernels over a communicator; its
/// analyses use the transpose algorithm of the Foster-Worley parallel
/// spectral transforms that PCCM2 used. Its results are bitwise
/// independent of the rank count.

#include <complex>
#include <span>
#include <vector>

#include "base/field.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"
#include "numerics/legendre.hpp"
#include "par/comm.hpp"
#include "par/decomp.hpp"
#include "par/team.hpp"

namespace foam::numerics {

/// Coefficients of a rhomboidally truncated field: index (m, k) with
/// n = m + k, m in [0, mmax], k in [0, kmax).
class SpectralField {
 public:
  SpectralField() = default;
  SpectralField(int mmax, int kmax)
      : mmax_(mmax), kmax_(kmax),
        c_(static_cast<std::size_t>(mmax + 1) * kmax) {}

  int mmax() const { return mmax_; }
  int kmax() const { return kmax_; }
  std::size_t size() const { return c_.size(); }

  std::complex<double>& at(int m, int k) { return c_[index(m, k)]; }
  const std::complex<double>& at(int m, int k) const {
    return c_[index(m, k)];
  }

  std::complex<double>* data() { return c_.data(); }
  const std::complex<double>* data() const { return c_.data(); }

  void fill(std::complex<double> v) { std::fill(c_.begin(), c_.end(), v); }

  SpectralField& operator+=(const SpectralField& o);
  SpectralField& operator-=(const SpectralField& o);
  SpectralField& operator*=(double s);
  /// this += a * o
  void axpy(double a, const SpectralField& o);

  /// Power in the field: sum over coefficients of (2 - delta_m0)|c|^2,
  /// equal to the area-weighted mean square of the grid field.
  double power() const;

  bool same_shape(const SpectralField& o) const {
    return mmax_ == o.mmax_ && kmax_ == o.kmax_;
  }

 private:
  std::size_t index(int m, int k) const {
    FOAM_ASSERT(m >= 0 && m <= mmax_ && k >= 0 && k < kmax_,
                "(" << m << "," << k << ")");
    return static_cast<std::size_t>(m) * kmax_ + k;
  }
  int mmax_ = 0;
  int kmax_ = 0;
  std::vector<std::complex<double>> c_;
};

/// Reusable scratch for the plan-based engine: the batch's row pointers and
/// Fourier rows, the FFT lane scratch and the parity-fold buffers. All
/// storage grows on first use and is reused afterwards, making repeated
/// engine transforms allocation-free. One workspace per thread —
/// workspaces must not be shared concurrently. A batch split over a
/// par::Team gives member m > 0 the scratch in members[m - 1] (grown once,
/// on the calling thread, the first time a team of that size is used).
class SpectralWorkspace {
 public:
  SpectralWorkspace() = default;

 private:
  friend class SpectralTransform;
  friend class ParSpectralTransform;
  std::vector<const double*> src_rows;      // grid rows of a forward batch
  std::vector<double*> dst_rows;            // grid rows of an inverse batch
  std::vector<std::complex<double>> fm;     // Fourier rows, every latitude
  std::vector<double> lanes;                // FftPlan lane scratch
  std::vector<std::complex<double>> fold_pe, fold_po;  // P-term folds [f][m]
  std::vector<std::complex<double>> fold_he, fold_ho;  // H-term folds [f][m]
  // Distributed transform only: the rank's own Fourier rows and the
  // collectives' outgoing and incoming blocks.
  std::vector<std::complex<double>> local, send, recv;
  std::vector<SpectralWorkspace> members;   // team helpers' scratch
};

/// Serial spectral transform bound to one Gaussian grid and truncation.
class SpectralTransform {
 public:
  /// Rhomboidal truncation R(mmax): kmax = mmax + 1 degrees per m.
  SpectralTransform(const GaussianGrid& grid, int mmax);

  int mmax() const { return mmax_; }
  int kmax() const { return kmax_; }
  const GaussianGrid& grid() const { return grid_; }

  /// Scalar analysis: grid -> spectral.
  SpectralField analyze(const Field2Dd& f) const;
  SpectralField analyze(const Field2Dd& f, SpectralWorkspace& ws) const;

  /// Scalar synthesis: spectral -> grid.
  Field2Dd synthesize(const SpectralField& s) const;
  Field2Dd synthesize(const SpectralField& s, SpectralWorkspace& ws) const;

  /// Vector analysis of the flux pair (A, B) = (U q, V q) with U = u cos(lat):
  ///   analyze_div  -> spectral of  (1/(a(1-mu^2))) dA/dlon + (1/a) dB/dmu
  ///   analyze_curl -> spectral of  (1/(a(1-mu^2))) dB/dlon - (1/a) dA/dmu
  /// computed by integration by parts (exact under Gaussian quadrature).
  SpectralField analyze_div(const Field2Dd& A, const Field2Dd& B) const;
  SpectralField analyze_curl(const Field2Dd& A, const Field2Dd& B) const;

  /// Winds from streamfunction and velocity potential:
  ///   U = (1/a)(dchi/dlon - (1-mu^2) dpsi/dmu)
  ///   V = (1/a)(dpsi/dlon + (1-mu^2) dchi/dmu)
  /// where (U, V) = (u, v) cos(lat).
  void uv_from_psi_chi(const SpectralField& psi, const SpectralField& chi,
                       Field2Dd& U, Field2Dd& V) const;

  /// --- Batched multi-field entry points -------------------------------
  /// Transform every field of a step in one pass: the Legendre panels are
  /// loaded once per latitude pair and reused across the batch. The batch
  /// is split by field over \p team when one is given.

  std::vector<SpectralField> analyze_batch(
      const std::vector<const Field2Dd*>& fs, SpectralWorkspace& ws,
      par::Team* team = nullptr) const;

  void synthesize_batch(const std::vector<const SpectralField*>& ss,
                        const std::vector<Field2Dd*>& outs,
                        SpectralWorkspace& ws,
                        par::Team* team = nullptr) const;

  std::vector<SpectralField> analyze_div_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws,
      par::Team* team = nullptr) const {
    return analyze_vec_batch(As, Bs, /*curl=*/false, ws, team);
  }

  std::vector<SpectralField> analyze_curl_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws,
      par::Team* team = nullptr) const {
    return analyze_vec_batch(As, Bs, /*curl=*/true, ws, team);
  }

  /// Batched winds; U/V outputs are resized to the grid shape if needed.
  void uv_from_psi_chi_batch(const std::vector<const SpectralField*>& psis,
                             const std::vector<const SpectralField*>& chis,
                             const std::vector<Field2Dd*>& Us,
                             const std::vector<Field2Dd*>& Vs,
                             SpectralWorkspace& ws,
                             par::Team* team = nullptr) const;

  /// Spectral Laplacian: c_n^m *= -n(n+1)/a^2.
  void laplacian(SpectralField& s) const;
  /// Inverse Laplacian; the n = 0 coefficient (undetermined) is zeroed.
  void inverse_laplacian(SpectralField& s) const;
  /// d/dlon: c_n^m *= i m.
  SpectralField d_dlon(const SpectralField& s) const;

  /// Eigenvalue of the Laplacian for total wavenumber n: -n(n+1)/a^2.
  double laplacian_eigenvalue(int n) const;

 private:
  friend class ParSpectralTransform;

  using Grids = std::span<const Field2Dd* const>;
  using OutGrids = std::span<Field2Dd* const>;
  using Spectra = std::span<const SpectralField* const>;
  using cplx = std::complex<double>;

  /// analyze_div_batch (\p curl false) and analyze_curl_batch.
  std::vector<SpectralField> analyze_vec_batch(Grids As, Grids Bs, bool curl,
                                               SpectralWorkspace& ws,
                                               par::Team* team) const;

  /// Every kernel comes in two stages that meet in a buffer of Fourier
  /// rows, mmax+1 modes each. A batch of F fields has G = 1 grid per field
  /// (scalar transforms) or G = 2 (the (A, B) flux pair of a vector
  /// analysis, the (U, V) winds); grid q = f*G + g. The buffer holds the
  /// rows of latitudes [lo, hi), grid-major: row (q, j) starts at
  /// ((q * (hi - lo)) + j - lo) * (mmax+1).
  ///
  /// FFT stage: the lane-batched real FFTs of the rows \p lats of every
  /// grid of As (and Bs, the second grid of each field, when not empty),
  /// into / out of \p fm. A row's bits do not depend on which rows share
  /// its FFT call.
  void analyze_rows(Grids As, Grids Bs, par::Range lats, cplx* fm,
                    SpectralWorkspace& ws) const;
  void synthesize_rows(const cplx* fm, par::Range lats, OutGrids As,
                       OutGrids Bs, SpectralWorkspace& ws) const;

  /// Legendre stage, parity-folded over the mirror pairs (j, nlat-1-j)
  /// and the equator row of an odd nlat. An analysis sums over every
  /// latitude (\p fm spans the whole grid) into zero-initialized outputs,
  /// for the zonal wavenumbers \p ms only; each (m, k) accumulates in one
  /// fixed order whatever \p ms is. A synthesis writes every wavenumber of
  /// the rows \p lats (the rows \p fm spans), from the pairs that touch
  /// them; a row's values do not depend on which other rows are written.
  void analyze_fields(const cplx* fm, par::Range ms,
                      std::span<SpectralField> out,
                      SpectralWorkspace& ws) const;
  void analyze_vec_fields(const cplx* fm, bool curl, par::Range ms,
                          std::span<SpectralField> out,
                          SpectralWorkspace& ws) const;
  void synthesize_fields(Spectra ss, par::Range lats, cplx* fm) const;
  void uv_fields(Spectra psis, Spectra chis, par::Range lats,
                 cplx* fm) const;

  /// One pass of both stages: each member of \p team (or the caller
  /// alone) runs them for its own fields, an analysis over every latitude
  /// and wavenumber, a synthesis over the rows \p lats. An analysis is
  /// scalar when Bs is empty and a vector one (div or \p curl) otherwise;
  /// a synthesis is scalar when chis is empty and the winds (As = U,
  /// Bs = V) otherwise.
  void engine_analyze(Grids As, Grids Bs, bool curl,
                      std::span<SpectralField> out, SpectralWorkspace& ws,
                      par::Team* team = nullptr) const;
  void engine_synthesize(Spectra ss, Spectra chis, OutGrids As, OutGrids Bs,
                         par::Range lats, SpectralWorkspace& ws,
                         par::Team* team = nullptr) const;

  /// Run body(lo, count, workspace) over fields [0, nf) split over \p team
  /// (or inline, whole, when it is null): member 0 uses \p ws, member m
  /// ws.members[m - 1].
  template <typename Body>
  static void split_fields(par::Team* team, std::size_t nf,
                           SpectralWorkspace& ws, Body&& body);

  par::Range all_lats() const { return {0, grid_.nlat()}; }
  par::Range all_modes() const { return {0, mmax_ + 1}; }

  const GaussianGrid& grid_;
  int mmax_;
  int kmax_;
  FftPlan plan_;
  LegendreTable table_;
};

/// The spectral transform over the latitude blocks of a communicator: rank
/// r owns the rows par::block_range(nlat, size, r) and the zonal
/// wavenumbers par::block_range(mmax + 1, size, r), which may be none.
/// Analyses return the full spectral state on every rank; syntheses fill
/// only the rank's own rows of their outputs. Every result is bitwise the
/// serial transform's, at any rank count and team size.
///
/// Analysis: FFTs of the rank's rows, one Comm::alltoall (the transpose),
/// the Legendre sums of the rank's wavenumbers over every latitude, then
/// an allgather of every rank's coefficients. Synthesis and the winds need
/// no communication, since every rank holds the whole spectral state: the
/// Legendre sums of the mirror pairs that touch the rank's rows, then the
/// FFTs of those rows. A team splits each stage by field; the collectives
/// stay on the rank thread. Without a communicator, or on one rank, every
/// call is the serial transform's batched entry point: no collective, one
/// team fork-join.
///
/// The instance carries its own SpectralWorkspace, so it must not be shared
/// across ranks or threads; the serial transform may be shared freely.
class ParSpectralTransform {
 public:
  explicit ParSpectralTransform(const SpectralTransform& serial,
                                par::Comm* comm = nullptr);

  const SpectralTransform& serial() const { return serial_; }
  /// This rank's latitude rows and zonal wavenumbers.
  par::Range lats() const { return lats_; }
  par::Range modes() const { return modes_; }

  /// Split every later batched call by field over \p team (null: run on
  /// the calling thread alone). The team must outlive its use here.
  void set_team(par::Team* team) { team_ = team; }

  /// The serial transform's batched entry points, collective over the
  /// communicator (a single field is a batch of one).
  std::vector<SpectralField> analyze_batch(
      const std::vector<const Field2Dd*>& fs) const;
  void synthesize_batch(const std::vector<const SpectralField*>& ss,
                        const std::vector<Field2Dd*>& outs) const;
  std::vector<SpectralField> analyze_div_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const {
    return analyze_vec_batch(As, Bs, /*curl=*/false);
  }
  std::vector<SpectralField> analyze_curl_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const {
    return analyze_vec_batch(As, Bs, /*curl=*/true);
  }
  void uv_from_psi_chi_batch(const std::vector<const SpectralField*>& psis,
                             const std::vector<const SpectralField*>& chis,
                             const std::vector<Field2Dd*>& Us,
                             const std::vector<Field2Dd*>& Vs) const;

 private:
  using cplx = std::complex<double>;
  bool distributed() const { return comm_ != nullptr && comm_->size() > 1; }
  std::vector<SpectralField> analyze_vec_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, bool curl) const;

  /// The transposed analysis of a multi-rank batch (see the class
  /// comment); the arguments are as in SpectralTransform::engine_analyze.
  std::vector<SpectralField> analyze_transposed(
      SpectralTransform::Grids As, SpectralTransform::Grids Bs,
      bool curl) const;

  /// Rank r's latitude rows and wavenumbers.
  par::Range lats_of(int r) const;
  par::Range modes_of(int r) const;
  /// The transpose of \p ngrids grids' Fourier rows: the rank's rows
  /// (ws_.local) to its wavenumbers of every latitude (ws_.fm).
  void transpose(std::size_t ngrids) const;
  /// Every rank's wavenumbers of \p out, to every rank.
  void gather_modes(std::span<SpectralField> out) const;

  const SpectralTransform& serial_;
  par::Comm* comm_;
  par::Range lats_;
  par::Range modes_;
  mutable SpectralWorkspace ws_;
  par::Team* team_ = nullptr;
};

}  // namespace foam::numerics
