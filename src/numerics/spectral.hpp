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
/// plans and Legendre panel loads (and, in ParSpectralTransform, fusing the
/// per-field allreduces into one collective).
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
/// team size. Telemetry and the fused allreduce stay on the calling (rank)
/// thread.
///
/// ParSpectralTransform layers the same operations over a latitude-band
/// decomposition on foam::par — FFTs are local to a rank's latitudes and the
/// Legendre stage completes partial sums with an allreduce, the
/// "distributed Legendre transform" variant studied for PCCM2.

#include <array>
#include <complex>
#include <span>
#include <vector>

#include "base/field.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"
#include "numerics/legendre.hpp"
#include "par/comm.hpp"
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
  friend class TransposeSpectralTransform;
  std::vector<const double*> src_rows;      // grid rows of a forward batch
  std::vector<double*> dst_rows;            // grid rows of an inverse batch
  std::vector<std::complex<double>> fm;     // Fourier rows [row][m]
  std::vector<double> lanes;                // FftPlan lane scratch
  std::vector<std::complex<double>> fold_pe, fold_po;  // P-term folds [f][m]
  std::vector<std::complex<double>> fold_he, fold_ho;  // H-term folds [f][m]
  std::vector<double> reduce;               // fused-allreduce packing
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
      par::Team* team = nullptr) const;

  std::vector<SpectralField> analyze_curl_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws,
      par::Team* team = nullptr) const;

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
  friend class TransposeSpectralTransform;

  /// Latitude rows grouped for equatorial-symmetry folding: mirror pairs
  /// (js, jn) with mu[jn] == -mu[js], plus unpaired rows (the equator row
  /// of an odd-nlat grid, or rows whose mirror another rank owns).
  struct LatPairing {
    std::vector<std::array<int, 2>> pairs;
    std::vector<int> singles;
  };
  static LatPairing make_pairing(const GaussianGrid& grid,
                                 std::span<const int> lats);

  /// Plan-based row transforms of a whole batch in one lane-batched FFT
  /// call (allocation-free given a warm workspace). fourier_rows analyzes
  /// ws.src_rows into ws.fm, mmax+1 modes per row with the 1/nlon
  /// normalization folded in; inv_fourier_rows places each ws.fm row into
  /// the matching ws.dst_rows grid row.
  void fourier_rows(SpectralWorkspace& ws) const;
  void inv_fourier_rows(SpectralWorkspace& ws) const;

  using Grids = std::span<const Field2Dd* const>;
  using OutGrids = std::span<Field2Dd* const>;
  using Spectra = std::span<const SpectralField* const>;

  /// Engine kernels over an arbitrary row grouping (serial uses the full
  /// grid's pairing; the parallel variants pass their owned rows).
  /// Analysis kernels accumulate into zero-initialized outputs; synthesis
  /// kernels write only the rows named by the pairing. With a \p team the
  /// batch is split by field (split_fields); every field still runs the
  /// *_fields kernel below, unchanged.
  void engine_analyze(const LatPairing& lp, Grids fs,
                      std::span<SpectralField> out, SpectralWorkspace& ws,
                      par::Team* team = nullptr) const;
  void engine_synthesize(const LatPairing& lp, Spectra ss, OutGrids outs,
                         SpectralWorkspace& ws,
                         par::Team* team = nullptr) const;
  void engine_analyze_vec(const LatPairing& lp, bool curl, Grids As,
                          Grids Bs, std::span<SpectralField> out,
                          SpectralWorkspace& ws,
                          par::Team* team = nullptr) const;
  void engine_uv(const LatPairing& lp, Spectra psis, Spectra chis,
                 OutGrids Us, OutGrids Vs, SpectralWorkspace& ws,
                 par::Team* team = nullptr) const;

  /// The kernels themselves, over one member's contiguous run of fields.
  void analyze_fields(const LatPairing& lp, Grids fs,
                      std::span<SpectralField> out,
                      SpectralWorkspace& ws) const;
  void synthesize_fields(const LatPairing& lp, Spectra ss, OutGrids outs,
                         SpectralWorkspace& ws) const;
  void analyze_vec_fields(const LatPairing& lp, bool curl, Grids As,
                          Grids Bs, std::span<SpectralField> out,
                          SpectralWorkspace& ws) const;
  void uv_fields(const LatPairing& lp, Spectra psis, Spectra chis,
                 OutGrids Us, OutGrids Vs, SpectralWorkspace& ws) const;

  /// Run body(lo, count, workspace) over fields [0, nf) split over \p team
  /// (or inline, whole, when it is null): member 0 uses \p ws, member m
  /// ws.members[m - 1].
  template <typename Body>
  static void split_fields(par::Team* team, std::size_t nf,
                           SpectralWorkspace& ws, Body&& body);

  const GaussianGrid& grid_;
  int mmax_;
  int kmax_;
  FftPlan plan_;
  LegendreTable table_;
  LatPairing pairing_;  // full-grid mirror pairs
};

/// Latitude-distributed spectral transform. Each rank owns a set of latitude
/// rows (as produced by par::paired_latitudes or any partition); analysis
/// ends with an allreduce so every rank holds the full spectral state, and
/// synthesis fills only the rank's own rows of the output field (other rows
/// are left untouched).
///
/// The instance carries its own SpectralWorkspace, so it is cheap to call
/// repeatedly but must not be shared across ranks/threads (each rank
/// constructs its own, which is the existing usage pattern). The underlying
/// serial transform may be shared freely.
class ParSpectralTransform {
 public:
  ParSpectralTransform(const SpectralTransform& serial,
                       std::vector<int> my_lats);

  const std::vector<int>& my_lats() const { return my_lats_; }

  /// Split every later batched call by field over \p team (null: run on
  /// the calling thread alone). The team must outlive its use here.
  void set_team(par::Team* team) { team_ = team; }

  /// One pass over the rank's latitudes for the whole batch, and — for the
  /// analysis entry points — the per-field spectral allreduces fused into
  /// a single collective over one packed buffer. (A single field is a
  /// batch of one.)
  std::vector<SpectralField> analyze_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& fs) const;
  void synthesize_batch(const std::vector<const SpectralField*>& ss,
                        const std::vector<Field2Dd*>& outs) const;
  std::vector<SpectralField> analyze_div_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const;
  std::vector<SpectralField> analyze_curl_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const;
  void uv_from_psi_chi_batch(const std::vector<const SpectralField*>& psis,
                             const std::vector<const SpectralField*>& chis,
                             const std::vector<Field2Dd*>& Us,
                             const std::vector<Field2Dd*>& Vs) const;

 private:
  /// One collective for the whole batch: pack every field's partial sums
  /// into the workspace buffer, allreduce in place, unpack.
  void allreduce_fused(par::Comm& comm,
                       std::vector<SpectralField>& fields) const;
  const SpectralTransform& serial_;
  std::vector<int> my_lats_;
  SpectralTransform::LatPairing pairing_;  // folding groups within my_lats
  mutable SpectralWorkspace ws_;
  par::Team* team_ = nullptr;
};

}  // namespace foam::numerics
