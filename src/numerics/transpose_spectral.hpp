#pragma once

/// \file transpose_spectral.hpp
/// Transpose-based parallel spectral transform.
///
/// PCCM2 incorporated "parallel spectral transform algorithms developed at
/// Argonne and Oak Ridge" (Foster & Worley): the two principal strategies
/// are the *distributed* Legendre transform (partial sums completed by a
/// reduction — ParSpectralTransform in spectral.hpp) and the *transpose*
/// algorithm implemented here: after the latitude-local FFTs, an
/// all-to-all redistributes the Fourier coefficients so each rank owns a
/// subset of zonal wavenumbers over *all* latitudes, computes those m's
/// full Legendre sums locally with no further communication, and an
/// all-gather (or the inverse transpose on synthesis) restores the
/// latitude decomposition.
///
/// The two variants agree to rounding; they trade collective
/// bandwidth (transpose) against reduction latency (distributed sum) — the
/// choice that mattered on the paper's SP2.
///
/// The transpose overlaps communication with packing: all receives are
/// pre-posted (Comm::irecv_vec), each outgoing block is handed off
/// (Comm::isend_move) as soon as it is packed, and arrived blocks are
/// unpacked in completion order (Comm::waitany) while the rest are still in
/// flight.
///
/// The atmosphere model runs ParSpectralTransform; this variant is kept
/// because its Legendre sums run over every latitude on one rank, in the
/// serial engine's order, so its results are bitwise independent of the
/// rank count (TransposeRanks.MatchesSerialBitwise).

#include <functional>
#include <span>
#include <vector>

#include "numerics/spectral.hpp"

namespace foam::numerics {

class TransposeSpectralTransform {
 public:
  /// \p my_lats must be the rows owned by this rank under the same
  /// decomposition on every rank of \p comm (sizes may differ by one).
  /// Wavenumbers m in [0, mmax] are block-distributed over ranks.
  TransposeSpectralTransform(const SpectralTransform& serial,
                             std::vector<int> my_lats, par::Comm& comm);

  /// Zonal wavenumbers owned by this rank, [m_lo, m_hi).
  int m_lo() const { return m_lo_; }
  int m_hi() const { return m_hi_; }

  /// Grid -> spectral with the transpose data flow; every rank returns the
  /// full spectral field (the trailing allgather; a production dycore
  /// would keep the m-decomposition, which the m-local entry points below
  /// expose).
  SpectralField analyze(par::Comm& comm, const Field2Dd& f) const;

  /// Spectral -> grid: inverse Legendre on owned m's, inverse transpose,
  /// then latitude-local inverse FFTs into the rank's rows of \p f.
  void synthesize(par::Comm& comm, const SpectralField& s, Field2Dd& f) const;

  /// The forward transpose alone (exposed for tests): input Fourier rows
  /// for the rank's latitudes, output this rank's m-columns over all
  /// latitudes.
  /// fm_rows holds mmax+1 modes per row, flat [row * (mmax+1) + m] over
  /// my_lats; the result is indexed [m - m_lo][j] over all nlat latitudes.
  std::vector<std::vector<std::complex<double>>> forward_transpose(
      par::Comm& comm, std::span<const std::complex<double>> fm_rows) const;

 private:
  /// Exchange equal-size padded blocks with every rank (self included):
  /// pack(dst, out) fills the zero-initialized outgoing block for \p dst,
  /// unpack(src, in) consumes the block arrived from \p src, in completion
  /// order (the pipeline in the file comment).
  void exchange_blocks(
      par::Comm& comm, int tag, std::size_t block,
      const std::function<void(int, double*)>& pack,
      const std::function<void(int, const double*)>& unpack) const;

  const SpectralTransform& serial_;
  std::vector<int> my_lats_;
  /// Per-instance engine scratch (instances are per-rank, never shared).
  mutable SpectralWorkspace ws_;
  int nranks_;
  int m_lo_ = 0;
  int m_hi_ = 0;
  std::vector<int> lat_owner_;    // owning rank of each latitude row
  std::vector<int> m_lo_of_;      // m range per rank
  std::vector<int> m_hi_of_;
  int max_lats_per_rank_ = 0;
  int max_ms_per_rank_ = 0;
};

}  // namespace foam::numerics
