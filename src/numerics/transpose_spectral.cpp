#include "numerics/transpose_spectral.hpp"

#include <algorithm>

#include "par/decomp.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::numerics {

using cplx = std::complex<double>;

namespace {
// User tags for the two transpose directions. Messages are matched FIFO per
// (comm, source, tag), so distinct tags keep an analyze immediately followed
// by a synthesize from ever pairing blocks across the two exchanges.
constexpr int kTagForward = 290;
constexpr int kTagInverse = 291;
}  // namespace

TransposeSpectralTransform::TransposeSpectralTransform(
    const SpectralTransform& serial, std::vector<int> my_lats,
    par::Comm& comm)
    : serial_(serial), my_lats_(std::move(my_lats)), nranks_(comm.size()) {
  const int nlat = serial_.grid().nlat();
  const int nm = serial_.mmax() + 1;
  FOAM_REQUIRE(nranks_ <= nm,
               "more ranks (" << nranks_ << ") than wavenumbers (" << nm
                              << ")");
  const par::Range mr = par::block_range(nm, nranks_, comm.rank());
  m_lo_ = mr.lo;
  m_hi_ = mr.hi;
  m_lo_of_.resize(nranks_);
  m_hi_of_.resize(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    const par::Range rr = par::block_range(nm, nranks_, r);
    m_lo_of_[r] = rr.lo;
    m_hi_of_[r] = rr.hi;
    max_ms_per_rank_ = std::max(max_ms_per_rank_, rr.count());
  }
  // Latitude ownership: gather each rank's row count, assume the same
  // block decomposition on all ranks (validated against my_lats).
  lat_owner_.assign(nlat, -1);
  for (int r = 0; r < nranks_; ++r) {
    const par::Range lr = par::block_range(nlat, nranks_, r);
    for (int j = lr.lo; j < lr.hi; ++j) lat_owner_[j] = r;
    max_lats_per_rank_ = std::max(max_lats_per_rank_, lr.count());
  }
  const par::Range mine = par::block_range(nlat, nranks_, comm.rank());
  FOAM_REQUIRE(static_cast<int>(my_lats_.size()) == mine.count(),
               "my_lats must be the block decomposition ("
                   << my_lats_.size() << " vs " << mine.count() << ")");
  for (std::size_t n = 0; n < my_lats_.size(); ++n)
    FOAM_REQUIRE(my_lats_[n] == mine.lo + static_cast<int>(n),
                 "my_lats must be the contiguous block rows");
}

void TransposeSpectralTransform::exchange_blocks(
    par::Comm& comm, int tag, std::size_t block,
    const std::function<void(int, double*)>& pack,
    const std::function<void(int, const double*)>& unpack) const {
  FOAM_TRACE_SCOPE("spectral.transpose");
  const int me = comm.rank();
  // Post every receive up front, hand each outgoing pencil to
  // the runtime by ownership the moment it is packed (isend_move rendezvous:
  // the block crosses rank boundaries by pointer, zero memcpy, and lands in
  // rbufs via the matching irecv_vec move-out), handle the self block
  // locally, then unpack remote blocks in whatever order they complete
  // while the rest are still in flight.
  std::vector<std::vector<double>> rbufs(nranks_);
  std::vector<par::Request> rreqs(nranks_);
  for (int src = 0; src < nranks_; ++src) {
    if (src == me) continue;
    rreqs[src] = comm.irecv_vec(src, tag, rbufs[src]);
  }
  for (int dst = 0; dst < nranks_; ++dst) {
    if (dst == me) continue;
    std::vector<double> pencil(block, 0.0);
    pack(dst, pencil.data());
    comm.isend_move(dst, tag, std::move(pencil));
  }
  std::vector<double> scratch(block, 0.0);
  pack(me, scratch.data());
  unpack(me, scratch.data());
  for (int src; (src = comm.waitany(rreqs)) != -1;)
    unpack(src, rbufs[src].data());
}

std::vector<std::vector<cplx>> TransposeSpectralTransform::forward_transpose(
    par::Comm& comm, std::span<const cplx> fm_rows) const {
  const int nm = serial_.mmax() + 1;
  FOAM_REQUIRE(fm_rows.size() == my_lats_.size() * nm, "Fourier row size");
  const int nlat = serial_.grid().nlat();
  // Equal-size padded blocks: per destination rank, my rows x its m's.
  const std::size_t block =
      static_cast<std::size_t>(max_lats_per_rank_) * max_ms_per_rank_ * 2;
  std::vector<std::vector<cplx>> columns(
      m_hi_ - m_lo_, std::vector<cplx>(nlat, cplx(0.0, 0.0)));
  exchange_blocks(
      comm, kTagForward, block,
      [&](int dst, double* out) {
        for (std::size_t row = 0; row < my_lats_.size(); ++row) {
          for (int m = m_lo_of_[dst]; m < m_hi_of_[dst]; ++m) {
            const std::size_t slot =
                (row * max_ms_per_rank_ + (m - m_lo_of_[dst])) * 2;
            const cplx v = fm_rows[row * nm + m];
            out[slot] = v.real();
            out[slot + 1] = v.imag();
          }
        }
      },
      [&](int src, const double* in) {
        const par::Range lr = par::block_range(nlat, nranks_, src);
        for (int j = lr.lo; j < lr.hi; ++j) {
          const std::size_t row = j - lr.lo;
          for (int m = m_lo_; m < m_hi_; ++m) {
            const std::size_t slot =
                (row * max_ms_per_rank_ + (m - m_lo_)) * 2;
            columns[m - m_lo_][j] = cplx(in[slot], in[slot + 1]);
          }
        }
      });
  return columns;
}

SpectralField TransposeSpectralTransform::analyze(par::Comm& comm,
                                                  const Field2Dd& f) const {
  // Latitude-local FFTs into ws_.fm, [row][m] over my_lats.
  ws_.src_rows.clear();
  for (const int j : my_lats_) ws_.src_rows.push_back(&f(0, j));
  serial_.fourier_rows(ws_);

  // Transpose to the m decomposition, then local full Legendre sums.
  const auto columns = forward_transpose(comm, ws_.fm);
  const int kmax = serial_.kmax();
  std::vector<double> mine(static_cast<std::size_t>(max_ms_per_rank_) *
                               kmax * 2,
                           0.0);
  // Parity-folded sums over the full-grid mirror pairs: even-k entries
  // of the panel see the even fold, odd-k the odd fold.
  std::vector<cplx> acc(kmax);
  for (int m = m_lo_; m < m_hi_; ++m) {
    const cplx* col = columns[m - m_lo_].data();
    std::fill(acc.begin(), acc.end(), cplx(0.0, 0.0));
    for (const auto& pr : serial_.pairing_.pairs) {
      const int js = pr[0], jn = pr[1];
      const double w = 0.5 * serial_.grid().gauss_weight(js);
      const cplx fe = w * (col[js] + col[jn]);
      const cplx fo = w * (col[js] - col[jn]);
      const double* pm =
          serial_.table_.p_row(js) + static_cast<std::size_t>(m) * kmax;
      int k = 0;
      for (; k + 1 < kmax; k += 2) {
        acc[k] += fe * pm[k];
        acc[k + 1] += fo * pm[k + 1];
      }
      if (k < kmax) acc[k] += fe * pm[k];
    }
    for (const int j : serial_.pairing_.singles) {
      const cplx wf = 0.5 * serial_.grid().gauss_weight(j) * col[j];
      const double* pm =
          serial_.table_.p_row(j) + static_cast<std::size_t>(m) * kmax;
      for (int k = 0; k < kmax; ++k) acc[k] += wf * pm[k];
    }
    for (int k = 0; k < kmax; ++k) {
      const std::size_t slot =
          (static_cast<std::size_t>(m - m_lo_) * kmax + k) * 2;
      mine[slot] = acc[k].real();
      mine[slot + 1] = acc[k].imag();
    }
  }
  // Allgather the m-blocks so every rank holds the full spectral field.
  std::vector<double> all(mine.size() * nranks_);
  comm.allgather(mine.data(), mine.size(), all.data());
  SpectralField s(serial_.mmax(), kmax);
  for (int r = 0; r < nranks_; ++r) {
    const double* in = all.data() + mine.size() * r;
    for (int m = m_lo_of_[r]; m < m_hi_of_[r]; ++m)
      for (int k = 0; k < kmax; ++k) {
        const std::size_t slot =
            (static_cast<std::size_t>(m - m_lo_of_[r]) * kmax + k) * 2;
        s.at(m, k) = cplx(in[slot], in[slot + 1]);
      }
  }
  return s;
}

void TransposeSpectralTransform::synthesize(par::Comm& comm,
                                            const SpectralField& s,
                                            Field2Dd& f) const {
  const int nlat = serial_.grid().nlat();
  const int nm = serial_.mmax() + 1;
  const int kmax = serial_.kmax();
  // Inverse Legendre on owned m's: f_m(j) for all j.
  std::vector<std::vector<cplx>> columns(
      m_hi_ - m_lo_, std::vector<cplx>(nlat, cplx(0.0, 0.0)));
  // Folded inverse sums: one even/odd accumulation per mirror pair gives
  // both rows (northern row flips the odd-parity part).
  for (int m = m_lo_; m < m_hi_; ++m) {
    cplx* col = columns[m - m_lo_].data();
    const cplx* sm = s.data() + static_cast<std::size_t>(m) * kmax;
    for (const auto& pr : serial_.pairing_.pairs) {
      const int js = pr[0], jn = pr[1];
      const double* pm =
          serial_.table_.p_row(js) + static_cast<std::size_t>(m) * kmax;
      cplx acc_e(0.0, 0.0), acc_o(0.0, 0.0);
      int k = 0;
      for (; k + 1 < kmax; k += 2) {
        acc_e += sm[k] * pm[k];
        acc_o += sm[k + 1] * pm[k + 1];
      }
      if (k < kmax) acc_e += sm[k] * pm[k];
      col[js] = acc_e + acc_o;
      col[jn] = acc_e - acc_o;
    }
    for (const int j : serial_.pairing_.singles) {
      const double* pm =
          serial_.table_.p_row(j) + static_cast<std::size_t>(m) * kmax;
      cplx acc(0.0, 0.0);
      for (int k = 0; k < kmax; ++k) acc += sm[k] * pm[k];
      col[j] = acc;
    }
  }
  // Inverse transpose: send to each rank its latitudes of my m-columns;
  // each arriving block fills its m-slice of the full Fourier rows.
  const std::size_t block =
      static_cast<std::size_t>(max_lats_per_rank_) * max_ms_per_rank_ * 2;
  std::vector<cplx>& fm = ws_.fm;  // [row][m] over my_lats
  fm.assign(my_lats_.size() * nm, cplx(0.0, 0.0));
  exchange_blocks(
      comm, kTagInverse, block,
      [&](int dst, double* out) {
        const par::Range lr = par::block_range(nlat, nranks_, dst);
        for (int j = lr.lo; j < lr.hi; ++j) {
          const std::size_t row = j - lr.lo;
          for (int m = m_lo_; m < m_hi_; ++m) {
            const std::size_t slot =
                (row * max_ms_per_rank_ + (m - m_lo_)) * 2;
            out[slot] = columns[m - m_lo_][j].real();
            out[slot + 1] = columns[m - m_lo_][j].imag();
          }
        }
      },
      [&](int src, const double* in) {
        for (std::size_t row = 0; row < my_lats_.size(); ++row) {
          for (int m = m_lo_of_[src]; m < m_hi_of_[src]; ++m) {
            const std::size_t slot =
                (row * max_ms_per_rank_ + (m - m_lo_of_[src])) * 2;
            fm[row * nm + m] = cplx(in[slot], in[slot + 1]);
          }
        }
      });
  // Latitude-local inverse FFTs into the rank's rows of f.
  ws_.dst_rows.clear();
  for (const int j : my_lats_) ws_.dst_rows.push_back(&f(0, j));
  serial_.inv_fourier_rows(ws_);
}

}  // namespace foam::numerics
