#include "ocean/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "base/constants.hpp"
#include "data/earth.hpp"
#include "numerics/tridiag.hpp"
#include "par/decomp.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::ocean {

using constants::cp_sea_water;
using constants::deg2rad;
using constants::earth_omega;
using constants::gravity;
using constants::ice_stress_divisor;
using constants::sea_ice_freeze_c;

namespace {
constexpr int kTagSouth = 100;  // halo row travelling southward
constexpr int kTagNorth = 101;  // halo row travelling northward
constexpr int kTagWest = 102;   // halo column travelling westward
constexpr int kTagEast = 103;   // halo column travelling eastward

par::Decomp2D make_ocean_decomp(const OceanConfig& cfg, par::Comm* comm,
                                int px) {
  FOAM_REQUIRE(px >= 1, "ocean decomposition px=" << px);
  if (comm == nullptr) {
    FOAM_REQUIRE(px == 1, "serial ocean cannot use px=" << px);
    return par::Decomp2D(cfg.nx, cfg.ny, 1, 1);
  }
  FOAM_REQUIRE(comm->size() % px == 0,
               "ocean rank count " << comm->size()
                                   << " not divisible by px=" << px);
  return par::Decomp2D(cfg.nx, cfg.ny, px, comm->size() / px);
}

/// Row (j, k) of a 3-D field: nx contiguous values.
inline double* row_of(Field3Dd& f, int j, int k) {
  return f.level(k) + static_cast<std::size_t>(j) * f.nx();
}
inline const double* row_of(const Field3Dd& f, int j, int k) {
  return f.level(k) + static_cast<std::size_t>(j) * f.nx();
}

/// c ? a : b with both operands evaluated: the selects that replace the
/// sweeps' land branches. Every load happens unconditionally, so GCC
/// if-converts and vectorizes the loop; the chosen value is bitwise the
/// one the branch would have computed.
template <typename T>
inline T select(bool c, T a, T b) {
  return c ? a : b;
}

/// std::clamp's comparisons on values rather than references (which keeps
/// the selects vectorizable): lo if v < lo, else hi if hi < v, else v.
inline double clamp_sel(double v, double lo, double hi) {
  return select(v < lo, lo, select(hi < v, hi, v));
}

// GCC's "no loop-carried dependence" assertion for the sweeps below (other
// compilers check aliasing at run time instead).
#if defined(__GNUC__) && !defined(__clang__)
#define FOAM_IVDEP _Pragma("GCC ivdep")
#else
#define FOAM_IVDEP
#endif

/// cell(i) for i in [lo, hi). Contract (which lets the loop vectorize
/// without alias checks): cell(i) writes column i only, and nothing it
/// writes is read at another column in the same sweep.
template <typename Cell>
inline void sweep_cells(int lo, int hi, Cell&& cell) {
FOAM_IVDEP
  for (int i = lo; i < hi; ++i) cell(i);
}

/// cell(i, iw, ie) for the columns [lo, hi) of a periodic row of nx, iw/ie
/// being i's west/east neighbours. The two end columns, whose neighbours
/// may wrap, are peeled off, so the interior runs with iw = i - 1 and
/// ie = i + 1: contiguous, branch-free and vectorizable once cell() is
/// inlined. Same contract as sweep_cells: neighbours are read from arrays
/// the sweep does not write.
template <typename Cell>
[[gnu::flatten]] inline void sweep_row(int lo, int hi, int nx, Cell&& cell) {
  if (lo >= hi) return;
  cell(lo, lo == 0 ? nx - 1 : lo - 1, lo + 1 == nx ? 0 : lo + 1);
FOAM_IVDEP
  for (int i = lo + 1; i < hi - 1; ++i) cell(i, i - 1, i + 1);
  if (hi - 1 > lo) cell(hi - 1, hi - 2, hi == nx ? 0 : hi);
}

}  // namespace

OceanModel::MemberScratch::MemberScratch(
    const numerics::PolarFourierFilter& filter, int nx, int nz)
    : filter_ws(filter),
      masks(static_cast<std::size_t>(nx) *
            numerics::PolarFourierFilter::kLanes),
      acc_stride(static_cast<std::size_t>(nx) + 1),
      accs(kAccs * acc_stride),
      la(static_cast<std::size_t>(nz)),
      lb(la.size()),
      lc(la.size()),
      cp(la.size()),
      den(la.size()),
      rhs(2 * la.size()),
      tcol(la.size()),
      scol(la.size()) {}

void OceanModel::set_team(par::Team* team) {
  team_ = team;
  const std::size_t members =
      team != nullptr ? static_cast<std::size_t>(team->size()) : 1;
  while (scratch_.size() < members)
    scratch_.emplace_back(filter_, cfg_.nx, cfg_.nz);
}

template <typename Body>
void OceanModel::bands(int lo, int hi, Body&& body) {
  par::for_chunks(team_, hi - lo, [&](int m, int a, int b) {
    body(m, lo + a, lo + b);
  });
}

template <typename Body>
void OceanModel::ext_columns(Body&& body) const {
  body(i0_, i1_);
  if (ext_w_ >= 0) body(ext_w_, ext_w_ + 1);
  if (ext_e_ >= 0) body(ext_e_, ext_e_ + 1);
}

OceanModel::OceanModel(const OceanConfig& cfg,
                       const numerics::MercatorGrid& grid,
                       const Field2Dd& bathymetry, par::Comm* comm, int px)
    : cfg_(cfg),
      grid_(grid),
      comm_(comm),
      vgrid_(cfg.nz, cfg.dz_top, cfg.total_depth),
      levels_(column_levels(vgrid_, bathymetry)),
      mask2d_(cfg.nx, cfg.ny, 0),
      depth_(cfg.nx, cfg.ny, 0.0),
      filter_(grid, cfg.filter_lat),
      scratch_(1, MemberScratch(filter_, cfg.nx, cfg.nz)),
      decomp_(make_ocean_decomp(cfg, comm, px)),
      up_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      vp_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      up_prev_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      vp_prev_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      t_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      s_(cfg.nx, cfg.ny, cfg.nz, cfg.s_ref),
      eta_(cfg.nx, cfg.ny, 0.0),
      ub_(cfg.nx, cfg.ny, 0.0),
      vb_(cfg.nx, cfg.ny, 0.0),
      rho_(cfg.nx, cfg.ny, cfg.nz, cfg.rho0),
      pbc_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      nu_(cfg.nx, cfg.ny, cfg.nz, cfg.nu_b),
      kappa_(cfg.nx, cfg.ny, cfg.nz, cfg.kappa_b),
      gx_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      gy_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      wtop_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      fbar_x_(cfg.nx, cfg.ny, 0.0),
      fbar_y_(cfg.nx, cfg.ny, 0.0),
      u_new_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      v_new_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      lap_(cfg.nx, cfg.ny, 0.0),
      div_(cfg.nx, cfg.ny, 0.0),
      baro_fx_(cfg.nx, cfg.ny, 0.0),
      baro_fy_(cfg.nx, cfg.ny, 0.0),
      taux_(cfg.nx, cfg.ny, 0.0),
      tauy_(cfg.nx, cfg.ny, 0.0),
      qnet_(cfg.nx, cfg.ny, 0.0),
      fw_(cfg.nx, cfg.ny, 0.0),
      ice_(cfg.nx, cfg.ny, 0.0),
      frazil_cell_(cfg.nx, cfg.ny, 0.0) {
  FOAM_REQUIRE(grid.nlon() == cfg.nx && grid.nlat() == cfg.ny,
               "grid " << grid.nlon() << "x" << grid.nlat() << " vs config "
                       << cfg.nx << "x" << cfg.ny);
  FOAM_REQUIRE(bathymetry.nx() == cfg.nx && bathymetry.ny() == cfg.ny,
               "bathymetry shape");
  FOAM_REQUIRE(
      cfg.dt_mom > 0.0 && cfg.nsub_baro >= 1 && cfg.tracer_every >= 1,
      "ocean time stepping config");
  // Bury the artificial north/south domain walls in land: wall-adjacent
  // open water develops spurious wall-trapped modes on the A-grid (the
  // paper's hand-tuned topography closes its grid boundaries too).
  for (int i = 0; i < cfg_.nx; ++i) {
    levels_(i, 0) = 0;
    levels_(i, 1) = 0;
    levels_(i, cfg_.ny - 1) = 0;
    levels_(i, cfg_.ny - 2) = 0;
  }
  row_levels_.assign(static_cast<std::size_t>(cfg_.ny), 0);
  for (int j = 0; j < cfg_.ny; ++j) {
    for (int i = 0; i < cfg_.nx; ++i) {
      const int lev = levels_(i, j);
      mask2d_(i, j) = lev > 0 ? 1 : 0;
      double h = 0.0;
      for (int k = 0; k < lev; ++k) h += vgrid_.dz(k);
      depth_(i, j) = h;
      row_levels_[j] = std::max(row_levels_[j], lev);
    }
  }
  dry_row_.assign(static_cast<std::size_t>(cfg_.nx), 0);
  vdiff_up_.assign(static_cast<std::size_t>(cfg_.nz), 0.0);
  vdiff_dn_.assign(static_cast<std::size_t>(cfg_.nz), 0.0);
  for (int k = 0; k < cfg_.nz; ++k) {
    const double dzk = vgrid_.dz(k);
    if (k > 0) vdiff_up_[k] = dzk * (0.5 * (vgrid_.dz(k - 1) + dzk));
    if (k + 1 < cfg_.nz) vdiff_dn_[k] = dzk * (0.5 * (dzk + vgrid_.dz(k + 1)));
  }
  const int rank = comm_ != nullptr ? comm_->rank() : 0;
  pi_ = decomp_.pi_of(rank);
  pj_ = decomp_.pj_of(rank);
  const par::Range yr = decomp_.y_range(pj_);
  const par::Range xr = decomp_.x_range(pi_);
  j0_ = yr.lo;
  j1_ = yr.hi;
  i0_ = xr.lo;
  i1_ = xr.hi;
  // Columns visited by extended-range loops: with px == 1 every column is
  // owned; otherwise the wrapped halo column on each side joins in.
  if (decomp_.px() > 1) {
    ext_w_ = (i0_ - 1 + cfg_.nx) % cfg_.nx;
    ext_e_ = i1_ % cfg_.nx;
  }
  for (int j = j0_; j < j1_; ++j)
    if (filter_.is_polar_row(j)) polar_rows_.push_back(j);
  // The polar filter needs whole zonal rows: build a communicator over the
  // ranks sharing this process row (collective over comm_, so every rank
  // takes this branch or none do).
  if (comm_ != nullptr && decomp_.px() > 1)
    row_comm_ = comm_->split(pj_, pi_);
  // External gravity-wave CFL sanity check.
  const double c_ext =
      std::sqrt(gravity * cfg_.total_depth / cfg_.slow_factor);
  double dx_min = grid_.dx(0);
  for (int j = 0; j < cfg_.ny; ++j) dx_min = std::min(dx_min, grid_.dx(j));
  const double dt_wave =
      cfg_.split_barotropic ? cfg_.dt_mom / cfg_.nsub_baro : cfg_.dt_mom;
  FOAM_REQUIRE(dt_wave * c_ext * 1.5 < dx_min,
               "external wave CFL violated: dt_wave="
                   << dt_wave << "s, c=" << c_ext << " m/s, dx_min="
                   << dx_min << " m");
}

void OceanModel::init_climatology() {
  for (int j = 0; j < cfg_.ny; ++j) {
    const double lat_deg = grid_.lat(j) / deg2rad;
    const double tsurf =
        std::max(sea_ice_freeze_c,
                 -2.0 + 30.0 * std::exp(-std::pow(lat_deg / 32.0, 2.0)));
    for (int i = 0; i < cfg_.nx; ++i) {
      for (int k = 0; k < cfg_.nz; ++k) {
        const double z = vgrid_.z_center(k);
        // Deep water near 0.5 C with a weak stable abyssal gradient (an
        // exactly neutral abyss lets advection noise churn unopposed);
        // surface-intensified thermocline. The salinity term keeps polar
        // columns (cold fresh over warmer salty) statically stable.
        t_(i, j, k) = 0.5 + 0.6 * (1.0 - z / cfg_.total_depth) +
                      (tsurf - 1.1) * std::exp(-z / 900.0);
        s_(i, j, k) = cfg_.s_ref + 1.2 * std::exp(-z / 500.0) *
                                       std::cos(2.0 * grid_.lat(j));
      }
    }
  }
  up_.fill(0.0);
  vp_.fill(0.0);
  ub_.fill(0.0);
  vb_.fill(0.0);
  eta_.fill(0.0);
  steps_ = 0;
  init_thermal_wind();
  up_prev_ = up_;
  vp_prev_ = vp_;
  have_mom_prev_ = false;
}

void OceanModel::init_thermal_wind() {
  // Start the baroclinic velocities in geostrophic balance with the initial
  // density field so the model does not open with a basin-scale adjustment
  // shock. The Coriolis parameter is floored at its 5-degree value; the
  // equatorial strip starts slightly unbalanced but bounded.
  const int save_lo = j0_, save_hi = j1_;
  const int save_ilo = i0_, save_ihi = i1_;
  const int save_ext_w = ext_w_, save_ext_e = ext_e_;
  j0_ = 0;
  j1_ = cfg_.ny;  // initialization is rank-replicated over the full domain
  i0_ = 0;
  i1_ = cfg_.nx;
  ext_w_ = ext_e_ = -1;
  density();
  baroclinic_pressure();
  pressure_forces();
  const double f_floor = 2.0 * earth_omega * std::sin(5.0 * deg2rad);
  for (int j = 0; j < cfg_.ny; ++j) {
    double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
    if (std::abs(f) < f_floor) f = (f >= 0.0 ? f_floor : -f_floor);
    for (int i = 0; i < cfg_.nx; ++i) {
      const int lev = levels_(i, j);
      if (lev == 0) continue;
      for (int k = 0; k < lev; ++k) {
        up_(i, j, k) = (gy_(i, j, k) - fbar_y_(i, j)) / f;
        vp_(i, j, k) = -(gx_(i, j, k) - fbar_x_(i, j)) / f;
      }
    }
  }
  enforce_zero_depth_mean();
  j0_ = save_lo;
  j1_ = save_hi;
  i0_ = save_ilo;
  i1_ = save_ihi;
  ext_w_ = save_ext_w;
  ext_e_ = save_ext_e;
}

void OceanModel::set_forcing(const OceanForcing& f) {
  // Validate every supplied field before copying any: a malformed bundle
  // must not leave the model half-updated.
  FOAM_REQUIRE((f.wind_x == nullptr) == (f.wind_y == nullptr),
               "wind stress components must be supplied together");
  auto check = [&](const Field2Dd* p, const char* what) {
    if (p != nullptr)
      FOAM_REQUIRE(p->nx() == cfg_.nx && p->ny() == cfg_.ny,
                   what << " shape " << p->nx() << "x" << p->ny() << " vs "
                        << cfg_.nx << "x" << cfg_.ny);
  };
  check(f.wind_x, "wind_x");
  check(f.wind_y, "wind_y");
  check(f.heat, "heat");
  check(f.freshwater, "freshwater");
  check(f.ice, "ice");
  if (f.wind_x != nullptr) taux_ = *f.wind_x;
  if (f.wind_y != nullptr) tauy_ = *f.wind_y;
  if (f.heat != nullptr) qnet_ = *f.heat;
  if (f.freshwater != nullptr) fw_ = *f.freshwater;
  if (f.ice != nullptr) ice_ = *f.ice;
}

// Two-phase halo exchange: rows first (open walls, owned columns), then
// periodic columns over the *extended* row range. Because x-neighbours
// share a process row (identical j-range), their extended ranges line up,
// and the column phase forwards values received in the row phase — so the
// four corner cells of the halo ring arrive consistent without dedicated
// diagonal messages. All transfers use nonblocking isend/irecv with a
// waitall barrier between the phases.
namespace {

/// Runs one exchange phase: posts the irecvs, packs and posts the isends,
/// waits, then unpacks. lo/hi are the two neighbour ranks (-1 = absent);
/// tag_to_lo/tag_to_hi name the tags of the messages travelling toward
/// them. pack/unpack copy `count` doubles for one side (side 0 = lo-ward
/// boundary, side 1 = hi-ward boundary).
template <typename Pack, typename Unpack>
void exchange_phase(par::Comm& comm, int lo, int hi, int tag_to_lo,
                    int tag_to_hi, std::size_t count, Pack&& pack,
                    Unpack&& unpack) {
  // The freshly packed boundary strips are handed to the runtime by
  // ownership (isend_move): the neighbour's irecv_vec moves the same buffer
  // in, so a halo strip never crosses a memcpy.
  std::vector<double> send_lo, send_hi, recv_lo, recv_hi;
  std::array<par::Request, 4> reqs;
  std::size_t nreq = 0;
  if (lo >= 0) reqs[nreq++] = comm.irecv_vec(lo, tag_to_hi, recv_lo);
  if (hi >= 0) reqs[nreq++] = comm.irecv_vec(hi, tag_to_lo, recv_hi);
  if (lo >= 0) {
    send_lo.resize(count);
    pack(0, send_lo);
    reqs[nreq++] = comm.isend_move(lo, tag_to_lo, std::move(send_lo));
  }
  if (hi >= 0) {
    send_hi.resize(count);
    pack(1, send_hi);
    reqs[nreq++] = comm.isend_move(hi, tag_to_hi, std::move(send_hi));
  }
  comm.waitall(std::span<par::Request>(reqs.data(), nreq));
  if (lo >= 0) unpack(0, recv_lo);
  if (hi >= 0) unpack(1, recv_hi);
}

}  // namespace

void OceanModel::exchange_halo(Field2Dd& f) {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int rank = comm_->rank();
  const int nx = cfg_.nx;
  // Phase 1: rows, over owned columns.
  exchange_phase(
      *comm_, decomp_.south_of(rank), decomp_.north_of(rank), kTagSouth,
      kTagNorth, static_cast<std::size_t>(i1_ - i0_),
      [&](int side, std::vector<double>& buf) {
        const int j = side == 0 ? j0_ : j1_ - 1;
        for (int i = i0_; i < i1_; ++i) buf[i - i0_] = f(i, j);
      },
      [&](int side, const std::vector<double>& buf) {
        const int j = side == 0 ? j0_ - 1 : j1_;
        for (int i = i0_; i < i1_; ++i) f(i, j) = buf[i - i0_];
      });
  if (decomp_.px() == 1) return;
  // Phase 2: periodic columns, over the extended row range (the halo rows
  // just received are forwarded, making the corners consistent).
  const int jlo = std::max(0, j0_ - 1);
  const int jhi = std::min(cfg_.ny, j1_ + 1);
  const int iw = (i0_ - 1 + nx) % nx;
  const int ie = i1_ % nx;
  exchange_phase(
      *comm_, decomp_.west_of(rank), decomp_.east_of(rank), kTagWest,
      kTagEast, static_cast<std::size_t>(jhi - jlo),
      [&](int side, std::vector<double>& buf) {
        const int i = side == 0 ? i0_ : i1_ - 1;
        for (int j = jlo; j < jhi; ++j) buf[j - jlo] = f(i, j);
      },
      [&](int side, const std::vector<double>& buf) {
        const int i = side == 0 ? iw : ie;
        for (int j = jlo; j < jhi; ++j) f(i, j) = buf[j - jlo];
      });
}

void OceanModel::exchange_halo(Field3Dd& f) {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int rank = comm_->rank();
  const int nx = cfg_.nx;
  const int nz = cfg_.nz;
  const std::size_t xcnt = static_cast<std::size_t>(i1_ - i0_);
  exchange_phase(
      *comm_, decomp_.south_of(rank), decomp_.north_of(rank), kTagSouth,
      kTagNorth, xcnt * nz,
      [&](int side, std::vector<double>& buf) {
        const int j = side == 0 ? j0_ : j1_ - 1;
        for (int k = 0; k < nz; ++k)
          for (int i = i0_; i < i1_; ++i)
            buf[static_cast<std::size_t>(k) * xcnt + (i - i0_)] = f(i, j, k);
      },
      [&](int side, const std::vector<double>& buf) {
        const int j = side == 0 ? j0_ - 1 : j1_;
        for (int k = 0; k < nz; ++k)
          for (int i = i0_; i < i1_; ++i)
            f(i, j, k) = buf[static_cast<std::size_t>(k) * xcnt + (i - i0_)];
      });
  if (decomp_.px() == 1) return;
  const int jlo = std::max(0, j0_ - 1);
  const int jhi = std::min(cfg_.ny, j1_ + 1);
  const std::size_t ycnt = static_cast<std::size_t>(jhi - jlo);
  const int iw = (i0_ - 1 + nx) % nx;
  const int ie = i1_ % nx;
  exchange_phase(
      *comm_, decomp_.west_of(rank), decomp_.east_of(rank), kTagWest,
      kTagEast, ycnt * nz,
      [&](int side, std::vector<double>& buf) {
        const int i = side == 0 ? i0_ : i1_ - 1;
        for (int k = 0; k < nz; ++k)
          for (int j = jlo; j < jhi; ++j)
            buf[static_cast<std::size_t>(k) * ycnt + (j - jlo)] = f(i, j, k);
      },
      [&](int side, const std::vector<double>& buf) {
        const int i = side == 0 ? iw : ie;
        for (int k = 0; k < nz; ++k)
          for (int j = jlo; j < jhi; ++j)
            f(i, j, k) = buf[static_cast<std::size_t>(k) * ycnt + (j - jlo)];
      });
}

void OceanModel::density() {
  const int lo = std::max(0, j0_ - 1);
  const int hi = std::min(cfg_.ny, j1_ + 1);
  const double rho0 = cfg_.rho0, alpha = cfg_.alpha_t, beta = cfg_.beta_s;
  const double t_ref = cfg_.t_ref, s_ref = cfg_.s_ref;
  bands(lo, hi, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      for (int k = 0; k < row_levels_[j]; ++k) {
        const double* t = row_of(t_, j, k);
        const double* s = row_of(s_, j, k);
        double* rho = row_of(rho_, j, k);
        ext_columns([&](int a, int b) {
          sweep_cells(a, b, [&](int i) {
            const double r = rho0 * (1.0 - alpha * (t[i] - t_ref) +
                                     beta * (s[i] - s_ref));
            rho[i] = select(k < lev[i], r, rho[i]);
          });
        });
      }
    }
  });
}

void OceanModel::baroclinic_pressure() {
  const int lo = std::max(0, j0_ - 1);
  const int hi = std::min(cfg_.ny, j1_ + 1);
  const double rho0 = cfg_.rho0;
  bands(lo, hi, [&](int m, int jlo, int jhi) {
    // Per-column running pressure and the density anomaly of the level
    // above, summed down the column level by level.
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* p = sc.acc(0);
    double* above = sc.acc(1);
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      for (int k = 0; k < row_levels_[j]; ++k) {
        const double* rho = row_of(rho_, j, k);
        double* pbc = row_of(pbc_, j, k);
        const double dzk = vgrid_.dz(k);
        const double dzm = k > 0 ? vgrid_.dz(k - 1) : 0.0;
        ext_columns([&](int a, int b) {
          if (k == 0) {
            sweep_cells(a, b, [&](int i) {
              const double rp = rho[i] - rho0;
              p[i] = gravity * rp * 0.5 * dzk;
              above[i] = rp;
              pbc[i] = select(0 < lev[i], p[i], pbc[i]);
            });
          } else {
            sweep_cells(a, b, [&](int i) {
              const double rp = rho[i] - rho0;
              p[i] += gravity * 0.5 * (above[i] * dzm + rp * dzk);
              above[i] = rp;
              pbc[i] = select(k < lev[i], p[i], pbc[i]);
            });
          }
        });
      }
    }
  });
}

void OceanModel::pressure_forces() {
  const int nx = cfg_.nx;
  const bool pg = cfg_.enable_baroclinic_pg;
  const double rho0 = cfg_.rho0;
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* sx = sc.acc(0);
    double* sy = sc.acc(1);
    for (int j = jlo; j < jhi; ++j) {
      const double inv2dx = 1.0 / (2.0 * dx(j));
      const double inv2dy = 1.0 / (2.0 * dy(j));
      const int* lev = lev_row(j);
      const int* lev_n = lev_row(j + 1);
      const int* lev_s = lev_row(j - 1);
      const int jn = north(j);
      const int js = south(j);
      std::fill(sx + i0_, sx + i1_, 0.0);
      std::fill(sy + i0_, sy + i1_, 0.0);
      for (int k = 0; k < row_levels_[j]; ++k) {
        const double dzk = vgrid_.dz(k);
        const double* pc = row_of(pbc_, j, k);
        const double* pn = row_of(pbc_, jn, k);
        const double* ps = row_of(pbc_, js, k);
        double* gx = row_of(gx_, j, k);
        double* gy = row_of(gy_, j, k);
        sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
          // Ghost-mirror closure at walls (a dry neighbour mirrors the
          // centre pressure): wall columns still feel pressure restoring, at
          // half the centred magnitude.
          const double c = pc[i];
          const double e = select(k < lev[ie], pc[ie], c);
          const double w = select(k < lev[iw], pc[iw], c);
          const double n = select(k < lev_n[i], pn[i], c);
          const double s = select(k < lev_s[i], ps[i], c);
          const double fx = select(pg, -(e - w) * inv2dx / rho0, 0.0);
          const double fy = select(pg, -(n - s) * inv2dy / rho0, 0.0);
          const bool wet = k < lev[i];
          gx[i] = select(wet, fx, gx[i]);
          gy[i] = select(wet, fy, gy[i]);
          sx[i] = select(wet, sx[i] + fx * dzk, sx[i]);
          sy[i] = select(wet, sy[i] + fy * dzk, sy[i]);
        });
      }
      // The column depth is the same k-ascending sum of dz as depth_.
      const double* h = &depth_(0, j);
      double* fbx = &fbar_x_(0, j);
      double* fby = &fbar_y_(0, j);
      sweep_cells(i0_, i1_, [&](int i) {
        fbx[i] = select(h[i] > 0.0, sx[i] / h[i], 0.0);
        fby[i] = select(h[i] > 0.0, sy[i] / h[i], 0.0);
      });
    }
  });
}

void OceanModel::implicit_vertical(Field3Dd& fa, Field3Dd& fb,
                                   const Field3Dd& coeff, double dt) {
  const std::size_t plane =
      static_cast<std::size_t>(cfg_.nx) * static_cast<std::size_t>(cfg_.ny);
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* a = sc.la.data();
    double* b = sc.lb.data();
    double* c = sc.lc.data();
    double* x = sc.rhs.data();
    for (int j = jlo; j < jhi; ++j) {
      const int* lev_j = lev_row(j);
      for (int i = i0_; i < i1_; ++i) {
        const int lev = lev_j[i];
        if (lev < 2) continue;
        const std::size_t at = static_cast<std::size_t>(j) * cfg_.nx + i;
        const double* kc = coeff.data() + at;
        double* pa = fa.data() + at;
        double* pb = fb.data() + at;
        for (int k = 0; k < lev; ++k) {
          double bk = 1.0;
          a[k] = 0.0;
          c[k] = 0.0;
          if (k > 0) {
            const double r = dt * kc[k * plane] / vdiff_up_[k];
            a[k] = -r;
            bk += r;
          }
          if (k < lev - 1) {
            const double r = dt * kc[(k + 1) * plane] / vdiff_dn_[k];
            c[k] = -r;
            bk += r;
          }
          b[k] = bk;
          x[2 * k] = pa[k * plane];
          x[2 * k + 1] = pb[k * plane];
        }
        numerics::tridiag_factor(a, b, c, lev, sc.cp.data(), sc.den.data());
        numerics::tridiag_solve2(a, sc.cp.data(), sc.den.data(), lev, x);
        for (int k = 0; k < lev; ++k) {
          pa[k * plane] = x[2 * k];
          pb[k * plane] = x[2 * k + 1];
        }
      }
    }
  });
}

void OceanModel::internal_momentum_step() {
  const double dt = cfg_.dt_mom;
  const double dt2 = have_mom_prev_ ? 2.0 * dt : dt;  // leapfrog / bootstrap
  const int nx = cfg_.nx;

  density();
  baroclinic_pressure();
  pressure_forces();  // gx_, gy_ at time n

  // Lateral friction (Laplacian, no-slip walls) and del^4 dissipation,
  // evaluated at the previous time level (lagged friction keeps leapfrog
  // stable). Divergence damping likewise. A row with no wet cell at level
  // k is skipped; what it would read or write there is never used.
  for (int pass = 0; pass < 2; ++pass) {
    const Field3Dd& vel_prev = (pass == 0) ? up_prev_ : vp_prev_;
    Field3Dd& tend = (pass == 0) ? gx_ : gy_;
    for (int k = 0; k < cfg_.nz; ++k) {
      // No-slip Laplacian: a land neighbour contributes zero velocity so
      // boundary currents feel sidewall friction. Computed on the owned
      // box; the halo ring arrives by exchange below.
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          double* lap = &lap_(0, j);
          if (k >= row_levels_[j]) {
            std::fill(lap + i0_, lap + i1_, 0.0);
            continue;
          }
          const double ix2 = 1.0 / (dx(j) * dx(j));
          const double iy2 = 1.0 / (dy(j) * dy(j));
          const int* lev = lev_row(j);
          const int* lev_n = lev_row(j + 1);
          const int* lev_s = lev_row(j - 1);
          const double* vc = row_of(vel_prev, j, k);
          const double* vn = row_of(vel_prev, north(j), k);
          const double* vs = row_of(vel_prev, south(j), k);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const double c = vc[i];
            const double e = select(k < lev[ie], vc[ie], 0.0);
            const double w2 = select(k < lev[iw], vc[iw], 0.0);
            const double n2 = select(k < lev_n[i], vn[i], 0.0);
            const double s2 = select(k < lev_s[i], vs[i], 0.0);
            const double l =
                (e - 2.0 * c + w2) * ix2 + (n2 - 2.0 * c + s2) * iy2;
            lap[i] = select(k < lev[i], l, 0.0);
          });
        }
      });
      exchange_halo(lap_);
      // The no-flux Laplacian of lap_ is read at its own cell only, so each
      // row computes and applies it in one sweep.
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          if (k >= row_levels_[j]) continue;
          const double d = dx(j);
          const double inv_dx2 = 1.0 / (dx(j) * dx(j));
          const double inv_dy2 = 1.0 / (dy(j) * dy(j));
          // Caps keep the explicit (lagged, effective step 2dt) updates
          // monotone on the shrinking polar cells.
          const double cap4 = 0.0025 * d * d * d * d / dt;
          const double a4 = std::min(cfg_.visc4, cap4);
          const double visc_h = cfg_.visc_h;
          const int* lev = lev_row(j);
          const int* lev_n = lev_row(j + 1);
          const int* lev_s = lev_row(j - 1);
          const double* lc = &lap_(0, j);
          const double* ln = &lap_(0, north(j));
          const double* ls = &lap_(0, south(j));
          double* t = row_of(tend, j, k);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const double fc = lc[i];
            const double fe = select(k < lev[ie], lc[ie], fc);
            const double fw = select(k < lev[iw], lc[iw], fc);
            const double fn = select(k < lev_n[i], ln[i], fc);
            const double fs = select(k < lev_s[i], ls[i], fc);
            const double lap2 = (fe - 2.0 * fc + fw) * inv_dx2 +
                                (fn - 2.0 * fc + fs) * inv_dy2;
            const double v = t[i] + (visc_h * fc - a4 * lap2);
            t[i] = select(k < lev[i], v, t[i]);
          });
        }
      });
    }
  }

  // Divergence damping from the previous level.
  if (cfg_.div_damp > 0.0) {
    for (int k = 0; k < cfg_.nz; ++k) {
      // Computed on the owned box; the halo ring arrives by exchange.
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          double* dv = &div_(0, j);
          if (k >= row_levels_[j]) {
            std::fill(dv + i0_, dv + i1_, 0.0);
            continue;
          }
          const double invdx = 1.0 / dx(j);
          const double invdy = 1.0 / dy(j);
          const int* lev = lev_row(j);
          const int* lev_n = lev_row(j + 1);
          const int* lev_s = lev_row(j - 1);
          const double* u = row_of(up_prev_, j, k);
          const double* v = row_of(vp_prev_, j, k);
          const double* vn = row_of(vp_prev_, north(j), k);
          const double* vs = row_of(vp_prev_, south(j), k);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const double ue = select(k < lev[ie], 0.5 * (u[i] + u[ie]), 0.0);
            const double uw = select(k < lev[iw], 0.5 * (u[iw] + u[i]), 0.0);
            const double vnf = select(k < lev_n[i], 0.5 * (v[i] + vn[i]), 0.0);
            const double vsf = select(k < lev_s[i], 0.5 * (vs[i] + v[i]), 0.0);
            const double d = (ue - uw) * invdx + (vnf - vsf) * invdy;
            dv[i] = select(k < lev[i], d, 0.0);
          });
        }
      });
      exchange_halo(div_);
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          if (k >= row_levels_[j]) continue;
          const double inv2dx = 1.0 / (2.0 * dx(j));
          const double inv2dy = 1.0 / (2.0 * dy(j));
          const double cap = 0.05 * dx(j) * dx(j) / dt;
          const double cdd = std::min(cfg_.div_damp, cap);
          const int* lev = lev_row(j);
          const int* lev_n = lev_row(j + 1);
          const int* lev_s = lev_row(j - 1);
          const double* dc = &div_(0, j);
          const double* dnr = &div_(0, north(j));
          const double* dsr = &div_(0, south(j));
          double* gx = row_of(gx_, j, k);
          double* gy = row_of(gy_, j, k);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const double c = dc[i];
            const double de = select(k < lev[ie], dc[ie], c);
            const double dw = select(k < lev[iw], dc[iw], c);
            const double dn = select(k < lev_n[i], dnr[i], c);
            const double ds = select(k < lev_s[i], dsr[i], c);
            const bool wet = k < lev[i];
            const double ax = gx[i] + cdd * (de - dw) * inv2dx;
            const double ay = gy[i] + cdd * (dn - ds) * inv2dy;
            gx[i] = select(wet, ax, gx[i]);
            gy[i] = select(wet, ay, gy[i]);
          });
        }
      });
    }
  }

  // Leapfrog update: new = prev + 2dt * (PG deviation + Coriolis(n) +
  // wind deviation + friction(prev)). u_new_/v_new_ are scratch: only their
  // wet cells are ever read, so dry cells are written without a select.
  const double rho0 = cfg_.rho0;
  const double rayleigh = cfg_.rayleigh;
  const double dz0 = vgrid_.dz(0);
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* ax0 = sc.acc(0);  // surface-layer stress term ax / dz(0)
    double* axh = sc.acc(1);  // depth-mean stress term ax / h
    double* ay0 = sc.acc(2);
    double* ayh = sc.acc(3);
    for (int j = jlo; j < jhi; ++j) {
      const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
      const double* ice = &ice_(0, j);
      const double* tx0 = &taux_(0, j);
      const double* ty0 = &tauy_(0, j);
      const double* h = &depth_(0, j);
      sweep_cells(i0_, i1_, [&](int i) {
        const double ice_scale = 1.0 - ice[i] + ice[i] / ice_stress_divisor;
        const double ax = tx0[i] * ice_scale / rho0;
        const double ay = ty0[i] * ice_scale / rho0;
        ax0[i] = ax / dz0;
        axh[i] = ax / h[i];
        ay0[i] = ay / dz0;
        ayh[i] = ay / h[i];
      });
      const double* fbx = &fbar_x_(0, j);
      const double* fby = &fbar_y_(0, j);
      for (int k = 0; k < row_levels_[j]; ++k) {
        const bool top = k == 0;
        const double* gx = row_of(gx_, j, k);
        const double* gy = row_of(gy_, j, k);
        const double* u = row_of(up_, j, k);
        const double* v = row_of(vp_, j, k);
        const double* up = row_of(up_prev_, j, k);
        const double* vp = row_of(vp_prev_, j, k);
        double* un = row_of(u_new_, j, k);
        double* vn = row_of(v_new_, j, k);
        sweep_cells(i0_, i1_, [&](int i) {
          const double wind_x = select(top, ax0[i], 0.0) - axh[i];
          const double wind_y = select(top, ay0[i], 0.0) - ayh[i];
          const double tx =
              gx[i] - fbx[i] + wind_x + f * v[i] - rayleigh * up[i];
          const double ty =
              gy[i] - fby[i] + wind_y - f * u[i] - rayleigh * vp[i];
          un[i] = up[i] + dt2 * tx;
          vn[i] = vp[i] + dt2 * ty;
        });
      }
    }
  });

  // Implicit vertical viscosity on the new level.
  if (cfg_.enable_vmix) implicit_vertical(u_new_, v_new_, nu_, dt2);

  // Wall-normal damping, deep/bottom drag and the hard safety clamp, in
  // that order for every cell (dry cells of the scratch levels included).
  const double keep = cfg_.wall_normal_retain;
  const double max_bc = cfg_.max_baroclinic;
  const std::size_t plane =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(cfg_.ny);
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      const int* lev_n = lev_row(j + 1);
      const int* lev_s = lev_row(j - 1);
      if (keep < 1.0) {
        for (int k = 0; k < row_levels_[j]; ++k) {
          double* un = row_of(u_new_, j, k);
          double* vn = row_of(v_new_, j, k);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const bool wall_u = (lev[ie] <= k) | (lev[iw] <= k);
            const bool wall_v = (lev_n[i] <= k) | (lev_s[i] <= k);
            un[i] = select(wall_u, un[i] * keep, un[i]);
            vn[i] = select(wall_v, vn[i] * keep, vn[i]);
          });
        }
      }
      // Frictional abyss: the two deepest layers of the *deviation* flow
      // are strongly damped (bottom boundary layer + unresolved topographic
      // form drag); cliff-trapped bottom modes otherwise survive every
      // interior dissipation mechanism. The barotropic mode has its own
      // bottom drag — coupling the two through this term would let a noisy
      // ub manufacture deviation velocity.
      for (int i = i0_; i < i1_; ++i) {
        const std::size_t at = static_cast<std::size_t>(j) * nx + i;
        double* uc = u_new_.data() + at;
        double* vc = v_new_.data() + at;
        for (int kb = std::max(0, lev[i] - 2); kb < lev[i]; ++kb) {
          double& ub = uc[kb * plane];
          double& vb = vc[kb * plane];
          const double speed = std::sqrt(ub * ub + vb * vb);
          const double fac =
              1.0 / (1.0 + dt2 * (cfg_.deep_drag +
                                  2.5e-3 * speed / vgrid_.dz(kb)));
          ub *= fac;
          vb *= fac;
        }
      }
      for (int k = 0; k < row_levels_[j]; ++k) {
        double* un = row_of(u_new_, j, k);
        double* vn = row_of(v_new_, j, k);
        sweep_cells(i0_, i1_, [&](int i) {
          un[i] = clamp_sel(un[i], -max_bc, max_bc);
          vn[i] = clamp_sel(vn[i], -max_bc, max_bc);
        });
      }
    }
  });

  // Robert-Asselin filter on the centre level, then rotate time levels.
  const double eps = cfg_.asselin;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      for (int k = 0; k < row_levels_[j]; ++k) {
        double* u = row_of(up_, j, k);
        double* v = row_of(vp_, j, k);
        double* up = row_of(up_prev_, j, k);
        double* vp = row_of(vp_prev_, j, k);
        const double* un = row_of(u_new_, j, k);
        const double* vn = row_of(v_new_, j, k);
        sweep_cells(i0_, i1_, [&](int i) {
          const bool wet = k < lev[i];
          const double fu = u[i] + eps * (un[i] - 2.0 * u[i] + up[i]);
          const double fv = v[i] + eps * (vn[i] - 2.0 * v[i] + vp[i]);
          up[i] = select(wet, fu, up[i]);
          vp[i] = select(wet, fv, vp[i]);
          u[i] = select(wet, un[i], u[i]);
          v[i] = select(wet, vn[i], v[i]);
        });
      }
    }
  });
  have_mom_prev_ = true;

  enforce_zero_depth_mean();
  // enforce_zero_depth_mean modified ub_/vb_ on owned rows only; refresh
  // their halos before the barotropic subcycle's stencils read them.
  exchange_halo(ub_);
  exchange_halo(vb_);
  apply_polar_filter_3d(up_);
  apply_polar_filter_3d(vp_);
  apply_polar_filter_3d(up_prev_);
  apply_polar_filter_3d(vp_prev_);
  exchange_halo(up_);
  exchange_halo(vp_);
  exchange_halo(up_prev_);
  exchange_halo(vp_prev_);

  double wet_cells = 0.0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) wet_cells += levels_(i, j);
  work_points_ += 4.0 * wet_cells;
}

void OceanModel::enforce_zero_depth_mean() {
  // Fold the depth-mean of the *current* deviation velocities into the
  // barotropic mode so the split stays exact. The previous time level must
  // be de-meaned as well (without a second transfer): a mean left in
  // up_prev_ would be re-injected by the next leapfrog update and pump ub
  // without bound. Each column's sums run k-ascending in per-column
  // accumulators, level by level.
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* su = sc.acc(0);
    double* sv = sc.acc(1);
    double* spu = sc.acc(2);
    double* spv = sc.acc(3);
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      const int kmax = row_levels_[j];
      for (double* a : {su, sv, spu, spv}) std::fill(a + i0_, a + i1_, 0.0);
      for (int k = 0; k < kmax; ++k) {
        const double dzk = vgrid_.dz(k);
        const double* u = row_of(up_, j, k);
        const double* v = row_of(vp_, j, k);
        const double* up = row_of(up_prev_, j, k);
        const double* vp = row_of(vp_prev_, j, k);
        sweep_cells(i0_, i1_, [&](int i) {
          const bool wet = k < lev[i];
          su[i] = select(wet, su[i] + u[i] * dzk, su[i]);
          sv[i] = select(wet, sv[i] + v[i] * dzk, sv[i]);
          spu[i] = select(wet, spu[i] + up[i] * dzk, spu[i]);
          spv[i] = select(wet, spv[i] + vp[i] * dzk, spv[i]);
        });
      }
      // The sums become the means (read only where the column is wet).
      const double* h = &depth_(0, j);
      sweep_cells(i0_, i1_, [&](int i) {
        su[i] = su[i] / h[i];
        sv[i] = sv[i] / h[i];
        spu[i] = spu[i] / h[i];
        spv[i] = spv[i] / h[i];
      });
      for (int k = 0; k < kmax; ++k) {
        double* u = row_of(up_, j, k);
        double* v = row_of(vp_, j, k);
        double* up = row_of(up_prev_, j, k);
        double* vp = row_of(vp_prev_, j, k);
        sweep_cells(i0_, i1_, [&](int i) {
          const bool wet = k < lev[i];
          u[i] = select(wet, u[i] - su[i], u[i]);
          v[i] = select(wet, v[i] - sv[i], v[i]);
          up[i] = select(wet, up[i] - spu[i], up[i]);
          vp[i] = select(wet, vp[i] - spv[i], vp[i]);
        });
      }
      double* ub = &ub_(0, j);
      double* vb = &vb_(0, j);
      sweep_cells(i0_, i1_, [&](int i) {
        const bool wet = 0 < lev[i];
        ub[i] = select(wet, ub[i] + su[i], ub[i]);
        vb[i] = select(wet, vb[i] + sv[i], vb[i]);
      });
    }
  });
}

void OceanModel::index_biharmonic_filter(Field2Dd& f, double eps) {
  const int nx = cfg_.nx;
  // Index-space Laplacian of src along row j: at cell i, the sum of
  // (neighbour - centre) over wet neighbours (e, w, n, s); 0 on land.
  auto index_laplacian = [this](const Field2Dd& src, int j) {
    const int* m = mask_row(j);
    const int* mn = mask_row(j + 1);
    const int* ms = mask_row(j - 1);
    const double* c = &src(0, j);
    const double* n = &src(0, north(j));
    const double* s = &src(0, south(j));
    return [=](int i, int iw, int ie) {
      const double ci = c[i];
      double acc = 0.0;
      acc = select(m[ie] != 0, acc + (c[ie] - ci), acc);
      acc = select(m[iw] != 0, acc + (c[iw] - ci), acc);
      acc = select(mn[i] != 0, acc + (n[i] - ci), acc);
      acc = select(ms[i] != 0, acc + (s[i] - ci), acc);
      return select(m[i] != 0, acc, 0.0);
    };
  };
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      double* lap = &lap_(0, j);
      auto lap_at = index_laplacian(f, j);
      sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
        lap[i] = lap_at(i, iw, ie);
      });
    }
  });
  exchange_halo(lap_);
  // The update reads the second Laplacian at its own cell only: one sweep
  // per row.
  const double scale = eps / 64.0;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const int* m = mask_row(j);
      double* fr = &f(0, j);
      auto lap2_at = index_laplacian(lap_, j);
      sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
        const double v = fr[i] - scale * lap2_at(i, iw, ie);
        fr[i] = select(m[i] != 0, v, fr[i]);
      });
    }
  });
  exchange_halo(f);
}

void OceanModel::barotropic_subcycle() {
  const int nsub = cfg_.split_barotropic ? cfg_.nsub_baro : 1;
  const double dtb = cfg_.dt_mom / nsub;
  const int nx = cfg_.nx;
  const double max_bt = cfg_.max_barotropic;
  const double drag = cfg_.bottom_drag;
  // The forcing the substeps hold constant: depth-mean pressure force plus
  // the surface stress spread over the column.
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const double* ice = &ice_(0, j);
      const double* tx = &taux_(0, j);
      const double* ty = &tauy_(0, j);
      const double* h = &depth_(0, j);
      const double* fbx = &fbar_x_(0, j);
      const double* fby = &fbar_y_(0, j);
      double* gx = &baro_fx_(0, j);
      double* gy = &baro_fy_(0, j);
      sweep_cells(i0_, i1_, [&](int i) {
        const double ice_scale = 1.0 - ice[i] + ice[i] / ice_stress_divisor;
        gx[i] = fbx[i] + tx[i] * ice_scale / (cfg_.rho0 * h[i]);
        gy[i] = fby[i] + ty[i] * ice_scale / (cfg_.rho0 * h[i]);
      });
    }
  });
  for (int sub = 0; sub < nsub; ++sub) {
    // Momentum: symmetric Coriolis rotation around the forcing update.
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j) {
        const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
        const double cs = std::cos(0.5 * f * dtb);
        const double sn = std::sin(0.5 * f * dtb);
        const double inv2dx = 1.0 / (2.0 * dx(j));
        const double inv2dy = 1.0 / (2.0 * dy(j));
        const int* m = mask_row(j);
        const int* mn = mask_row(j + 1);
        const int* ms = mask_row(j - 1);
        const double* ec = &eta_(0, j);
        const double* en = &eta_(0, north(j));
        const double* es = &eta_(0, south(j));
        const double* gx = &baro_fx_(0, j);
        const double* gy = &baro_fy_(0, j);
        double* u = &ub_(0, j);
        double* v = &vb_(0, j);
        sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
          // Ghost-mirror closure at walls for the surface PG.
          const double c = ec[i];
          const double ee = select(m[ie] != 0, ec[ie], c);
          const double ew = select(m[iw] != 0, ec[iw], c);
          const double detadx = (ee - ew) * inv2dx;
          const double enn = select(mn[i] != 0, en[i], c);
          const double ess = select(ms[i] != 0, es[i], c);
          const double detady = (enn - ess) * inv2dy;
          const double gxb = gx[i] - gravity * detadx;
          const double gyb = gy[i] - gravity * detady;
          const double u_old = u[i];
          const double v_old = v[i];
          double u1 = cs * u_old + sn * v_old;
          double v1 = -sn * u_old + cs * v_old;
          u1 += dtb * (gxb - drag * u_old);
          v1 += dtb * (gyb - drag * v_old);
          const double un = clamp_sel(cs * u1 + sn * v1, -max_bt, max_bt);
          const double vn = clamp_sel(-sn * u1 + cs * v1, -max_bt, max_bt);
          u[i] = select(m[i] != 0, un, u_old);
          v[i] = select(m[i] != 0, vn, v_old);
        });
      }
    });
    // The momentum update touched owned rows only; refresh halos before
    // any stencil (the index filter, continuity) reads neighbours.
    exchange_halo(ub_);
    exchange_halo(vb_);
    // Wall-normal damping for the barotropic velocities (their wall flux is
    // already zero; the velocity itself must not ring).
    if (cfg_.wall_normal_retain < 1.0) {
      const double keep = cfg_.wall_normal_retain;
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          const int* m = mask_row(j);
          const int* mn = mask_row(j + 1);
          const int* ms = mask_row(j - 1);
          double* u = &ub_(0, j);
          double* v = &vb_(0, j);
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const bool wet = m[i] != 0;
            const bool wall_u = (m[ie] == 0) | (m[iw] == 0);
            const bool wall_v = (mn[i] == 0) | (ms[i] == 0);
            u[i] = select(wet & wall_u, u[i] * keep, u[i]);
            v[i] = select(wet & wall_v, v[i] * keep, v[i]);
          });
        }
      });
    }
    exchange_halo(ub_);
    exchange_halo(vb_);
    if (cfg_.baro_filter_eps > 0.0) {
      index_biharmonic_filter(ub_, cfg_.baro_filter_eps);
      index_biharmonic_filter(vb_, cfg_.baro_filter_eps);
    }
    // Continuity, slowed by 1/slow_factor: the external wave speed drops by
    // sqrt(slow_factor) while steady circulation is untouched (the Tobis
    // slowed-barotropic scheme).
    bands(j0_, j1_, [&](int mb, int jlo, int jhi) {
      // Zonal face fluxes: face q lies between columns i0 - 1 + q and
      // i0 + q (wrapped), so each is computed once for both its cells.
      double* face = scratch_[static_cast<std::size_t>(mb)].acc(0);
      for (int j = jlo; j < jhi; ++j) {
        const double invdx = 1.0 / dx(j);
        const double invdy = 1.0 / dy(j);
        const int* m = mask_row(j);
        const int* mn = mask_row(j + 1);
        const int* ms = mask_row(j - 1);
        const int jn = north(j);
        const int js = south(j);
        const double* h = &depth_(0, j);
        const double* hn = &depth_(0, jn);
        const double* hs = &depth_(0, js);
        const double* u = &ub_(0, j);
        const double* v = &vb_(0, j);
        const double* vn = &vb_(0, jn);
        const double* vs = &vb_(0, js);
        const double* fw = &fw_(0, j);
        double* eta = &eta_(0, j);
        auto flux_x = [&](int ia, int ib) {
          const double hf = std::min(h[ia], h[ib]);
          const double fl = hf * 0.5 * (u[ia] + u[ib]);
          return select((m[ia] == 0) | (m[ib] == 0), 0.0, fl);
        };
        const int nc = i1_ - i0_;
        face[0] = flux_x(i0_ == 0 ? nx - 1 : i0_ - 1, i0_);
FOAM_IVDEP
        for (int q = 1; q < nc; ++q) face[q] = flux_x(i0_ + q - 1, i0_ + q);
        face[nc] = flux_x(i1_ - 1, i1_ == nx ? 0 : i1_);
        sweep_cells(i0_, i1_, [&](int i) {
          const double fe = face[i - i0_ + 1];
          const double fwst = face[i - i0_];
          const double hfn = std::min(h[i], hn[i]);
          const double fn = select(mn[i] != 0, hfn * 0.5 * (v[i] + vn[i]), 0.0);
          const double hfs = std::min(h[i], hs[i]);
          const double fs = select(ms[i] != 0, hfs * 0.5 * (v[i] + vs[i]), 0.0);
          const double div = (fe - fwst) * invdx + (fn - fs) * invdy;
          const double e = eta[i] + dtb * (-div / cfg_.slow_factor + fw[i]);
          eta[i] = select(m[i] != 0, e, eta[i]);
        });
      }
    });
    apply_polar_filter_2d(eta_);
    exchange_halo(eta_);
    if (cfg_.baro_filter_eps > 0.0)
      index_biharmonic_filter(eta_, 0.5 * cfg_.baro_filter_eps);
    double cells = 0.0;
    for (int j = j0_; j < j1_; ++j)
      for (int i = i0_; i < i1_; ++i) cells += mask2d_(i, j);
    work_points_ += 2.0 * cells;
  }
}

void OceanModel::vertical_mixing_coefficients() {
  // Pacanowski-Philander (1981) Richardson-dependent mixing with the
  // steeper exponent of Peters, Gregg & Toole that improved the model's
  // west-equatorial-Pacific cold bias (paper §4.2). std::pow keeps this a
  // per-cell loop; it runs level by level over contiguous rows.
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const int* lev = lev_row(j);
      for (int k = 1; k < row_levels_[j]; ++k) {
        const double dzi = 0.5 * (vgrid_.dz(k - 1) + vgrid_.dz(k));
        const double* ua = row_of(up_, j, k - 1);
        const double* ub = row_of(up_, j, k);
        const double* va = row_of(vp_, j, k - 1);
        const double* vb = row_of(vp_, j, k);
        const double* ra = row_of(rho_, j, k - 1);
        const double* rb = row_of(rho_, j, k);
        double* nu = row_of(nu_, j, k);
        double* kappa = row_of(kappa_, j, k);
        for (int i = i0_; i < i1_; ++i) {
          if (k >= lev[i]) continue;
          const double du = ua[i] - ub[i];
          const double dv = va[i] - vb[i];
          const double shear2 = (du * du + dv * dv) / (dzi * dzi) + 1.0e-10;
          const double n2 =
              -gravity * (ra[i] - rb[i]) / (cfg_.rho0 * dzi);
          const double ri = std::max(0.0, n2 / shear2);
          const double denom = std::pow(1.0 + 5.0 * ri, cfg_.ri_exponent);
          nu[i] = cfg_.nu0 / denom + cfg_.nu_b;
          kappa[i] = (cfg_.nu0 / denom) / (1.0 + 5.0 * ri) + cfg_.kappa_b;
        }
      }
    }
  });
}

void OceanModel::convective_adjustment() {
  if (!cfg_.enable_convect) return;
  // Full-column pairwise mixing sweep: statically unstable neighbours are
  // homogenized (volume-weighted), repeated until stable. Per column (a
  // level-major form keeps sweeping a row until its slowest column
  // settles), on a contiguous copy of the column.
  const double alpha = cfg_.alpha_t, beta = cfg_.beta_s;
  const std::size_t plane =
      static_cast<std::size_t>(cfg_.nx) * static_cast<std::size_t>(cfg_.ny);
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* tc = sc.tcol.data();
    double* sc_ = sc.scol.data();
    for (int j = jlo; j < jhi; ++j) {
      const int* lev_j = lev_row(j);
      for (int i = i0_; i < i1_; ++i) {
        const int lev = lev_j[i];
        if (lev < 2) continue;
        const std::size_t at = static_cast<std::size_t>(j) * cfg_.nx + i;
        double* tt = t_.data() + at;
        double* ss = s_.data() + at;
        for (int k = 0; k < lev; ++k) {
          tc[k] = tt[k * plane];
          sc_[k] = ss[k * plane];
        }
        bool changed = false;
        for (int pass = 0; pass < lev; ++pass) {
          bool mixed = false;
          // Pair k's r_dn is pair k+1's r_up unless pair k mixed.
          double r_up = -alpha * tc[0] + beta * sc_[0];
          for (int k = 0; k < lev - 1; ++k) {
            const double r_dn = -alpha * tc[k + 1] + beta * sc_[k + 1];
            if (r_up > r_dn + 1e-12) {  // denser above lighter: mix
              const double w1 = vgrid_.dz(k);
              const double w2 = vgrid_.dz(k + 1);
              const double tm = (tc[k] * w1 + tc[k + 1] * w2) / (w1 + w2);
              const double sm = (sc_[k] * w1 + sc_[k + 1] * w2) / (w1 + w2);
              tc[k] = tm;
              tc[k + 1] = tm;
              sc_[k] = sm;
              sc_[k + 1] = sm;
              mixed = true;
              r_up = -alpha * tm + beta * sm;
            } else {
              r_up = r_dn;
            }
          }
          if (!mixed) break;
          changed = true;
        }
        if (!changed) continue;
        for (int k = 0; k < lev; ++k) {
          tt[k * plane] = tc[k];
          ss[k * plane] = sc_[k];
        }
      }
    }
  });
}

void OceanModel::diagnose_w() {
  const int nx = cfg_.nx;
  const double w_clamp = cfg_.w_clamp;
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    double* w = scratch_[static_cast<std::size_t>(m)].acc(0);
    for (int j = jlo; j < jhi; ++j) {
      const double invdx = 1.0 / dx(j);
      const double invdy = 1.0 / dy(j);
      const int* lev = lev_row(j);
      const int* lev_n = lev_row(j + 1);
      const int* lev_s = lev_row(j - 1);
      const int jn = north(j);
      const int js = south(j);
      std::fill(w + i0_, w + i1_, 0.0);
      // Bottom up, each column's integral in its own accumulator.
      for (int k = row_levels_[j] - 1; k >= 0; --k) {
        // From the baroclinic deviation velocities: their depth integral
        // vanishes, so w closes at the surface; the barotropic divergence
        // belongs to the (slowed) free surface, not interior upwelling.
        const double dzk = vgrid_.dz(k);
        const double* u = row_of(up_, j, k);
        const double* v = row_of(vp_, j, k);
        const double* vn = row_of(vp_, jn, k);
        const double* vs = row_of(vp_, js, k);
        double* wt = row_of(wtop_, j, k);
        sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
          const double ue = select(k < lev[ie], 0.5 * (u[i] + u[ie]), 0.0);
          const double uw = select(k < lev[iw], 0.5 * (u[iw] + u[i]), 0.0);
          const double vnf = select(k < lev_n[i], 0.5 * (v[i] + vn[i]), 0.0);
          const double vsf = select(k < lev_s[i], 0.5 * (vs[i] + v[i]), 0.0);
          const double div = (ue - uw) * invdx + (vnf - vsf) * invdy;
          const bool wet = k < lev[i];
          const double wk = w[i] + div * dzk;
          w[i] = select(wet, wk, w[i]);
          wt[i] = select(wet, clamp_sel(wk, -w_clamp, w_clamp), wt[i]);
        });
      }
    }
  });
}

void OceanModel::tracer_step() {
  const double dtt = cfg_.dt_mom * cfg_.tracer_every;
  const int nx = cfg_.nx;
  const int nz = cfg_.nz;

  vertical_mixing_coefficients();
  diagnose_w();

  // Forward-in-time, upwind-in-space transport: monotone, so tracer values
  // stay within physical bounds even where the masked/clamped velocity
  // field is discretely divergent (cliff columns). Diffusion is explicit
  // forward Laplacian. The new level goes to u_new_ (unused until the next
  // momentum step) and is copied back over the owned box.
  const bool hadv = cfg_.enable_horiz_adv;
  const bool vadv = cfg_.enable_vert_adv;
  const double kappa_h = cfg_.kappa_h;
  const double heat_den = cfg_.rho0 * cp_sea_water * vgrid_.dz(0);
  const double dz0 = vgrid_.dz(0);
  for (int pass = 0; pass < 2; ++pass) {
    Field3Dd& q = (pass == 0) ? t_ : s_;
    Field3Dd& q_new = u_new_;
    bands(j0_, j1_, [&](int m, int jlo, int jhi) {
      MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
      double* face = sc.acc(0);  // zonal face q: columns i0-1+q | i0+q
      double* surf = sc.acc(1);  // surface-layer forcing tendency
      for (int j = jlo; j < jhi; ++j) {
        const double invdx = 1.0 / dx(j);
        const double invdy = 1.0 / dy(j);
        const int* lev = lev_row(j);
        const int* lev_n = lev_row(j + 1);
        const int* lev_s = lev_row(j - 1);
        const int jn = north(j);
        const int js = south(j);
        const double* ubr = &ub_(0, j);
        const double* vbc = &vb_(0, j);
        const double* vbn = &vb_(0, jn);
        const double* vbs = &vb_(0, js);
        // Surface forcing: a subtraction is the addition of the negation.
        if (pass == 0) {
          const double* qn = &qnet_(0, j);
          sweep_cells(i0_, i1_, [&](int i) { surf[i] = qn[i] / heat_den; });
        } else {
          const double* fw = &fw_(0, j);
          sweep_cells(i0_, i1_,
                      [&](int i) { surf[i] = -(fw[i] * cfg_.s_ref / dz0); });
        }
        for (int k = 0; k < row_levels_[j]; ++k) {
          const double dzk = vgrid_.dz(k);
          const bool above = k > 0;
          const double* qc = row_of(q, j, k);
          const double* qn = row_of(q, jn, k);
          const double* qs = row_of(q, js, k);
          const double* qu = row_of(q, j, above ? k - 1 : k);
          const double* qd = row_of(q, j, k + 1 < nz ? k + 1 : k);
          const double* u = row_of(up_, j, k);
          const double* v = row_of(vp_, j, k);
          const double* vn = row_of(vp_, jn, k);
          const double* vs = row_of(vp_, js, k);
          const double* wk = row_of(wtop_, j, k);
          const double* wk1 = row_of(wtop_, j, k + 1 < nz ? k + 1 : k);
          double* out = row_of(q_new, j, k);
          if (hadv) {
            // uf * upwind(q) * invdx across face (ia | ib): the east term of
            // ia and the west term of ib.
            auto flux_x = [&](int ia, int ib) {
              const double uf =
                  0.5 * ((u[ia] + ubr[ia]) + (u[ib] + ubr[ib]));
              return uf * select(uf > 0.0, qc[ia], qc[ib]) * invdx;
            };
            const int nc = i1_ - i0_;
            face[0] = flux_x(i0_ == 0 ? nx - 1 : i0_ - 1, i0_);
FOAM_IVDEP
            for (int f = 1; f < nc; ++f) face[f] = flux_x(i0_ + f - 1, i0_ + f);
            face[nc] = flux_x(i1_ - 1, i1_ == nx ? 0 : i1_);
          }
          sweep_row(i0_, i1_, nx, [&](int i, int iw, int ie) {
            const double c = qc[i];
            double tend = 0.0;
            // Horizontal advection (the zonal terms from the face fluxes).
            tend = select(hadv & (k < lev[ie]), tend - face[i - i0_ + 1], tend);
            tend = select(hadv & (k < lev[iw]), tend + face[i - i0_], tend);
            const double vfn = 0.5 * ((v[i] + vbc[i]) + (vn[i] + vbn[i]));
            const double fn = vfn * select(vfn > 0.0, c, qn[i]) * invdy;
            tend = select(hadv & (k < lev_n[i]), tend - fn, tend);
            const double vfs = 0.5 * ((vs[i] + vbs[i]) + (v[i] + vbc[i]));
            const double fs = vfs * select(vfs > 0.0, qs[i], c) * invdy;
            tend = select(hadv & (k < lev_s[i]), tend + fs, tend);
            // Vertical advection through the top and bottom interfaces.
            const double w = wk[i];
            const double fu = w * select(w > 0.0, c, qu[i]) / dzk;
            tend = select(vadv & above, tend - fu, tend);
            const double w1 = wk1[i];
            const double fd = w1 * select(w1 > 0.0, qd[i], c) / dzk;
            tend = select(vadv & (k + 1 < lev[i]), tend + fd, tend);
            // Surface forcing.
            tend = select(above, tend, tend + surf[i]);
            // Laplacian diffusion (no-flux at land).
            const double qe = select(k < lev[ie], qc[ie], c);
            const double qw = select(k < lev[iw], qc[iw], c);
            const double qn2 = select(k < lev_n[i], qn[i], c);
            const double qs2 = select(k < lev_s[i], qs[i], c);
            tend += kappa_h * ((qe - 2.0 * c + qw) * invdx * invdx +
                               (qn2 - 2.0 * c + qs2) * invdy * invdy);
            out[i] = select(k < lev[i], c + dtt * tend, c);
          });
        }
      }
    });
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j)
        for (int k = 0; k < row_levels_[j]; ++k)
          std::copy(row_of(q_new, j, k) + i0_, row_of(q_new, j, k) + i1_,
                    row_of(q, j, k) + i0_);
    });
  }

  // Implicit vertical diffusion of the new level.
  if (cfg_.enable_vmix) implicit_vertical(t_, s_, kappa_, dtt);

  // Sea-ice freeze clamp (paper: clamp at -1.92 C); the deficit becomes
  // frazil-ice heat the coupler turns into ice growth.
  const double dz_top = vgrid_.dz(0);
  for (int j = j0_; j < j1_; ++j) {
    for (int i = i0_; i < i1_; ++i) {
      if (mask2d_(i, j) == 0) continue;
      if (t_(i, j, 0) < sea_ice_freeze_c) {
        const double deficit = (sea_ice_freeze_c - t_(i, j, 0)) * cfg_.rho0 *
                               cp_sea_water * dz_top;
        frazil_heat_ += deficit;
        frazil_cell_(i, j) += deficit;
        t_(i, j, 0) = sea_ice_freeze_c;
      }
    }
  }

  convective_adjustment();
  if (cfg_.enable_ts_filter) {
    apply_polar_filter_3d(t_);
    apply_polar_filter_3d(s_);
  }
  exchange_halo(t_);
  exchange_halo(s_);

  double wet_cells = 0.0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) wet_cells += levels_(i, j);
  work_points_ += 6.0 * wet_cells;
}

std::vector<double> OceanModel::row_gather_full(
    const std::vector<double>& mine, int nslots) const {
  // One gatherv + bcast for the whole batch: the filter is called inside
  // every barotropic substep, so per-row messages would dominate.
  std::vector<int> counts(row_comm_->size());
  for (int r = 0; r < row_comm_->size(); ++r)
    counts[r] = decomp_.x_range(r).count() * nslots;  // row-comm rank == pi
  std::vector<double> all;
  row_comm_->gatherv(mine, all, counts, 0);
  row_comm_->bcast_vec(all, 0);
  std::vector<double> full(static_cast<std::size_t>(nslots) * cfg_.nx);
  std::size_t off = 0;
  for (int r = 0; r < row_comm_->size(); ++r) {
    const par::Range xr = decomp_.x_range(r);
    for (int slot = 0; slot < nslots; ++slot)
      for (int i = xr.lo; i < xr.hi; ++i)
        full[static_cast<std::size_t>(slot) * cfg_.nx + i] = all[off++];
  }
  return full;
}

void OceanModel::filter_rows_distributed(
    std::vector<double>& full, int nslots,
    const std::function<int(int)>& j_of,
    const std::function<void(int, int*)>& fill_mask) {
  constexpr int L = numerics::PolarFourierFilter::kLanes;
  const int P = row_comm_->size();
  const int rr = row_comm_->rank();
  const int nx = cfg_.nx;
  // Round-robin slot ownership balances the filter work across the
  // process row — this is the whole point of decomposing in x: the polar
  // ranks' filter load, which caps the row decomposition's scaling,
  // divides by px instead of being repeated on every rank.
  // This rank's q-th slot is rr + q * P; its slots split over the team and
  // each member filters its share kLanes rows at a time.
  const int mine = (nslots - rr + P - 1) / P;
  par::for_chunks(team_, mine, [&](int m, int qlo, int qhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    double* rows[L];
    int js[L];
    const int* masks[L];
    for (int g = qlo; g < qhi; g += L) {
      const int nl = std::min(L, qhi - g);
      for (int l = 0; l < nl; ++l) {
        const int s = rr + (g + l) * P;
        int* mk = sc.masks.data() + static_cast<std::size_t>(l) * nx;
        fill_mask(s, mk);
        rows[l] = full.data() + static_cast<std::size_t>(s) * nx;
        js[l] = j_of(s);
        masks[l] = mk;
      }
      filter_.filter_rows(rows, js, masks, nl, sc.filter_ws);
    }
  });
  // Re-share the filtered rows (one gatherv + bcast for the batch): rank
  // r's contribution is its slots r, r+P, ... in increasing slot order.
  std::vector<int> counts(P);
  for (int r = 0; r < P; ++r)
    counts[r] = cfg_.nx * ((nslots - r + P - 1) / P);
  std::vector<double> contrib;
  contrib.reserve(static_cast<std::size_t>(counts[rr]));
  for (int s = rr; s < nslots; s += P)
    contrib.insert(contrib.end(),
                   full.begin() + static_cast<std::ptrdiff_t>(s) * cfg_.nx,
                   full.begin() + static_cast<std::ptrdiff_t>(s + 1) * cfg_.nx);
  std::vector<double> all;
  row_comm_->gatherv(contrib, all, counts, 0);
  row_comm_->bcast_vec(all, 0);
  std::size_t off = 0;
  for (int r = 0; r < P; ++r)
    for (int s = r; s < nslots; s += P, off += cfg_.nx)
      std::copy(all.begin() + static_cast<std::ptrdiff_t>(off),
                all.begin() + static_cast<std::ptrdiff_t>(off + cfg_.nx),
                full.begin() + static_cast<std::ptrdiff_t>(s) * cfg_.nx);
}

void OceanModel::apply_polar_filter_2d(Field2Dd& f) {
  constexpr int L = numerics::PolarFourierFilter::kLanes;
  const std::vector<int>& rows = polar_rows_;
  // Ranks sharing a process row share the j-range, so this early return
  // (and the collective gather below) stays aligned across the row comm.
  if (rows.empty()) return;
  if (row_comm_ == nullptr) {  // full rows are local (px == 1 or serial)
    const int nrows = static_cast<int>(rows.size());
    par::for_chunks(team_, nrows, [&](int m, int lo, int hi) {
      MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
      double* ptr[L];
      int js[L];
      const int* masks[L];
      for (int g = lo; g < hi; g += L) {
        const int nl = std::min(L, hi - g);
        for (int l = 0; l < nl; ++l) {
          const int j = rows[static_cast<std::size_t>(g + l)];
          ptr[l] = &f(0, j);
          js[l] = j;
          masks[l] = &mask2d_(0, j);
        }
        filter_.filter_rows(ptr, js, masks, nl, sc.filter_ws);
      }
    });
    return;
  }
  // 2-D path: gather the owned segments of every polar row across the
  // process row, filter the reconstructed rows cooperatively (each rank a
  // balanced share), write back only the owned segment.
  const int xcnt = i1_ - i0_;
  std::vector<double> mine(rows.size() * static_cast<std::size_t>(xcnt));
  for (std::size_t s = 0; s < rows.size(); ++s)
    for (int i = i0_; i < i1_; ++i)
      mine[s * xcnt + (i - i0_)] = f(i, rows[s]);
  std::vector<double> full =
      row_gather_full(mine, static_cast<int>(rows.size()));
  filter_rows_distributed(
      full, static_cast<int>(rows.size()),
      [&](int s) { return rows[static_cast<std::size_t>(s)]; },
      [&](int s, int* m) {
        const int j = rows[static_cast<std::size_t>(s)];
        for (int i = 0; i < cfg_.nx; ++i) m[i] = mask2d_(i, j);
      });
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const int j = rows[s];
    for (int i = i0_; i < i1_; ++i)
      if (mask2d_(i, j) != 0) f(i, j) = full[s * cfg_.nx + i];
  }
}

void OceanModel::apply_polar_filter_3d(Field3Dd& f) {
  constexpr int L = numerics::PolarFourierFilter::kLanes;
  const std::vector<int>& rows = polar_rows_;
  if (rows.empty()) return;  // no polar rows owned by this process row
  const int nx = cfg_.nx;
  const int nrows = static_cast<int>(rows.size());
  // Per-level wet mask: columns dry at this depth are treated as land so
  // their placeholder values never contaminate wet cells.
  auto fill_mask = [&](int k, int j, int* m) {
    const int* lev = &levels_(0, j);
    for (int i = 0; i < nx; ++i) m[i] = k < lev[i] ? 1 : 0;
  };
  if (row_comm_ == nullptr) {  // full rows are local (px == 1 or serial)
    // (level, polar row) slots, level-major, kLanes at a time. A slot whose
    // row has no wet cell at its level is left alone, as filter_row would.
    par::for_chunks(team_, cfg_.nz * nrows, [&](int m, int lo, int hi) {
      MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
      double* ptr[L];
      int js[L];
      const int* masks[L];
      int nl = 0;
      for (int slot = lo; slot < hi; ++slot) {
        const int k = slot / nrows;
        const int j = rows[static_cast<std::size_t>(slot % nrows)];
        if (k < row_levels_[j]) {
          int* mk = sc.masks.data() + static_cast<std::size_t>(nl) * nx;
          fill_mask(k, j, mk);
          ptr[nl] = row_of(f, j, k);
          js[nl] = j;
          masks[nl] = mk;
          ++nl;
        }
        if (nl == L || (nl > 0 && slot + 1 == hi)) {
          filter_.filter_rows(ptr, js, masks, nl, sc.filter_ws);
          nl = 0;
        }
      }
    });
    return;
  }
  // 2-D path: one batched gather for all (level, polar-row) slots.
  const int xcnt = i1_ - i0_;
  const std::size_t nslots =
      rows.size() * static_cast<std::size_t>(cfg_.nz);
  std::vector<double> mine(nslots * static_cast<std::size_t>(xcnt));
  std::size_t s = 0;
  for (int k = 0; k < cfg_.nz; ++k) {
    for (const int j : rows) {
      for (int i = i0_; i < i1_; ++i)
        mine[s * xcnt + (i - i0_)] = f(i, j, k);
      ++s;
    }
  }
  std::vector<double> full = row_gather_full(mine, static_cast<int>(nslots));
  // Slot order matches the pack above: level-major, owned polar rows inner.
  filter_rows_distributed(
      full, static_cast<int>(nslots),
      [&](int slot) { return rows[static_cast<std::size_t>(slot % nrows)]; },
      [&](int slot, int* m) {
        fill_mask(slot / nrows, rows[static_cast<std::size_t>(slot % nrows)],
                  m);
      });
  s = 0;
  for (int k = 0; k < cfg_.nz; ++k) {
    for (const int j : rows) {
      const int* lev = &levels_(0, j);
      for (int i = i0_; i < i1_; ++i)
        if (k < lev[i]) f(i, j, k) = full[s * cfg_.nx + i];
      ++s;
    }
  }
}

void OceanModel::step() {
  {
    FOAM_TRACE_SCOPE("ocean.baroclinic");
    internal_momentum_step();
  }
  {
    FOAM_TRACE_SCOPE("ocean.barotropic");
    barotropic_subcycle();
  }
  ++steps_;
  if (steps_ % cfg_.tracer_every == 0) {
    FOAM_TRACE_SCOPE("ocean.tracer");
    tracer_step();
  }
}

void OceanModel::run_days(double days) {
  const std::int64_t n =
      static_cast<std::int64_t>(std::llround(days * 86400.0 / cfg_.dt_mom));
  for (std::int64_t i = 0; i < n; ++i) step();
}

Field2Dd OceanModel::drain_frazil() {
  Field2Dd out = frazil_cell_;
  frazil_cell_.fill(0.0);
  return out;
}

Field2Dd OceanModel::sst() const {
  Field2Dd out(cfg_.nx, cfg_.ny, 0.0);
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i)
      out(i, j) = mask2d_(i, j) != 0 ? t_(i, j, 0) : 0.0;
  return out;
}

Field2Dd OceanModel::gather(const Field2Dd& f) const {
  FOAM_TRACE_SCOPE("ocean.gather");
  Field2Dd out(f);
  if (comm_ == nullptr || comm_->size() == 1) return out;
  // Every rank contributes its owned box, packed row-major; blocks are
  // concatenated in rank order, so reassembly walks each rank's box.
  std::vector<int> counts(comm_->size());
  for (int r = 0; r < comm_->size(); ++r)
    counts[r] =
        decomp_.x_range_of_rank(r).count() * decomp_.y_range_of_rank(r).count();
  std::vector<double> mine(
      static_cast<std::size_t>(j1_ - j0_) * (i1_ - i0_));
  std::size_t off = 0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) mine[off++] = f(i, j);
  std::vector<double> all;
  comm_->gatherv(mine, all, counts, 0);
  comm_->bcast_vec(all, 0);
  off = 0;
  for (int r = 0; r < comm_->size(); ++r) {
    const par::Range xr = decomp_.x_range_of_rank(r);
    const par::Range yr = decomp_.y_range_of_rank(r);
    for (int j = yr.lo; j < yr.hi; ++j)
      for (int i = xr.lo; i < xr.hi; ++i) out(i, j) = all[off++];
  }
  return out;
}

OceanDiagnostics OceanModel::diagnostics() const {
  double sum_sst_a = 0.0, sum_a = 0.0, sum_ke = 0.0, sum_vol = 0.0;
  double max_speed = 0.0, max_eta = 0.0, sum_t_vol = 0.0;
  for (int j = j0_; j < j1_; ++j) {
    const double area = grid_.cell_area(j);
    for (int i = i0_; i < i1_; ++i) {
      const int lev = levels_(i, j);
      if (lev == 0) continue;
      sum_sst_a += t_(i, j, 0) * area;
      sum_a += area;
      max_eta = std::max(max_eta, std::abs(eta_(i, j)));
      for (int k = 0; k < lev; ++k) {
        const double u = u_total(i, j, k);
        const double v = v_total(i, j, k);
        const double vol = area * vgrid_.dz(k);
        sum_ke += 0.5 * (u * u + v * v) * vol;
        sum_t_vol += t_(i, j, k) * vol;
        sum_vol += vol;
        max_speed = std::max(max_speed, std::sqrt(u * u + v * v));
      }
    }
  }
  OceanDiagnostics d;
  if (comm_ != nullptr && comm_->size() > 1) {
    sum_sst_a = comm_->allreduce_scalar(sum_sst_a, par::ReduceOp::kSum);
    sum_a = comm_->allreduce_scalar(sum_a, par::ReduceOp::kSum);
    sum_ke = comm_->allreduce_scalar(sum_ke, par::ReduceOp::kSum);
    sum_vol = comm_->allreduce_scalar(sum_vol, par::ReduceOp::kSum);
    sum_t_vol = comm_->allreduce_scalar(sum_t_vol, par::ReduceOp::kSum);
    max_speed = comm_->allreduce_scalar(max_speed, par::ReduceOp::kMax);
    max_eta = comm_->allreduce_scalar(max_eta, par::ReduceOp::kMax);
  }
  d.mean_sst = sum_a > 0.0 ? sum_sst_a / sum_a : 0.0;
  d.mean_kinetic = sum_vol > 0.0 ? sum_ke / sum_vol : 0.0;
  d.max_speed = max_speed;
  d.max_eta = max_eta;
  d.mean_temp_3d = sum_vol > 0.0 ? sum_t_vol / sum_vol : 0.0;
  d.frazil_heat = frazil_heat_;
  return d;
}

namespace {

void copy_into(const HistoryRecord& rec, Field3Dd& f) {
  FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint record size");
  std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
}

void copy_into(const HistoryRecord& rec, Field2Dd& f) {
  FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint record size");
  std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
}

}  // namespace

void OceanModel::save_state(HistoryWriter& out,
                            const std::string& prefix) const {
  out.write(prefix + ".t", t_);
  out.write(prefix + ".s", s_);
  out.write(prefix + ".up", up_);
  out.write(prefix + ".vp", vp_);
  out.write(prefix + ".up_prev", up_prev_);
  out.write(prefix + ".vp_prev", vp_prev_);
  out.write(prefix + ".eta", eta_);
  out.write(prefix + ".ub", ub_);
  out.write(prefix + ".vb", vb_);
  out.write(prefix + ".frazil", frazil_cell_);
  // The Pacanowski-Philander coefficients persist between tracer steps and
  // feed the momentum solve, so they are prognostic for restart purposes.
  out.write(prefix + ".nu", nu_);
  out.write(prefix + ".kappa", kappa_);
  out.write_scalar(prefix + ".steps", static_cast<double>(steps_));
  out.write_scalar(prefix + ".have_mom_prev", have_mom_prev_ ? 1.0 : 0.0);
  out.write_scalar(prefix + ".frazil_heat", frazil_heat_);
}

void OceanModel::load_state(const HistoryReader& in,
                            const std::string& prefix) {
  copy_into(in.find(prefix + ".t"), t_);
  copy_into(in.find(prefix + ".s"), s_);
  copy_into(in.find(prefix + ".up"), up_);
  copy_into(in.find(prefix + ".vp"), vp_);
  copy_into(in.find(prefix + ".up_prev"), up_prev_);
  copy_into(in.find(prefix + ".vp_prev"), vp_prev_);
  copy_into(in.find(prefix + ".eta"), eta_);
  copy_into(in.find(prefix + ".ub"), ub_);
  copy_into(in.find(prefix + ".vb"), vb_);
  copy_into(in.find(prefix + ".frazil"), frazil_cell_);
  copy_into(in.find(prefix + ".nu"), nu_);
  copy_into(in.find(prefix + ".kappa"), kappa_);
  steps_ =
      static_cast<std::int64_t>(in.find(prefix + ".steps").data[0]);
  have_mom_prev_ = in.find(prefix + ".have_mom_prev").data[0] != 0.0;
  frazil_heat_ = in.find(prefix + ".frazil_heat").data[0];
}

double analytic_zonal_stress(double lat_rad) {
  const double lat_deg = lat_rad / deg2rad;
  const double envelope = std::exp(-std::pow(lat_deg / 70.0, 8.0));
  return -0.08 * std::cos(3.0 * lat_rad) * envelope;
}

Field2Dd restoring_heat_flux(const numerics::MercatorGrid& grid,
                             const Field2Dd& sst, int month,
                             double lambda_w_m2_k) {
  Field2Dd q(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) / deg2rad;
    for (int i = 0; i < grid.nlon(); ++i) {
      const double t_star =
          data::sst_climatology(lat, grid.lon(i) / deg2rad, month);
      q(i, j) = lambda_w_m2_k * (t_star - sst(i, j));
    }
  }
  return q;
}

}  // namespace foam::ocean
