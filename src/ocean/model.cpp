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

}  // namespace

OceanModel::MemberScratch::MemberScratch(
    const numerics::PolarFourierFilter& filter, int nx, int nz)
    : filter_ws(filter),
      mask(static_cast<std::size_t>(nx)),
      la(static_cast<std::size_t>(nz)),
      lb(static_cast<std::size_t>(nz)),
      lc(static_cast<std::size_t>(nz)),
      ld(static_cast<std::size_t>(nz)),
      cp(static_cast<std::size_t>(nz)) {}

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
      t_prev_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      s_prev_(cfg.nx, cfg.ny, cfg.nz, cfg.s_ref),
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
  for (int j = 0; j < cfg_.ny; ++j) {
    for (int i = 0; i < cfg_.nx; ++i) {
      const int lev = levels_(i, j);
      mask2d_(i, j) = lev > 0 ? 1 : 0;
      double h = 0.0;
      for (int k = 0; k < lev; ++k) h += vgrid_.dz(k);
      depth_(i, j) = h;
    }
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
  // Columns visited by extended-range loops. With px == 1 every column is
  // owned and the list is 0..nx-1, reproducing the row-decomposed loops
  // bitwise; otherwise the wrapped halo column on each side joins in.
  if (decomp_.px() > 1) {
    xext_.push_back((i0_ - 1 + cfg_.nx) % cfg_.nx);
    for (int i = i0_; i < i1_; ++i) xext_.push_back(i);
    xext_.push_back(i1_ % cfg_.nx);
  } else {
    for (int i = 0; i < cfg_.nx; ++i) xext_.push_back(i);
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
  t_prev_ = t_;
  s_prev_ = s_;
  have_mom_prev_ = false;
  have_tracer_prev_ = false;
}

void OceanModel::init_thermal_wind() {
  // Start the baroclinic velocities in geostrophic balance with the initial
  // density field so the model does not open with a basin-scale adjustment
  // shock. The Coriolis parameter is floored at its 5-degree value; the
  // equatorial strip starts slightly unbalanced but bounded.
  const int save_lo = j0_, save_hi = j1_;
  const int save_ilo = i0_, save_ihi = i1_;
  std::vector<int> save_xext;
  save_xext.swap(xext_);
  j0_ = 0;
  j1_ = cfg_.ny;  // initialization is rank-replicated over the full domain
  i0_ = 0;
  i1_ = cfg_.nx;
  for (int i = 0; i < cfg_.nx; ++i) xext_.push_back(i);
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
  xext_.swap(save_xext);
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
  bands(lo, hi, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j)
      for (const int i : xext_)
        for (int k = 0; k < levels_(i, j); ++k)
          rho_(i, j, k) =
              cfg_.rho0 * (1.0 - cfg_.alpha_t * (t_(i, j, k) - cfg_.t_ref) +
                           cfg_.beta_s * (s_(i, j, k) - cfg_.s_ref));
  });
}

void OceanModel::baroclinic_pressure() {
  const int lo = std::max(0, j0_ - 1);
  const int hi = std::min(cfg_.ny, j1_ + 1);
  bands(lo, hi, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (const int i : xext_) {
        const int lev = levels_(i, j);
        double p = 0.0;
        double rho_above = 0.0;
        for (int k = 0; k < lev; ++k) {
          const double rp = rho_(i, j, k) - cfg_.rho0;
          if (k == 0) {
            p = gravity * rp * 0.5 * vgrid_.dz(0);
          } else {
            p += gravity * 0.5 *
                 (rho_above * vgrid_.dz(k - 1) + rp * vgrid_.dz(k));
          }
          pbc_(i, j, k) = p;
          rho_above = rp;
        }
      }
    }
  });
}

void OceanModel::pressure_forces() {
  const int nx = cfg_.nx;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const double inv2dx = 1.0 / (2.0 * dx(j));
      const double inv2dy = 1.0 / (2.0 * dy(j));
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        double sx = 0.0, sy = 0.0, h = 0.0;
        for (int k = 0; k < lev; ++k) {
          double fx = 0.0, fy = 0.0;
          if (cfg_.enable_baroclinic_pg) {
            // Ghost-mirror closure at walls (a dry neighbour mirrors the
            // centre pressure): wall columns still feel pressure restoring,
            // at half the centred magnitude.
            const double pc = pbc_(i, j, k);
            const double pe =
                wet((i + 1) % nx, j, k) ? pbc_.wrap_x(i + 1, j, k) : pc;
            const double pw =
                wet((i + nx - 1) % nx, j, k) ? pbc_.wrap_x(i - 1, j, k) : pc;
            fx = -(pe - pw) * inv2dx / cfg_.rho0;
            const double pn =
                (j + 1 < cfg_.ny && wet(i, j + 1, k)) ? pbc_(i, j + 1, k) : pc;
            const double ps =
                (j - 1 >= 0 && wet(i, j - 1, k)) ? pbc_(i, j - 1, k) : pc;
            fy = -(pn - ps) * inv2dy / cfg_.rho0;
          }
          gx_(i, j, k) = fx;
          gy_(i, j, k) = fy;
          sx += fx * vgrid_.dz(k);
          sy += fy * vgrid_.dz(k);
          h += vgrid_.dz(k);
        }
        fbar_x_(i, j) = h > 0.0 ? sx / h : 0.0;
        fbar_y_(i, j) = h > 0.0 ? sy / h : 0.0;
      }
    }
  });
}

void OceanModel::implicit_vertical(Field3Dd& f, const Field3Dd& coeff,
                                   double dt) {
  bands(j0_, j1_, [&](int m, int jlo, int jhi) {
    // The member's column scratch (capacity nz: assign never allocates).
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    std::vector<double>& la = sc.la;
    std::vector<double>& lb = sc.lb;
    std::vector<double>& lc = sc.lc;
    std::vector<double>& ld = sc.ld;
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        if (lev < 2) continue;
        la.assign(lev, 0.0);
        lb.assign(lev, 1.0);
        lc.assign(lev, 0.0);
        ld.assign(lev, 0.0);
        for (int k = 0; k < lev; ++k) {
          const double dzk = vgrid_.dz(k);
          if (k > 0) {
            const double dzi = 0.5 * (vgrid_.dz(k - 1) + vgrid_.dz(k));
            const double r = dt * coeff(i, j, k) / (dzk * dzi);
            la[k] = -r;
            lb[k] += r;
          }
          if (k < lev - 1) {
            const double dzi = 0.5 * (vgrid_.dz(k) + vgrid_.dz(k + 1));
            const double r = dt * coeff(i, j, k + 1) / (dzk * dzi);
            lc[k] = -r;
            lb[k] += r;
          }
          ld[k] = f(i, j, k);
        }
        numerics::solve_tridiag(la, lb, lc, ld, sc.cp);
        for (int k = 0; k < lev; ++k) f(i, j, k) = ld[k];
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
  // stable). Divergence damping likewise.
  Field2Dd lvl(nx, cfg_.ny, 0.0), lap1(nx, cfg_.ny, 0.0),
      lap2(nx, cfg_.ny, 0.0), divf(nx, cfg_.ny, 0.0);
  Field2D<int> kmask(nx, cfg_.ny, 0);
  for (int pass = 0; pass < 2; ++pass) {
    const Field3Dd& vel_prev = (pass == 0) ? up_prev_ : vp_prev_;
    Field3Dd& tend = (pass == 0) ? gx_ : gy_;
    for (int k = 0; k < cfg_.nz; ++k) {
      bands(0, cfg_.ny, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j)
          for (int i = 0; i < nx; ++i) kmask(i, j) = wet(i, j, k) ? 1 : 0;
      });
      const int lo = std::max(0, j0_ - 1);
      const int hi = std::min(cfg_.ny, j1_ + 1);
      bands(lo, hi, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j)
          for (const int i : xext_) lvl(i, j) = vel_prev(i, j, k);
      });
      // No-slip Laplacian: a land neighbour contributes zero velocity so
      // boundary currents feel sidewall friction. Computed on the owned
      // box; the halo ring arrives by exchange below.
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          const double ix2 = 1.0 / (dx(j) * dx(j));
          const double iy2 = 1.0 / (dy(j) * dy(j));
          for (int i = i0_; i < i1_; ++i) {
            if (kmask(i, j) == 0) {
              lap1(i, j) = 0.0;
              continue;
            }
            const double c = lvl(i, j);
            const double e =
                kmask.wrap_x(i + 1, j) ? lvl.wrap_x(i + 1, j) : 0.0;
            const double w2 =
                kmask.wrap_x(i - 1, j) ? lvl.wrap_x(i - 1, j) : 0.0;
            const double n2 =
                (j + 1 < cfg_.ny && kmask(i, j + 1)) ? lvl(i, j + 1) : 0.0;
            const double s2 =
                (j > 0 && kmask(i, j - 1)) ? lvl(i, j - 1) : 0.0;
            lap1(i, j) =
                (e - 2.0 * c + w2) * ix2 + (n2 - 2.0 * c + s2) * iy2;
          }
        }
      });
      exchange_halo(lap1);
      // lap2 is read at its own cell only, so each band computes its rows
      // of it and applies them in one pass (owned rows are all it needs).
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        numerics::laplacian_masked_rows(grid_, lap1, kmask, lap2, jlo, jhi);
        for (int j = jlo; j < jhi; ++j) {
          const double d = dx(j);
          // Caps keep the explicit (lagged, effective step 2dt) updates
          // monotone on the shrinking polar cells.
          const double cap4 = 0.0025 * d * d * d * d / dt;
          const double a4 = std::min(cfg_.visc4, cap4);
          for (int i = i0_; i < i1_; ++i)
            if (wet(i, j, k))
              tend(i, j, k) += cfg_.visc_h * lap1(i, j) - a4 * lap2(i, j);
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
          const double invdx = 1.0 / dx(j);
          const double invdy = 1.0 / dy(j);
          for (int i = i0_; i < i1_; ++i) {
            if (!wet(i, j, k)) {
              divf(i, j) = 0.0;
              continue;
            }
            const int ie = (i + 1) % nx;
            const int iw = (i + nx - 1) % nx;
            const double ue =
                wet(ie, j, k)
                    ? 0.5 * (up_prev_(i, j, k) + up_prev_(ie, j, k))
                    : 0.0;
            const double uw =
                wet(iw, j, k)
                    ? 0.5 * (up_prev_(iw, j, k) + up_prev_(i, j, k))
                    : 0.0;
            const double vn =
                (j + 1 < cfg_.ny && wet(i, j + 1, k))
                    ? 0.5 * (vp_prev_(i, j, k) + vp_prev_(i, j + 1, k))
                    : 0.0;
            const double vs =
                (j - 1 >= 0 && wet(i, j - 1, k))
                    ? 0.5 * (vp_prev_(i, j - 1, k) + vp_prev_(i, j, k))
                    : 0.0;
            divf(i, j) = (ue - uw) * invdx + (vn - vs) * invdy;
          }
        }
      });
      exchange_halo(divf);
      bands(j0_, j1_, [&](int, int jlo, int jhi) {
        for (int j = jlo; j < jhi; ++j) {
          const double inv2dx = 1.0 / (2.0 * dx(j));
          const double inv2dy = 1.0 / (2.0 * dy(j));
          const double cap = 0.05 * dx(j) * dx(j) / dt;
          const double cdd = std::min(cfg_.div_damp, cap);
          for (int i = i0_; i < i1_; ++i) {
            if (!wet(i, j, k)) continue;
            const int ie = (i + 1) % nx;
            const int iw = (i + nx - 1) % nx;
            const double de = wet(ie, j, k) ? divf(ie, j) : divf(i, j);
            const double dw = wet(iw, j, k) ? divf(iw, j) : divf(i, j);
            gx_(i, j, k) += cdd * (de - dw) * inv2dx;
            const double dn =
                (j + 1 < cfg_.ny && wet(i, j + 1, k)) ? divf(i, j + 1)
                                                      : divf(i, j);
            const double ds =
                (j - 1 >= 0 && wet(i, j - 1, k)) ? divf(i, j - 1)
                                                 : divf(i, j);
            gy_(i, j, k) += cdd * (dn - ds) * inv2dy;
          }
        }
      });
    }
  }

  // Leapfrog update: new = prev + 2dt * (PG deviation + Coriolis(n) +
  // wind deviation + friction(prev)).
  Field3Dd u_new(up_prev_);
  Field3Dd v_new(vp_prev_);
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        if (lev == 0) continue;
        const double ice_scale =
            1.0 - ice_(i, j) + ice_(i, j) / ice_stress_divisor;
        const double ax = taux_(i, j) * ice_scale / cfg_.rho0;
        const double ay = tauy_(i, j) * ice_scale / cfg_.rho0;
        const double h = depth_(i, j);
        for (int k = 0; k < lev; ++k) {
          const double wind_x = (k == 0 ? ax / vgrid_.dz(0) : 0.0) - ax / h;
          const double wind_y = (k == 0 ? ay / vgrid_.dz(0) : 0.0) - ay / h;
          const double tx = gx_(i, j, k) - fbar_x_(i, j) + wind_x +
                            f * vp_(i, j, k) -
                            cfg_.rayleigh * up_prev_(i, j, k);
          const double ty = gy_(i, j, k) - fbar_y_(i, j) + wind_y -
                            f * up_(i, j, k) -
                            cfg_.rayleigh * vp_prev_(i, j, k);
          u_new(i, j, k) = up_prev_(i, j, k) + dt2 * tx;
          v_new(i, j, k) = vp_prev_(i, j, k) + dt2 * ty;
        }
      }
    }
  });

  // Implicit vertical viscosity on the new level.
  if (cfg_.enable_vmix) {
    implicit_vertical(u_new, nu_, dt2);
    implicit_vertical(v_new, nu_, dt2);
  }

  // Wall-normal damping, deep/bottom drag and the hard safety clamp.
  const double keep = cfg_.wall_normal_retain;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        if (lev == 0) continue;
        if (keep < 1.0) {
          for (int k = 0; k < lev; ++k) {
            if (!wet((i + 1) % nx, j, k) || !wet((i + nx - 1) % nx, j, k))
              u_new(i, j, k) *= keep;
            if (j + 1 >= cfg_.ny || j - 1 < 0 || !wet(i, j + 1, k) ||
                !wet(i, j - 1, k))
              v_new(i, j, k) *= keep;
          }
        }
        // Frictional abyss: the two deepest layers of the *deviation* flow
        // are strongly damped (bottom boundary layer + unresolved topographic
        // form drag); cliff-trapped bottom modes otherwise survive every
        // interior dissipation mechanism. The barotropic mode has its own
        // bottom drag — coupling the two through this term would let a noisy
        // ub manufacture deviation velocity.
        for (int kb = std::max(0, lev - 2); kb < lev; ++kb) {
          const double speed =
              std::sqrt(u_new(i, j, kb) * u_new(i, j, kb) +
                        v_new(i, j, kb) * v_new(i, j, kb));
          const double fac =
              1.0 / (1.0 + dt2 * (cfg_.deep_drag +
                                  2.5e-3 * speed / vgrid_.dz(kb)));
          u_new(i, j, kb) *= fac;
          v_new(i, j, kb) *= fac;
        }
        for (int k = 0; k < lev; ++k) {
          u_new(i, j, k) = std::clamp(u_new(i, j, k), -cfg_.max_baroclinic,
                                      cfg_.max_baroclinic);
          v_new(i, j, k) = std::clamp(v_new(i, j, k), -cfg_.max_baroclinic,
                                      cfg_.max_baroclinic);
        }
      }
    }
  });

  // Robert-Asselin filter on the centre level, then rotate time levels.
  const double eps = cfg_.asselin;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        for (int k = 0; k < levels_(i, j); ++k) {
          up_prev_(i, j, k) =
              up_(i, j, k) +
              eps * (u_new(i, j, k) - 2.0 * up_(i, j, k) + up_prev_(i, j, k));
          vp_prev_(i, j, k) =
              vp_(i, j, k) +
              eps * (v_new(i, j, k) - 2.0 * vp_(i, j, k) + vp_prev_(i, j, k));
          up_(i, j, k) = u_new(i, j, k);
          vp_(i, j, k) = v_new(i, j, k);
        }
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
  // without bound.
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        if (lev == 0) continue;
        double su = 0.0, sv = 0.0, spu = 0.0, spv = 0.0;
        for (int k = 0; k < lev; ++k) {
          su += up_(i, j, k) * vgrid_.dz(k);
          sv += vp_(i, j, k) * vgrid_.dz(k);
          spu += up_prev_(i, j, k) * vgrid_.dz(k);
          spv += vp_prev_(i, j, k) * vgrid_.dz(k);
        }
        const double mu = su / depth_(i, j);
        const double mv = sv / depth_(i, j);
        const double mpu = spu / depth_(i, j);
        const double mpv = spv / depth_(i, j);
        for (int k = 0; k < lev; ++k) {
          up_(i, j, k) -= mu;
          vp_(i, j, k) -= mv;
          up_prev_(i, j, k) -= mpu;
          vp_prev_(i, j, k) -= mpv;
        }
        ub_(i, j) += mu;
        vb_(i, j) += mv;
      }
    }
  });
}

void OceanModel::index_biharmonic_filter(Field2Dd& f, double eps) {
  const int nx = cfg_.nx;
  auto index_laplacian = [&](const Field2Dd& src, Field2Dd& dst, int jlo,
                             int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        if (mask2d_(i, j) == 0) {
          dst(i, j) = 0.0;
          continue;
        }
        const double c = src(i, j);
        double acc = 0.0;
        if (mask2d_.wrap_x(i + 1, j) != 0) acc += src.wrap_x(i + 1, j) - c;
        if (mask2d_.wrap_x(i - 1, j) != 0) acc += src.wrap_x(i - 1, j) - c;
        if (j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0)
          acc += src(i, j + 1) - c;
        if (j - 1 >= 0 && mask2d_(i, j - 1) != 0) acc += src(i, j - 1) - c;
        dst(i, j) = acc;
      }
    }
  };
  Field2Dd lap(nx, cfg_.ny, 0.0), lap2(nx, cfg_.ny, 0.0);
  bands(j0_, j1_,
       [&](int, int jlo, int jhi) { index_laplacian(f, lap, jlo, jhi); });
  exchange_halo(lap);
  // The update reads lap2 at its own cell only: one pass per band.
  const double scale = eps / 64.0;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    index_laplacian(lap, lap2, jlo, jhi);
    for (int j = jlo; j < jhi; ++j)
      for (int i = i0_; i < i1_; ++i)
        if (mask2d_(i, j) != 0) f(i, j) -= scale * lap2(i, j);
  });
  exchange_halo(f);
}

void OceanModel::barotropic_subcycle() {
  const int nsub = cfg_.split_barotropic ? cfg_.nsub_baro : 1;
  const double dtb = cfg_.dt_mom / nsub;
  for (int sub = 0; sub < nsub; ++sub) {
    // Momentum: symmetric Coriolis rotation around the forcing update.
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j) {
        const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
        const double cs = std::cos(0.5 * f * dtb);
        const double sn = std::sin(0.5 * f * dtb);
        const double inv2dx = 1.0 / (2.0 * dx(j));
        const double inv2dy = 1.0 / (2.0 * dy(j));
        for (int i = i0_; i < i1_; ++i) {
          if (mask2d_(i, j) == 0) continue;
          // Ghost-mirror closure at walls for the surface PG.
          const bool we = mask2d_.wrap_x(i + 1, j) != 0;
          const bool ww = mask2d_.wrap_x(i - 1, j) != 0;
          const double ee = we ? eta_.wrap_x(i + 1, j) : eta_(i, j);
          const double ew = ww ? eta_.wrap_x(i - 1, j) : eta_(i, j);
          const double detadx = (ee - ew) * inv2dx;
          const bool wn = j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0;
          const bool ws = j - 1 >= 0 && mask2d_(i, j - 1) != 0;
          const double en = wn ? eta_(i, j + 1) : eta_(i, j);
          const double es = ws ? eta_(i, j - 1) : eta_(i, j);
          const double detady = (en - es) * inv2dy;
          const double ice_scale =
              1.0 - ice_(i, j) + ice_(i, j) / ice_stress_divisor;
          const double h = depth_(i, j);
          const double gxb = fbar_x_(i, j) +
                             taux_(i, j) * ice_scale / (cfg_.rho0 * h) -
                             gravity * detadx;
          const double gyb = fbar_y_(i, j) +
                             tauy_(i, j) * ice_scale / (cfg_.rho0 * h) -
                             gravity * detady;
          const double u_old = ub_(i, j);
          const double v_old = vb_(i, j);
          double u1 = cs * u_old + sn * v_old;
          double v1 = -sn * u_old + cs * v_old;
          u1 += dtb * (gxb - cfg_.bottom_drag * u_old);
          v1 += dtb * (gyb - cfg_.bottom_drag * v_old);
          ub_(i, j) = std::clamp(cs * u1 + sn * v1, -cfg_.max_barotropic,
                                 cfg_.max_barotropic);
          vb_(i, j) = std::clamp(-sn * u1 + cs * v1, -cfg_.max_barotropic,
                                 cfg_.max_barotropic);
        }
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
          for (int i = i0_; i < i1_; ++i) {
            if (mask2d_(i, j) == 0) continue;
            if (mask2d_.wrap_x(i + 1, j) == 0 || mask2d_.wrap_x(i - 1, j) == 0)
              ub_(i, j) *= keep;
            if (j + 1 >= cfg_.ny || j - 1 < 0 || mask2d_(i, j + 1) == 0 ||
                mask2d_(i, j - 1) == 0)
              vb_(i, j) *= keep;
          }
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
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j) {
        const double invdx = 1.0 / dx(j);
        const double invdy = 1.0 / dy(j);
        for (int i = i0_; i < i1_; ++i) {
          if (mask2d_(i, j) == 0) continue;
          auto flux_x = [&](int ia, int ib) {
            if (mask2d_.wrap_x(ia, j) == 0 || mask2d_.wrap_x(ib, j) == 0)
              return 0.0;
            const double hf =
                std::min(depth_.wrap_x(ia, j), depth_.wrap_x(ib, j));
            return hf * 0.5 * (ub_.wrap_x(ia, j) + ub_.wrap_x(ib, j));
          };
          const double fe = flux_x(i, i + 1);
          const double fwst = flux_x(i - 1, i);
          double fn = 0.0, fs = 0.0;
          if (j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0) {
            const double hf = std::min(depth_(i, j), depth_(i, j + 1));
            fn = hf * 0.5 * (vb_(i, j) + vb_(i, j + 1));
          }
          if (j - 1 >= 0 && mask2d_(i, j - 1) != 0) {
            const double hf = std::min(depth_(i, j), depth_(i, j - 1));
            fs = hf * 0.5 * (vb_(i, j) + vb_(i, j - 1));
          }
          const double div = (fe - fwst) * invdx + (fn - fs) * invdy;
          eta_(i, j) += dtb * (-div / cfg_.slow_factor + fw_(i, j));
        }
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
  // west-equatorial-Pacific cold bias (paper §4.2).
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        for (int k = 1; k < lev; ++k) {
          const double dzi = 0.5 * (vgrid_.dz(k - 1) + vgrid_.dz(k));
          const double du = up_(i, j, k - 1) - up_(i, j, k);
          const double dv = vp_(i, j, k - 1) - vp_(i, j, k);
          const double shear2 = (du * du + dv * dv) / (dzi * dzi) + 1.0e-10;
          const double n2 = -gravity * (rho_(i, j, k - 1) - rho_(i, j, k)) /
                            (cfg_.rho0 * dzi);
          const double ri = std::max(0.0, n2 / shear2);
          const double denom = std::pow(1.0 + 5.0 * ri, cfg_.ri_exponent);
          nu_(i, j, k) = cfg_.nu0 / denom + cfg_.nu_b;
          kappa_(i, j, k) =
              (cfg_.nu0 / denom) / (1.0 + 5.0 * ri) + cfg_.kappa_b;
        }
      }
    }
  });
}

void OceanModel::convective_adjustment() {
  if (!cfg_.enable_convect) return;
  // Full-column pairwise mixing sweep on both leapfrog time levels:
  // statically unstable neighbours are homogenized (volume-weighted),
  // repeated until stable.
  for (int lvl = 0; lvl < 2; ++lvl) {
    Field3Dd& tt = (lvl == 0) ? t_ : t_prev_;
    Field3Dd& ss = (lvl == 0) ? s_ : s_prev_;
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j) {
        for (int i = i0_; i < i1_; ++i) {
          const int lev = levels_(i, j);
          if (lev < 2) continue;
          for (int pass = 0; pass < lev; ++pass) {
            bool mixed = false;
            for (int k = 0; k < lev - 1; ++k) {
              const double r_up =
                  -cfg_.alpha_t * tt(i, j, k) + cfg_.beta_s * ss(i, j, k);
              const double r_dn = -cfg_.alpha_t * tt(i, j, k + 1) +
                                  cfg_.beta_s * ss(i, j, k + 1);
              if (r_up > r_dn + 1e-12) {  // denser above lighter: mix
                const double w1 = vgrid_.dz(k);
                const double w2 = vgrid_.dz(k + 1);
                const double tm =
                    (tt(i, j, k) * w1 + tt(i, j, k + 1) * w2) / (w1 + w2);
                const double sm =
                    (ss(i, j, k) * w1 + ss(i, j, k + 1) * w2) / (w1 + w2);
                tt(i, j, k) = tm;
                tt(i, j, k + 1) = tm;
                ss(i, j, k) = sm;
                ss(i, j, k + 1) = sm;
                mixed = true;
              }
            }
            if (!mixed) break;
          }
        }
      }
    });
  }
}

void OceanModel::diagnose_w() {
  const int nx = cfg_.nx;
  bands(j0_, j1_, [&](int, int jlo, int jhi) {
    for (int j = jlo; j < jhi; ++j) {
      const double invdx = 1.0 / dx(j);
      const double invdy = 1.0 / dy(j);
      for (int i = i0_; i < i1_; ++i) {
        const int lev = levels_(i, j);
        double w = 0.0;
        for (int k = lev - 1; k >= 0; --k) {
          // From the baroclinic deviation velocities: their depth integral
          // vanishes, so w closes at the surface; the barotropic divergence
          // belongs to the (slowed) free surface, not interior upwelling.
          const int ie = (i + 1) % nx;
          const int iw = (i + nx - 1) % nx;
          const double ue =
              wet(ie, j, k) ? 0.5 * (up_(i, j, k) + up_(ie, j, k)) : 0.0;
          const double uw =
              wet(iw, j, k) ? 0.5 * (up_(iw, j, k) + up_(i, j, k)) : 0.0;
          const double vn = (j + 1 < cfg_.ny && wet(i, j + 1, k))
                                ? 0.5 * (vp_(i, j, k) + vp_(i, j + 1, k))
                                : 0.0;
          const double vs = (j - 1 >= 0 && wet(i, j - 1, k))
                                ? 0.5 * (vp_(i, j - 1, k) + vp_(i, j, k))
                                : 0.0;
          const double div = (ue - uw) * invdx + (vn - vs) * invdy;
          w += div * vgrid_.dz(k);
          wtop_(i, j, k) = std::clamp(w, -cfg_.w_clamp, cfg_.w_clamp);
        }
      }
    }
  });
}

void OceanModel::tracer_step() {
  const double dtt = cfg_.dt_mom * cfg_.tracer_every;
  const int nx = cfg_.nx;

  vertical_mixing_coefficients();
  diagnose_w();

  // Forward-in-time, upwind-in-space transport: monotone, so tracer values
  // stay within physical bounds even where the masked/clamped velocity
  // field is discretely divergent (cliff columns). Diffusion is explicit
  // forward Laplacian.
  for (int pass = 0; pass < 2; ++pass) {
    Field3Dd& q = (pass == 0) ? t_ : s_;
    Field3Dd q_new(q);
    bands(j0_, j1_, [&](int, int jlo, int jhi) {
      for (int j = jlo; j < jhi; ++j) {
        const double invdx = 1.0 / dx(j);
        const double invdy = 1.0 / dy(j);
        for (int i = i0_; i < i1_; ++i) {
          const int lev = levels_(i, j);
          for (int k = 0; k < lev; ++k) {
            const int ie = (i + 1) % nx;
            const int iw = (i + nx - 1) % nx;
            double tend = 0.0;
            if (cfg_.enable_horiz_adv) {
              if (wet(ie, j, k)) {
                const double uf = 0.5 * (u_total(i, j, k) + u_total(ie, j, k));
                tend -= uf * (uf > 0.0 ? q(i, j, k) : q(ie, j, k)) * invdx;
              }
              if (wet(iw, j, k)) {
                const double uf = 0.5 * (u_total(iw, j, k) + u_total(i, j, k));
                tend += uf * (uf > 0.0 ? q(iw, j, k) : q(i, j, k)) * invdx;
              }
              if (j + 1 < cfg_.ny && wet(i, j + 1, k)) {
                const double vf =
                    0.5 * (v_total(i, j, k) + v_total(i, j + 1, k));
                tend -= vf * (vf > 0.0 ? q(i, j, k) : q(i, j + 1, k)) * invdy;
              }
              if (j - 1 >= 0 && wet(i, j - 1, k)) {
                const double vf =
                    0.5 * (v_total(i, j - 1, k) + v_total(i, j, k));
                tend += vf * (vf > 0.0 ? q(i, j - 1, k) : q(i, j, k)) * invdy;
              }
            }
            if (cfg_.enable_vert_adv) {
              const double dzk = vgrid_.dz(k);
              if (k > 0) {
                const double w = wtop_(i, j, k);
                tend -= w * (w > 0.0 ? q(i, j, k) : q(i, j, k - 1)) / dzk;
              }
              if (k + 1 < lev) {
                const double w = wtop_(i, j, k + 1);
                tend += w * (w > 0.0 ? q(i, j, k + 1) : q(i, j, k)) / dzk;
              }
            }
            // Surface forcing in the tendency.
            if (k == 0 && pass == 0)
              tend +=
                  qnet_(i, j) / (cfg_.rho0 * cp_sea_water * vgrid_.dz(0));
            if (k == 0 && pass == 1)
              tend -= fw_(i, j) * cfg_.s_ref / vgrid_.dz(0);
            // Laplacian diffusion (no-flux at land).
            const double qc = q(i, j, k);
            const double qe = wet(ie, j, k) ? q(ie, j, k) : qc;
            const double qw = wet(iw, j, k) ? q(iw, j, k) : qc;
            const double qn2 = (j + 1 < cfg_.ny && wet(i, j + 1, k))
                                   ? q(i, j + 1, k)
                                   : qc;
            const double qs =
                (j - 1 >= 0 && wet(i, j - 1, k)) ? q(i, j - 1, k) : qc;
            tend += cfg_.kappa_h * ((qe - 2.0 * qc + qw) * invdx * invdx +
                                    (qn2 - 2.0 * qc + qs) * invdy * invdy);
            q_new(i, j, k) = q(i, j, k) + dtt * tend;
          }
        }
      }
    });
    q = std::move(q_new);
  }
  // Keep the (unused) previous tracer level coherent for diagnostics.
  t_prev_ = t_;
  s_prev_ = s_;
  have_tracer_prev_ = true;

  // Implicit vertical diffusion of the new level.
  if (cfg_.enable_vmix) {
    implicit_vertical(t_, kappa_, dtt);
    implicit_vertical(s_, kappa_, dtt);
  }

  // Sea-ice freeze clamp on both time levels (paper: clamp at -1.92 C);
  // the deficit becomes frazil-ice heat the coupler turns into ice growth.
  const double dz0 = vgrid_.dz(0);
  for (int j = j0_; j < j1_; ++j) {
    for (int i = i0_; i < i1_; ++i) {
      if (mask2d_(i, j) == 0) continue;
      if (t_(i, j, 0) < sea_ice_freeze_c) {
        const double deficit = (sea_ice_freeze_c - t_(i, j, 0)) * cfg_.rho0 *
                               cp_sea_water * dz0;
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
    apply_polar_filter_3d(t_prev_);
    apply_polar_filter_3d(s_prev_);
  }
  exchange_halo(t_);
  exchange_halo(s_);
  exchange_halo(t_prev_);
  exchange_halo(s_prev_);

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
  const int P = row_comm_->size();
  const int rr = row_comm_->rank();
  // Round-robin slot ownership balances the filter work across the
  // process row — this is the whole point of decomposing in x: the polar
  // ranks' filter load, which caps the row decomposition's scaling,
  // divides by px instead of being repeated on every rank.
  // This rank's q-th slot is rr + q * P; its slots split over the team.
  const int mine = (nslots - rr + P - 1) / P;
  par::for_chunks(team_, mine, [&](int m, int qlo, int qhi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    for (int q = qlo; q < qhi; ++q) {
      const int s = rr + q * P;
      fill_mask(s, sc.mask.data());
      filter_.filter_row(full.data() + static_cast<std::size_t>(s) * cfg_.nx,
                         j_of(s), sc.mask.data(), sc.filter_ws);
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
  const std::vector<int>& rows = polar_rows_;
  // Ranks sharing a process row share the j-range, so this early return
  // (and the collective gather below) stays aligned across the row comm.
  if (rows.empty()) return;
  if (row_comm_ == nullptr) {  // full rows are local (px == 1 or serial)
    const int nrows = static_cast<int>(rows.size());
    par::for_chunks(team_, nrows, [&](int m, int lo, int hi) {
      MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
      for (int r = lo; r < hi; ++r) {
        const int j = rows[static_cast<std::size_t>(r)];
        filter_.filter_row(&f(0, j), j, &mask2d_(0, j), sc.filter_ws);
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
  const std::vector<int>& rows = polar_rows_;
  if (rows.empty()) return;  // no polar rows owned by this process row
  if (row_comm_ == nullptr) {  // full rows are local (px == 1 or serial)
    // (level, polar row) slots, level-major; each is filtered on its own.
    const int nrows = static_cast<int>(rows.size());
    par::for_chunks(team_, cfg_.nz * nrows, [&](int m, int lo, int hi) {
      MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
      for (int slot = lo; slot < hi; ++slot) {
        const int k = slot / nrows;
        const int j = rows[static_cast<std::size_t>(slot % nrows)];
        // Per-level wet mask: columns dry at this depth are treated as land
        // so their placeholder values never contaminate wet cells.
        for (int i = 0; i < cfg_.nx; ++i) sc.mask[i] = wet(i, j, k) ? 1 : 0;
        filter_.filter_row(&f(0, j, k), j, sc.mask.data(), sc.filter_ws);
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
  const int nrows = static_cast<int>(rows.size());
  filter_rows_distributed(
      full, static_cast<int>(nslots),
      [&](int slot) { return rows[static_cast<std::size_t>(slot % nrows)]; },
      [&](int slot, int* m) {
        const int j = rows[static_cast<std::size_t>(slot % nrows)];
        const int k = slot / nrows;
        for (int i = 0; i < cfg_.nx; ++i) m[i] = wet(i, j, k) ? 1 : 0;
      });
  s = 0;
  for (int k = 0; k < cfg_.nz; ++k) {
    for (const int j : rows) {
      for (int i = i0_; i < i1_; ++i)
        if (wet(i, j, k)) f(i, j, k) = full[s * cfg_.nx + i];
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
  out.write(prefix + ".t_prev", t_prev_);
  out.write(prefix + ".s_prev", s_prev_);
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
  out.write_scalar(prefix + ".have_tracer_prev",
                   have_tracer_prev_ ? 1.0 : 0.0);
  out.write_scalar(prefix + ".frazil_heat", frazil_heat_);
}

void OceanModel::load_state(const HistoryReader& in,
                            const std::string& prefix) {
  copy_into(in.find(prefix + ".t"), t_);
  copy_into(in.find(prefix + ".s"), s_);
  copy_into(in.find(prefix + ".t_prev"), t_prev_);
  copy_into(in.find(prefix + ".s_prev"), s_prev_);
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
  have_tracer_prev_ =
      in.find(prefix + ".have_tracer_prev").data[0] != 0.0;
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
