#include "atm/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/constants.hpp"
#include "data/earth.hpp"
#include "par/team.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::atm {

namespace c = foam::constants;

namespace {
constexpr int kTagSouth = 210;
constexpr int kTagNorth = 211;
}  // namespace

AtmosphereModel::AtmosphereModel(const AtmConfig& cfg, par::Comm* comm)
    : cfg_(cfg),
      comm_(comm),
      grid_(cfg.nlon, cfg.nlat),
      st_(grid_, cfg.mmax),
      pst_(st_, comm),
      j0_(pst_.lats().lo),
      j1_(pst_.lats().hi),
      dyn_(cfg_, pst_),
      levels_(cfg.nlev),
      t3_(cfg.nlon, cfg.nlat, cfg.nlev, 260.0),
      q3_(cfg.nlon, cfg.nlat, cfg.nlev, 1e-3),
      rad_heat_(cfg.nlon, cfg.nlat, cfg.nlev, 0.0),
      sfc_(cfg.nlon, cfg.nlat),
      flux_accum_(cfg.nlon, cfg.nlat),
      flux_last_(cfg.nlon, cfg.nlat) {
  FOAM_REQUIRE(j1_ > j0_, "an atmosphere rank without latitude rows");
  set_team(nullptr);
}

AtmosphereModel::MemberScratch::MemberScratch(int nlev,
                                              std::size_t advect_size)
    : heat(nlev), t_next(advect_size), q_next(advect_size) {
  col.t.resize(nlev);
  col.q.resize(nlev);
}

template <typename Body>
void AtmosphereModel::row_chunks(Body&& body) {
  par::for_chunks(team_, j1_ - j0_, [&](int m, int lo, int hi) {
    body(m, j0_ + lo, j0_ + hi);
  });
}

void AtmosphereModel::init_default(unsigned seed) {
  const auto sig = sigma_levels(cfg_.nlev);
  for (int j = 0; j < cfg_.nlat; ++j) {
    const double lat = grid_.lat(j);
    const double tsfc =
        259.0 + 38.0 * std::exp(-std::pow(lat / (35.0 * c::deg2rad), 2.0));
    for (int i = 0; i < cfg_.nlon; ++i) {
      for (int k = 0; k < cfg_.nlev; ++k) {
        const double z = -7500.0 * std::log(sig[k]);
        const double t = std::max(208.0, tsfc - 6.5e-3 * z);
        t3_(i, j, k) = t;
        q3_(i, j, k) = std::min(
            0.02, 0.75 * saturation_q(t, sig[k] * c::p_ref));
      }
    }
  }
  dyn_.init(seed);
  steps_ = 0;
  last_radiation_step_ = -1000000;
  reset_flux_accumulation();
}

void AtmosphereModel::set_surface(const SurfaceFields& sfc) { sfc_ = sfc; }

void AtmosphereModel::set_team(par::Team* team) {
  team_ = team;
  pst_.set_team(team);
  // Member 0's chunk is the largest (block_range gives remainders to the
  // lowest members), so every member's advected rows fit its size.
  const int members = team != nullptr ? team->size() : 1;
  const std::size_t rows = static_cast<std::size_t>(
      par::Team::chunk(j1_ - j0_, members, 0).count());
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(members));
  for (int m = 0; m < members; ++m)
    scratch_.emplace_back(cfg_.nlev, rows * static_cast<std::size_t>(
                                                cfg_.nlon * cfg_.nlev));
}

void AtmosphereModel::reset_flux_accumulation() {
  flux_accum_ = FluxFields(cfg_.nlon, cfg_.nlat);
  flux_steps_ = 0;
}

void AtmosphereModel::exchange_halo(Field3Dd& f) {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int r = comm_->rank();
  const int nx = cfg_.nlon;
  const int nz = cfg_.nlev;
  std::vector<double> row(static_cast<std::size_t>(nx) * nz);
  auto pack = [&](int j) {
    for (int k = 0; k < nz; ++k)
      for (int i = 0; i < nx; ++i)
        row[static_cast<std::size_t>(k) * nx + i] = f(i, j, k);
  };
  auto unpack = [&](int j) {
    for (int k = 0; k < nz; ++k)
      for (int i = 0; i < nx; ++i)
        f(i, j, k) = row[static_cast<std::size_t>(k) * nx + i];
  };
  if (r > 0) {
    pack(j0_);
    comm_->send_vec(r - 1, kTagSouth, row);
  }
  if (r < comm_->size() - 1) {
    pack(j1_ - 1);
    comm_->send_vec(r + 1, kTagNorth, row);
  }
  if (r < comm_->size() - 1) {
    comm_->recv_vec(r + 1, kTagSouth, row);
    unpack(j1_);
  }
  if (r > 0) {
    comm_->recv_vec(r - 1, kTagNorth, row);
    unpack(j0_ - 1);
  }
}

void AtmosphereModel::advect_tracers() {
  const double dt = cfg_.dt;
  const int nx = cfg_.nlon;
  exchange_halo(t3_);
  exchange_halo(q3_);
  // Upwind differences read rows j - 1 and j + 1, which another member may
  // own: each member writes its rows' new values into its own buffers, and
  // a second pass over the same chunks copies them back once every member
  // has finished reading. Buffer layout: [k][j - lo][i].
  row_chunks([&](int m, int lo, int hi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    const int rows = hi - lo;
    for (int k = 0; k < cfg_.nlev; ++k) {
      // Dynamical level carrying this physics level.
      const int l = std::min(cfg_.ndyn - 1, k * cfg_.ndyn / cfg_.nlev);
      const auto& uu = dyn_.u(l);
      const auto& vv = dyn_.v(l);
      for (int j = lo; j < hi; ++j) {
        const double dxj =
            c::earth_radius * std::cos(grid_.lat(j)) * c::two_pi / nx;
        const double dyj = c::pi * c::earth_radius / cfg_.nlat;
        // CFL clamp for the polar rows (effective zonal resolution shrinks;
        // the wind used for transport is capped — the grid analogue of the
        // spectral model's polar treatment).
        const double umax = 0.8 * dxj / dt;
        const double vmax = 0.8 * dyj / dt;
        const std::size_t at =
            (static_cast<std::size_t>(k) * rows + (j - lo)) * nx;
        double* t_out = sc.t_next.data() + at;
        double* q_out = sc.q_next.data() + at;
        for (int i = 0; i < nx; ++i) {
          const double ua = std::clamp(uu(i, j), -umax, umax);
          const double va = std::clamp(vv(i, j), -vmax, vmax);
          const auto upwind = [&](const Field3Dd& f) {
            double tend = 0.0;
            // Upwind in both directions.
            if (ua > 0.0) {
              tend -= ua * (f(i, j, k) - f.wrap_x(i - 1, j, k)) / dxj;
            } else {
              tend -= ua * (f.wrap_x(i + 1, j, k) - f(i, j, k)) / dxj;
            }
            if (va > 0.0 && j - 1 >= 0) {
              tend -= va * (f(i, j, k) - f(i, j - 1, k)) / dyj;
            } else if (va < 0.0 && j + 1 < cfg_.nlat) {
              tend -= va * (f(i, j + 1, k) - f(i, j, k)) / dyj;
            }
            return f(i, j, k) + dt * tend;
          };
          t_out[i] = upwind(t3_);
          q_out[i] = upwind(q3_);
        }
      }
    }
  });
  row_chunks([&](int m, int lo, int hi) {
    const MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    const int rows = hi - lo;
    const std::size_t bytes = static_cast<std::size_t>(nx) * sizeof(double);
    for (int k = 0; k < cfg_.nlev; ++k)
      for (int j = lo; j < hi; ++j) {
        const std::size_t at =
            (static_cast<std::size_t>(k) * rows + (j - lo)) * nx;
        std::memcpy(&t3_(0, j, k), sc.t_next.data() + at, bytes);
        std::memcpy(&q3_(0, j, k), sc.q_next.data() + at, bytes);
      }
  });
}

double AtmosphereModel::cos_zenith_at(int i, int j,
                                      const ModelTime& now) const {
  // Daily-mean effective zenith: radiation is recomputed twice daily from
  // the daily-mean insolation (the reduced core carries no diurnal cycle).
  (void)i;
  const double q =
      data::daily_mean_insolation(grid_.lat(j), now.fractional_day_of_year());
  return q / c::solar_constant;
}

void AtmosphereModel::load_column(int i, int j, Column& col,
                                  Surface& s) const {
  for (int k = 0; k < cfg_.nlev; ++k) {
    col.t[k] = t3_(i, j, k);
    col.q[k] = q3_(i, j, k);
  }
  s.tsurf = sfc_.tsurf(i, j);
  s.albedo = sfc_.albedo(i, j);
  s.roughness = sfc_.roughness(i, j);
  s.wetness = sfc_.wetness(i, j);
  s.is_ocean = sfc_.is_ocean(i, j) != 0;
  s.is_ice = sfc_.is_ice(i, j) != 0;
}

void AtmosphereModel::update_radiation_cache(const ModelTime& now) {
  row_chunks([&](int m, int lo, int hi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    for (int j = lo; j < hi; ++j) {
      for (int i = 0; i < cfg_.nlon; ++i) {
        Surface s;
        load_column(i, j, sc.col, s);
        ColumnFluxes rf;
        radiation_heating(cfg_, levels_, sc.col, s, cos_zenith_at(i, j, now),
                          sc.heat, rf);
        for (int k = 0; k < cfg_.nlev; ++k) rad_heat_(i, j, k) = sc.heat[k];
        // Cache the radiative surface fluxes in flux_last_ (per-step flux
        // accumulation adds them below).
        flux_last_.sw_sfc(i, j) = rf.sw_absorbed_sfc;
        flux_last_.lw_down(i, j) = rf.lw_down_sfc;
      }
    }
  });
  // Extra cost of a radiation step (the "particularly long atmosphere
  // steps" of Fig. 2).
  work_points_ += 6.0 * static_cast<double>(j1_ - j0_) * cfg_.nlon *
                  cfg_.nlev;
}

void AtmosphereModel::update_thermal_jet(par::Comm* comm) {
  // Zonal-mean lower-tropospheric temperature -> surface jet target.
  const int k_low = 5 * cfg_.nlev / 6;
  std::vector<double> tbar(cfg_.nlat, 0.0);
  for (int j = j0_; j < j1_; ++j) {
    double sum = 0.0;
    for (int i = 0; i < cfg_.nlon; ++i) sum += t3_(i, j, k_low);
    tbar[j] = sum / cfg_.nlon;
  }
  if (comm != nullptr && comm->size() > 1) {
    std::vector<double> out(cfg_.nlat, 0.0);
    comm->allreduce(std::span<const double>(tbar),
                    std::span<double>(out), par::ReduceOp::kSum);
    tbar.swap(out);
  }
  std::vector<double> ujet(cfg_.nlat);
  for (int j = 0; j < cfg_.nlat; ++j) {
    const double lat = grid_.lat(j);
    const double envelope =
        std::exp(-std::pow(lat / (75.0 * c::deg2rad), 8.0));
    double base = -7.0 * std::cos(3.0 * lat) * envelope;
    // Thermal-wind increment from the meridional temperature gradient.
    const int jm = std::max(0, j - 1);
    const int jp = std::min(cfg_.nlat - 1, j + 1);
    const double dtdy = (tbar[jp] - tbar[jm]) / std::max(1, jp - jm);
    base += -1.2 * dtdy * std::sin(lat);
    ujet[j] = std::clamp(base, -25.0, 25.0);
  }
  dyn_.set_thermal_jet(ujet);
}

void AtmosphereModel::run_physics(const ModelTime& now) {
  (void)now;
  const auto& us = u_sfc();
  const auto& vs = v_sfc();
  row_chunks([&](int m, int lo, int hi) {
    MemberScratch& sc = scratch_[static_cast<std::size_t>(m)];
    Column& col = sc.col;
    for (int j = lo; j < hi; ++j) {
      for (int i = 0; i < cfg_.nlon; ++i) {
        Surface s;
        load_column(i, j, col, s);
        for (int k = 0; k < cfg_.nlev; ++k) sc.heat[k] = rad_heat_(i, j, k);
        const ColumnFluxes f = step_column_physics(
            cfg_, levels_, col, s, sc.heat, us(i, j), vs(i, j), cfg_.dt);
        for (int k = 0; k < cfg_.nlev; ++k) {
          // Physical-range guards: excursions beyond these are numerical.
          t3_(i, j, k) = std::clamp(col.t[k], 170.0, 330.0);
          q3_(i, j, k) = std::clamp(col.q[k], 0.0, 0.04);
        }
        flux_last_.sensible(i, j) = f.sensible;
        flux_last_.latent(i, j) = f.latent;
        flux_last_.evaporation(i, j) = f.evaporation;
        flux_last_.rain(i, j) = f.precip_rain;
        flux_last_.snow(i, j) = f.precip_snow;
        flux_last_.taux(i, j) = f.taux;
        flux_last_.tauy(i, j) = f.tauy;
        // Accumulate for the coupler.
        flux_accum_.sw_sfc(i, j) += flux_last_.sw_sfc(i, j);
        flux_accum_.lw_down(i, j) += flux_last_.lw_down(i, j);
        flux_accum_.sensible(i, j) += f.sensible;
        flux_accum_.latent(i, j) += f.latent;
        flux_accum_.evaporation(i, j) += f.evaporation;
        flux_accum_.rain(i, j) += f.precip_rain;
        flux_accum_.snow(i, j) += f.precip_snow;
        flux_accum_.taux(i, j) += f.taux;
        flux_accum_.tauy(i, j) += f.tauy;
      }
    }
  });
  ++flux_steps_;
  work_points_ += 2.0 * static_cast<double>(j1_ - j0_) * cfg_.nlon *
                  cfg_.nlev;
}

void AtmosphereModel::step(const ModelTime& now) {
  FOAM_TRACE_SCOPE("atm.step");
  // Radiation on its period (twice daily by default).
  const auto period_steps =
      static_cast<std::int64_t>(cfg_.radiation_period / cfg_.dt);
  if (steps_ - last_radiation_step_ >= period_steps) {
    FOAM_TRACE_SCOPE("atm.radiation");
    update_radiation_cache(now);
    update_thermal_jet(comm_);
    last_radiation_step_ = steps_;
  }
  {
    FOAM_TRACE_SCOPE("atm.dynamics");
    dyn_.step();
  }
  if (cfg_.emulate_full_core_cost) {
    FOAM_TRACE_SCOPE("atm.emulate_core");
    // One synthesis + analysis per physics level beyond the reduced core:
    // the transform work the full 18-level PCCM2 core would perform. The
    // levels are independent, so each rep moves the whole level stack
    // through one batched analysis and one batched synthesis.
    const int nem = cfg_.nlev - cfg_.ndyn;
    std::vector<Field2Dd> scratch(nem, Field2Dd(cfg_.nlon, cfg_.nlat, 0.0));
    std::vector<const Field2Dd*> in_ptrs(nem);
    std::vector<Field2Dd*> out_ptrs(nem);
    for (int k = cfg_.ndyn; k < cfg_.nlev; ++k) {
      Field2Dd& sc = scratch[k - cfg_.ndyn];
      for (int j = j0_; j < j1_; ++j)
        for (int i = 0; i < cfg_.nlon; ++i) sc(i, j) = t3_(i, j, k);
      in_ptrs[k - cfg_.ndyn] = &sc;
      out_ptrs[k - cfg_.ndyn] = &sc;
    }
    for (int rep = 0; rep < cfg_.emulate_transforms_per_level; ++rep) {
      std::vector<numerics::SpectralField> sps = pst_.analyze_batch(in_ptrs);
      std::vector<const numerics::SpectralField*> sp_ptrs(nem);
      for (int n = 0; n < nem; ++n) sp_ptrs[n] = &sps[n];
      pst_.synthesize_batch(sp_ptrs, out_ptrs);
      work_points_ +=
          static_cast<double>(nem) * (j1_ - j0_) * cfg_.nlon;
    }
  }
  {
    FOAM_TRACE_SCOPE("atm.advect");
    advect_tracers();
  }
  {
    FOAM_TRACE_SCOPE("atm.physics");
    run_physics(now);
  }
  ++steps_;
}

void AtmosphereModel::save_state(HistoryWriter& out,
                                 const std::string& prefix) const {
  out.write(prefix + ".t3", t3_);
  out.write(prefix + ".q3", q3_);
  out.write(prefix + ".rad_heat", rad_heat_);
  out.write(prefix + ".sw_cache", flux_last_.sw_sfc);
  out.write(prefix + ".lwd_cache", flux_last_.lw_down);
  out.write_scalar(prefix + ".steps", static_cast<double>(steps_));
  out.write_scalar(prefix + ".last_rad",
                   static_cast<double>(last_radiation_step_));
  dyn_.save_state(out, prefix + ".dyn");
}

void AtmosphereModel::load_state(const HistoryReader& in,
                                 const std::string& prefix) {
  auto load3 = [&](const std::string& name, Field3Dd& f) {
    const auto& rec = in.find(name);
    FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint size " << name);
    std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
  };
  auto load2 = [&](const std::string& name, Field2Dd& f) {
    const auto& rec = in.find(name);
    FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint size " << name);
    std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
  };
  load3(prefix + ".t3", t3_);
  load3(prefix + ".q3", q3_);
  load3(prefix + ".rad_heat", rad_heat_);
  load2(prefix + ".sw_cache", flux_last_.sw_sfc);
  load2(prefix + ".lwd_cache", flux_last_.lw_down);
  steps_ = static_cast<std::int64_t>(in.find(prefix + ".steps").data[0]);
  last_radiation_step_ =
      static_cast<std::int64_t>(in.find(prefix + ".last_rad").data[0]);
  dyn_.load_state(in, prefix + ".dyn");
  reset_flux_accumulation();
}

double AtmosphereModel::mean_t_sfc_level() const {
  double num = 0.0, den = 0.0;
  const int kb = cfg_.nlev - 1;
  for (int j = j0_; j < j1_; ++j) {
    const double w = grid_.gauss_weight(j);
    for (int i = 0; i < cfg_.nlon; ++i) {
      num += w * t3_(i, j, kb);
      den += w;
    }
  }
  if (comm_ != nullptr && comm_->size() > 1) {
    num = comm_->allreduce_scalar(num, par::ReduceOp::kSum);
    den = comm_->allreduce_scalar(den, par::ReduceOp::kSum);
  }
  return num / den;
}

double AtmosphereModel::mean_precip() const {
  double num = 0.0, den = 0.0;
  for (int j = j0_; j < j1_; ++j) {
    const double w = grid_.gauss_weight(j);
    for (int i = 0; i < cfg_.nlon; ++i) {
      num += w * (flux_last_.rain(i, j) + flux_last_.snow(i, j));
      den += w;
    }
  }
  if (comm_ != nullptr && comm_->size() > 1) {
    num = comm_->allreduce_scalar(num, par::ReduceOp::kSum);
    den = comm_->allreduce_scalar(den, par::ReduceOp::kSum);
  }
  return num / den;
}

}  // namespace foam::atm
