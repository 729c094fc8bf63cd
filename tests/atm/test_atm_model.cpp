#include "atm/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "atm/dynamics.hpp"
#include "numerics/spectral.hpp"
#include "par/comm.hpp"

namespace foam::atm {
namespace {

SurfaceFields warm_ocean_surface(const numerics::GaussianGrid& grid) {
  SurfaceFields sfc(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) * 57.2958;
    for (int i = 0; i < grid.nlon(); ++i) {
      sfc.tsurf(i, j) =
          273.15 +
          std::max(-1.9, -2.0 + 30.0 * std::exp(-lat * lat / 1024.0));
      sfc.albedo(i, j) = 0.08;
    }
  }
  return sfc;
}

TEST(SpectralDynamics, JetsAndBoundedEnstrophy) {
  AtmConfig cfg = AtmConfig::testing();
  numerics::GaussianGrid grid(cfg.nlon, cfg.nlat);
  numerics::SpectralTransform st(grid, cfg.mmax);
  const numerics::ParSpectralTransform pst(st);
  SpectralDynamics dyn(cfg, pst);
  dyn.init();
  const double e0 = dyn.total_enstrophy();
  EXPECT_GT(e0, 0.0);
  for (int s = 0; s < 48 * 5; ++s) dyn.step();
  const double e1 = dyn.total_enstrophy();
  EXPECT_GT(e1, 0.0);
  EXPECT_LT(e1, 100.0 * e0);  // bounded by relaxation + del^4
  // Midlatitude westerlies at the upper level (zonal mean).
  int j_mid = 3 * cfg.nlat / 4;  // ~+45 deg
  double ubar = 0.0;
  for (int i = 0; i < cfg.nlon; ++i) ubar += dyn.u(0)(i, j_mid);
  ubar /= cfg.nlon;
  EXPECT_GT(ubar, 3.0);
  EXPECT_LT(ubar, 80.0);
}

TEST(SpectralDynamics, EddiesDevelop) {
  // The stochastic baroclinic stirring must generate deviations from the
  // zonal mean ("weather") within a few days.
  AtmConfig cfg = AtmConfig::testing();
  numerics::GaussianGrid grid(cfg.nlon, cfg.nlat);
  numerics::SpectralTransform st(grid, cfg.mmax);
  const numerics::ParSpectralTransform pst(st);
  SpectralDynamics dyn(cfg, pst);
  dyn.init();
  for (int s = 0; s < 48 * 10; ++s) dyn.step();
  double eddy = 0.0;
  for (int j = cfg.nlat / 4; j < 3 * cfg.nlat / 4; ++j) {
    double zbar = 0.0;
    for (int i = 0; i < cfg.nlon; ++i) zbar += dyn.u(0)(i, j);
    zbar /= cfg.nlon;
    for (int i = 0; i < cfg.nlon; ++i)
      eddy = std::max(eddy, std::abs(dyn.u(0)(i, j) - zbar));
  }
  EXPECT_GT(eddy, 0.5);
}

TEST(SpectralDynamics, ThermalJetRespondsToGradient) {
  AtmConfig cfg = AtmConfig::testing();
  numerics::GaussianGrid grid(cfg.nlon, cfg.nlat);
  numerics::SpectralTransform st(grid, cfg.mmax);
  const numerics::ParSpectralTransform pst(st);
  SpectralDynamics dyn(cfg, pst);
  dyn.init();
  std::vector<double> target(cfg.nlat, 12.0);
  dyn.set_thermal_jet(target);
  for (int s = 0; s < 48 * 20; ++s) dyn.step();
  // The lowest level relaxes toward the prescribed westerly target.
  double ubar = 0.0;
  int n = 0;
  for (int j = cfg.nlat / 4; j < 3 * cfg.nlat / 4; ++j)
    for (int i = 0; i < cfg.nlon; ++i) {
      ubar += dyn.u(cfg.ndyn - 1)(i, j);
      ++n;
    }
  ubar /= n;
  EXPECT_GT(ubar, 2.0);
}

TEST(AtmosphereModel, FiveDaysStablePhysicalState) {
  AtmConfig cfg = AtmConfig::testing();
  AtmosphereModel m(cfg);
  m.init_default();
  m.set_surface(warm_ocean_surface(m.grid()));
  ModelTime now;
  for (int s = 0; s < 48 * 5; ++s) {
    m.step(now);
    now.advance(1800);
  }
  EXPECT_FALSE(has_non_finite(m.temperature()));
  EXPECT_FALSE(has_non_finite(m.moisture()));
  const double tb = m.mean_t_sfc_level();
  EXPECT_GT(tb, 255.0);
  EXPECT_LT(tb, 305.0);
  const double p = m.mean_precip() * 86400.0;  // mm/day
  EXPECT_GT(p, 0.2);
  EXPECT_LT(p, 12.0);
  // Moisture within physical limits everywhere.
  EXPECT_LE(m.moisture().max(), 0.04 + 1e-12);
  EXPECT_GE(m.moisture().min(), 0.0);
}

TEST(AtmosphereModel, FluxAccumulationAndReset) {
  AtmConfig cfg = AtmConfig::testing();
  AtmosphereModel m(cfg);
  m.init_default();
  m.set_surface(warm_ocean_surface(m.grid()));
  ModelTime now;
  for (int s = 0; s < 12; ++s) {
    m.step(now);
    now.advance(1800);
  }
  EXPECT_EQ(m.accumulated_steps(), 12);
  EXPECT_GT(m.accumulated_fluxes().sw_sfc.max(), 0.0);
  m.reset_flux_accumulation();
  EXPECT_EQ(m.accumulated_steps(), 0);
  EXPECT_DOUBLE_EQ(m.accumulated_fluxes().sw_sfc.max_abs(), 0.0);
}

TEST(AtmosphereModel, Ccm3WetterTropicsThanCcm2) {
  // §6: the CCM3 moist physics changes the tropical precipitation.
  auto tropics_rain = [](PhysicsVersion phys) {
    AtmConfig cfg = AtmConfig::testing();
    cfg.physics = phys;
    AtmosphereModel m(cfg);
    m.init_default();
    m.set_surface(warm_ocean_surface(m.grid()));
    ModelTime now;
    for (int s = 0; s < 48 * 4; ++s) {
      m.step(now);
      now.advance(1800);
    }
    double rain = 0.0;
    int n = 0;
    const auto& f = m.accumulated_fluxes();
    for (int j = 2 * cfg.nlat / 5; j < 3 * cfg.nlat / 5; ++j)
      for (int i = 0; i < cfg.nlon; ++i) {
        rain += f.rain(i, j);
        ++n;
      }
    return rain / n;
  };
  const double r2 = tropics_rain(PhysicsVersion::kCcm2);
  const double r3 = tropics_rain(PhysicsVersion::kCcm3);
  EXPECT_GT(r3, 0.0);
  EXPECT_NE(r2, r3);  // the physics switch must matter
}

TEST(AtmosphereModel, ParallelMatchesSerialMeans) {
  AtmConfig cfg = AtmConfig::testing();
  AtmosphereModel serial(cfg);
  serial.init_default();
  serial.set_surface(warm_ocean_surface(serial.grid()));
  ModelTime now;
  for (int s = 0; s < 24; ++s) {
    serial.step(now);
    now.advance(1800);
  }
  const double t_ref = serial.mean_t_sfc_level();

  par::run(2, [&](par::Comm& comm) {
    AtmosphereModel m(cfg, &comm);
    m.init_default();
    m.set_surface(warm_ocean_surface(m.grid()));
    ModelTime t;
    for (int s = 0; s < 24; ++s) {
      m.step(t);
      t.advance(1800);
    }
    EXPECT_NEAR(m.mean_t_sfc_level(), t_ref, 0.2);
  });
}

TEST(AtmosphereModel, CostEmulationIncreasesWork) {
  AtmConfig cheap = AtmConfig::testing();
  AtmConfig full = cheap;
  full.emulate_full_core_cost = true;
  AtmosphereModel a(cheap), b(full);
  a.init_default();
  b.init_default();
  ModelTime now;
  for (int s = 0; s < 12; ++s) {
    a.step(now);
    b.step(now);
    now.advance(1800);
  }
  EXPECT_GT(b.work_points(), 2.0 * a.work_points());
}

}  // namespace
}  // namespace foam::atm
