// Parameterized sweeps of the column physics: every level count and every
// surface type the coupler can hand over must produce bounded, physical
// behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "atm/column.hpp"
#include "base/constants.hpp"

namespace foam::atm {
namespace {

namespace c = foam::constants;

Column standard_column(int nlev, double tsfc) {
  Column col;
  col.t.resize(nlev);
  col.q.resize(nlev);
  const auto sig = sigma_levels(nlev);
  for (int k = 0; k < nlev; ++k) {
    const double z = -7500.0 * std::log(sig[k]);
    col.t[k] = std::max(205.0, tsfc - 6.5e-3 * z);
    col.q[k] = 0.7 * saturation_q(col.t[k], sig[k] * c::p_ref);
  }
  return col;
}

class LevelCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(LevelCountSweep, TenDaysOfPhysicsBounded) {
  const int nlev = GetParam();
  AtmConfig cfg;
  cfg.nlev = nlev;
  Column col = standard_column(nlev, 295.0);
  Surface sfc;
  sfc.tsurf = 293.0;
  const LevelTable lev(nlev);
  ColumnFluxes rad_fluxes;
  std::vector<double> cached(nlev);
  for (int step = 0; step < 480; ++step) {  // 10 days of 30-min steps
    if (step % 24 == 0)
      radiation_heating(cfg, lev, col, sfc, 0.35, cached, rad_fluxes);
    step_column_physics(cfg, lev, col, sfc, cached, 5.0, 1.0, 1800.0);
  }
  for (int k = 0; k < nlev; ++k) {
    EXPECT_GT(col.t[k], 150.0) << "nlev=" << nlev << " k=" << k;
    EXPECT_LT(col.t[k], 340.0) << "nlev=" << nlev << " k=" << k;
    EXPECT_GE(col.q[k], 0.0);
    EXPECT_LT(col.q[k], 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(LevelCounts, LevelCountSweep,
                         ::testing::Values(6, 10, 14, 18, 26));

/// (tsurf, albedo, wetness, is_ocean, is_ice)
using SurfaceCase = std::tuple<double, double, double, bool, bool>;

class SurfaceTypeSweep : public ::testing::TestWithParam<SurfaceCase> {};

TEST_P(SurfaceTypeSweep, FluxesPhysicalForEverySurface) {
  const auto [tsurf, albedo, wetness, is_ocean, is_ice] = GetParam();
  AtmConfig cfg;
  Column col = standard_column(18, std::min(300.0, tsurf + 3.0));
  Surface sfc;
  sfc.tsurf = tsurf;
  sfc.albedo = albedo;
  sfc.wetness = wetness;
  sfc.is_ocean = is_ocean;
  sfc.is_ice = is_ice;
  sfc.roughness = is_ice ? 5e-4 : (is_ocean ? 1e-4 : 0.05);
  std::vector<double> rad(18, 0.0);
  const ColumnFluxes f =
      step_column_physics(cfg, LevelTable(18), col, sfc, rad, 5.0, -2.0,
                          1800.0);
  EXPECT_TRUE(std::isfinite(f.sensible));
  EXPECT_TRUE(std::isfinite(f.latent));
  EXPECT_GE(f.evaporation, 0.0);
  EXPECT_LT(std::abs(f.sensible), 800.0);
  EXPECT_LT(f.latent, 1200.0);
  EXPECT_GE(f.precip_rain + f.precip_snow, 0.0);
  // Stress opposes... acts along the wind (u=5, v=-2).
  EXPECT_GT(f.taux, 0.0);
  EXPECT_LT(f.tauy, 0.0);
  // Ice surfaces sublimate (latent heat of sublimation > vaporization).
  if (is_ice && f.evaporation > 0.0) {
    EXPECT_NEAR(f.latent / f.evaporation, c::latent_sub, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SurfaceTypes, SurfaceTypeSweep,
    ::testing::Values(SurfaceCase{302.0, 0.07, 1.0, true, false},   // warm ocean
                      SurfaceCase{271.3, 0.65, 1.0, true, true},    // sea ice
                      SurfaceCase{310.0, 0.32, 0.05, false, false}, // desert
                      SurfaceCase{288.0, 0.13, 0.8, false, false},  // forest
                      SurfaceCase{255.0, 0.75, 1.0, false, false},  // snow/ice sheet
                      SurfaceCase{275.0, 0.20, 0.5, false, false})); // cool plains

class Co2Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Co2Sweep, GreenhouseMonotone) {
  // Downward longwave grows monotonically with CO2 at fixed state.
  const double co2 = GetParam();
  AtmConfig lo_cfg, hi_cfg;
  lo_cfg.co2_factor = co2;
  hi_cfg.co2_factor = co2 * 2.0;
  const Column col = standard_column(18, 290.0);
  Surface sfc;
  sfc.tsurf = 289.0;
  ColumnFluxes f_lo, f_hi;
  Column a = col, b = col;
  const LevelTable lev(18);
  std::vector<double> heat(18);
  radiation_heating(lo_cfg, lev, a, sfc, 0.3, heat, f_lo);
  radiation_heating(hi_cfg, lev, b, sfc, 0.3, heat, f_hi);
  EXPECT_GT(f_hi.lw_down_sfc, f_lo.lw_down_sfc);
  EXPECT_LT(f_hi.olr, f_lo.olr + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Concentrations, Co2Sweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace foam::atm
