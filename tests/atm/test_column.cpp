#include "atm/column.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::atm {
namespace {

namespace c = foam::constants;

Column tropical_column(int nlev = 18) {
  Column col;
  col.t.resize(nlev);
  col.q.resize(nlev);
  const auto sig = sigma_levels(nlev);
  for (int k = 0; k < nlev; ++k) {
    const double z = -7500.0 * std::log(sig[k]);
    col.t[k] = std::max(205.0, 300.0 - 6.5e-3 * z);
    col.q[k] = 0.8 * saturation_q(col.t[k], sig[k] * c::p_ref);
  }
  return col;
}

const LevelTable kLevels(18);

/// Radiation of \p col on its own level table; returns the heating rates.
std::vector<double> radiate(const AtmConfig& cfg, const Column& col,
                            const Surface& sfc, double cos_zenith,
                            ColumnFluxes& fluxes) {
  const LevelTable lev(static_cast<int>(col.t.size()), col.ps);
  std::vector<double> heat(col.t.size());
  radiation_heating(cfg, lev, col, sfc, cos_zenith, heat, fluxes);
  return heat;
}

TEST(SigmaLevels, MonotoneTopToSurface) {
  const auto sig = sigma_levels(18);
  ASSERT_EQ(sig.size(), 18u);
  EXPECT_LT(sig.front(), 0.05);
  EXPECT_GT(sig.back(), 0.9);
  for (std::size_t k = 1; k < sig.size(); ++k) EXPECT_GT(sig[k], sig[k - 1]);
}

TEST(LevelTable, EntriesAreTheColumnCodesOwnCalls) {
  for (const double ps : {kDefaultSurfacePressure, 0.97e5}) {
    const LevelTable lev(18, ps);
    const auto sig = sigma_levels(18);
    ASSERT_EQ(lev.nlev(), 18);
    EXPECT_EQ(lev.ps, ps);
    for (int k = 0; k < 18; ++k) {
      EXPECT_EQ(lev.sigma[k], sig[k]);
      EXPECT_EQ(lev.p[k], sig[k] * ps);
      EXPECT_EQ(lev.to_theta[k], std::pow(c::p_ref / (sig[k] * ps), c::kappa));
      EXPECT_EQ(lev.from_theta[k], std::pow(sig[k] * ps / c::p_ref, c::kappa));
      EXPECT_EQ(lev.log_pref_p[k], std::log(c::p_ref / (sig[k] * ps)));
    }
  }
}

TEST(LevelTable, ColumnOfAnotherPressureOrDepthIsRejected) {
  AtmConfig cfg;
  Surface sfc;
  std::vector<double> rad(18, 0.0);
  Column col = tropical_column();
  col.ps = 0.97e5;
  EXPECT_THROW(moist_convection(cfg, kLevels, col, 1800.0), Error);
  EXPECT_THROW(large_scale_condensation(cfg, kLevels, col, 1800.0), Error);
  EXPECT_THROW(
      step_column_physics(cfg, kLevels, col, sfc, rad, 5.0, 0.0, 1800.0),
      Error);
  ColumnFluxes f;
  EXPECT_THROW(radiation_heating(cfg, kLevels, col, sfc, 0.4, rad, f), Error);
  EXPECT_NO_THROW(
      moist_convection(cfg, LevelTable(18, col.ps), col, 1800.0));
  Column shallow = tropical_column(10);
  EXPECT_THROW(large_scale_condensation(cfg, kLevels, shallow, 1800.0), Error);
}

TEST(SaturationQ, KnownValuesAndMonotonicity) {
  // ~288 K at the surface: qsat ~ 10-12 g/kg.
  const double q288 = saturation_q(288.0, 1.0e5);
  EXPECT_GT(q288, 0.008);
  EXPECT_LT(q288, 0.014);
  // Increases with T, decreases with p.
  EXPECT_GT(saturation_q(298.0, 1.0e5), q288);
  EXPECT_GT(saturation_q(288.0, 8.0e4), q288);
}

TEST(BulkTransfer, StabilityDependence) {
  const double neutral = bulk_transfer_coefficient(70.0, 1e-4, 0.0);
  const double unstable = bulk_transfer_coefficient(70.0, 1e-4, -0.5);
  const double stable = bulk_transfer_coefficient(70.0, 1e-4, 0.5);
  EXPECT_GT(unstable, neutral);
  EXPECT_LT(stable, neutral);
  EXPECT_GT(stable, 0.0);
  // Rougher surfaces exchange more.
  EXPECT_GT(bulk_transfer_coefficient(70.0, 1e-2, 0.0), neutral);
}

TEST(OceanRoughness, Ccm3GrowsWithWind) {
  const double calm = ocean_roughness_ccm3(2.0);
  const double gale = ocean_roughness_ccm3(20.0);
  EXPECT_GT(gale, calm);
  EXPECT_GE(calm, 1.5e-5);  // smooth-flow floor
}

TEST(Radiation, GreenhouseResponseToCo2) {
  AtmConfig cfg;
  Column col = tropical_column();
  Surface sfc;
  sfc.tsurf = 300.0;
  ColumnFluxes f1, f4;
  cfg.co2_factor = 1.0;
  radiate(cfg, col, sfc, 0.4, f1);
  cfg.co2_factor = 4.0;
  radiate(cfg, col, sfc, 0.4, f4);
  // More CO2: more downward longwave, less OLR (greenhouse).
  EXPECT_GT(f4.lw_down_sfc, f1.lw_down_sfc);
  EXPECT_LT(f4.olr, f1.olr);
}

TEST(Radiation, EnergeticallyPlausible) {
  AtmConfig cfg;
  Column col = tropical_column();
  Surface sfc;
  sfc.tsurf = 300.0;
  sfc.albedo = 0.07;
  ColumnFluxes f;
  radiate(cfg, col, sfc, 0.4, f);
  EXPECT_GT(f.sw_absorbed_sfc, 100.0);
  EXPECT_LT(f.sw_absorbed_sfc, 450.0);
  EXPECT_GT(f.lw_down_sfc, 200.0);
  EXPECT_LT(f.lw_down_sfc, 480.0);
  EXPECT_GT(f.olr, 120.0);
  EXPECT_LT(f.olr, 380.0);
  // Dark surface absorbs more than a bright one.
  Surface icy = sfc;
  icy.albedo = 0.65;
  ColumnFluxes fi;
  radiate(cfg, col, icy, 0.4, fi);
  EXPECT_LT(fi.sw_absorbed_sfc, f.sw_absorbed_sfc);
}

TEST(Radiation, NightHasNoShortwave) {
  AtmConfig cfg;
  Column col = tropical_column();
  Surface sfc;
  ColumnFluxes f;
  radiate(cfg, col, sfc, 0.0, f);
  EXPECT_DOUBLE_EQ(f.sw_absorbed_sfc, 0.0);
  EXPECT_GT(f.lw_down_sfc, 0.0);  // longwave continues
}

TEST(Convection, Ccm3DeepConvectionRainsMoreInWarmPoolConditions) {
  // The paper's §6 mechanism in one column: over a very warm, moist
  // surface the CCM3 deep convection produces substantially more rain
  // than the CCM2 adjustment alone.
  AtmConfig ccm2;
  ccm2.physics = PhysicsVersion::kCcm2;
  AtmConfig ccm3;
  ccm3.physics = PhysicsVersion::kCcm3;
  double rain2 = 0.0, rain3 = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    Column a = tropical_column();
    Column b = tropical_column();
    // Load the boundary layer with moisture (post-evaporation state).
    a.q.back() = 0.9 * saturation_q(a.t.back(), 0.97e5);
    b.q.back() = a.q.back();
    rain2 += moist_convection(ccm2, kLevels, a, 1800.0);
    rain3 += moist_convection(ccm3, kLevels, b, 1800.0);
  }
  EXPECT_GT(rain3, rain2 * 1.2);
}

TEST(Convection, StabilizesAnUnstableColumn) {
  AtmConfig cfg;
  Column col = tropical_column();
  // Make the boundary layer explosively buoyant.
  col.t.back() += 8.0;
  col.q.back() = saturation_q(col.t.back(), 0.97e5);
  const double rain = moist_convection(cfg, kLevels, col, 1800.0);
  EXPECT_GE(rain, 0.0);
  for (const double qv : col.q) EXPECT_GE(qv, -1e-12);
  for (const double tv : col.t) {
    EXPECT_GT(tv, 150.0);
    EXPECT_LT(tv, 350.0);
  }
}

TEST(Condensation, RemovesSupersaturationAndWarms) {
  AtmConfig cfg;
  Column col = tropical_column();
  const int k = 12;
  const auto sig = sigma_levels(18);
  col.q[k] = 1.4 * saturation_q(col.t[k], sig[k] * col.ps);
  const double t_before = col.t[k];
  const double rain = large_scale_condensation(cfg, kLevels, col, 1800.0);
  EXPECT_GT(rain, 0.0);
  EXPECT_GT(col.t[k], t_before);  // latent heating
  EXPECT_LE(col.q[k],
            saturation_q(col.t[k], sig[k] * col.ps) * 1.0001);
}

TEST(Condensation, Ccm3EvaporatesFallingRain) {
  // With dry layers below, CCM3 re-evaporates part of the stratiform rain:
  // less rain reaches the ground than under CCM2.
  AtmConfig ccm2;
  ccm2.physics = PhysicsVersion::kCcm2;
  AtmConfig ccm3;
  ccm3.physics = PhysicsVersion::kCcm3;
  auto make = []() {
    Column col = tropical_column();
    const auto sig = sigma_levels(18);
    col.q[6] = 1.5 * saturation_q(col.t[6], sig[6] * col.ps);
    for (int k = 7; k < 18; ++k) col.q[k] *= 0.3;  // dry below
    return col;
  };
  Column a = make();
  Column b = make();
  const double r2 = large_scale_condensation(ccm2, kLevels, a, 1800.0);
  const double r3 = large_scale_condensation(ccm3, kLevels, b, 1800.0);
  EXPECT_LT(r3, r2);
  // The evaporated water moistens the sub-cloud layers.
  EXPECT_GT(b.q[8], a.q[8]);
}

TEST(ColumnStep, FluxesPhysicalOverWarmOcean) {
  AtmConfig cfg;
  Column col = tropical_column();
  Surface sfc;
  sfc.tsurf = 302.0;
  sfc.is_ocean = true;
  std::vector<double> rad(18, 0.0);
  const ColumnFluxes f =
      step_column_physics(cfg, kLevels, col, sfc, rad, 6.0, 1.0, 1800.0);
  EXPECT_GT(f.latent, 0.0);
  EXPECT_LT(f.latent, 600.0);
  EXPECT_GT(f.evaporation, 0.0);
  // Stress aligned with the wind.
  EXPECT_GT(f.taux, 0.0);
  EXPECT_GT(f.taux, f.tauy * 0.9);
  EXPECT_FALSE(std::isnan(f.sensible));
}

TEST(ColumnStep, WetnessLimitsEvaporation) {
  AtmConfig cfg;
  Column a = tropical_column();
  Column b = tropical_column();
  Surface wet;
  wet.tsurf = 300.0;
  wet.is_ocean = false;
  wet.wetness = 1.0;
  Surface dry = wet;
  dry.wetness = 0.1;
  std::vector<double> rad(18, 0.0);
  const auto fw =
      step_column_physics(cfg, kLevels, a, wet, rad, 5.0, 0.0, 1800.0);
  const auto fd =
      step_column_physics(cfg, kLevels, b, dry, rad, 5.0, 0.0, 1800.0);
  EXPECT_NEAR(fd.evaporation, 0.1 * fw.evaporation,
              0.05 * fw.evaporation + 1e-9);
}

TEST(ColumnStep, SnowWhenCold) {
  AtmConfig cfg;
  Column col = tropical_column();
  for (auto& t : col.t) t -= 45.0;  // polar column
  for (std::size_t k = 0; k < col.q.size(); ++k)
    col.q[k] = 1.2 * saturation_q(col.t[k],
                                  sigma_levels(18)[k] * col.ps);
  Surface sfc;
  sfc.tsurf = 255.0;
  std::vector<double> rad(18, 0.0);
  const auto f =
      step_column_physics(cfg, kLevels, col, sfc, rad, 4.0, 0.0, 1800.0);
  EXPECT_GT(f.precip_snow, 0.0);
  EXPECT_DOUBLE_EQ(f.precip_rain, 0.0);
}

}  // namespace
}  // namespace foam::atm
