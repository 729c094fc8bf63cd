#include "ocean/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/earth.hpp"
#include "base/constants.hpp"
#include "base/history.hpp"
#include "par/team.hpp"
#include "ocean/vgrid.hpp"

namespace foam::ocean {
namespace {

/// Shared small-world fixture: 48x48 conformal-clipped grid, 8 levels.
struct SmallOcean {
  SmallOcean()
      : grid(48, 48, 60.0),
        bathy(data::bathymetry(grid)),
        cfg(OceanConfig::testing(48, 48, 8)) {}
  numerics::MercatorGrid grid;
  Field2Dd bathy;
  OceanConfig cfg;
};

TEST(VerticalGrid, StretchedLevelsSumToDepth) {
  VerticalGrid v(16, 25.0, 4800.0);
  EXPECT_EQ(v.nz(), 16);
  EXPECT_NEAR(v.z_bottom(15), 4800.0, 1e-6);
  EXPECT_NEAR(v.dz(0), 25.0, 1e-9);
  // Monotonically thickening with depth.
  for (int k = 1; k < 16; ++k) EXPECT_GT(v.dz(k), v.dz(k - 1));
  // Centers inside their layers.
  for (int k = 0; k < 16; ++k) {
    EXPECT_LT(v.z_center(k), v.z_bottom(k));
    if (k > 0) {
      EXPECT_GT(v.z_center(k), v.z_bottom(k - 1));
    }
  }
}

TEST(VerticalGrid, WetLayers) {
  VerticalGrid v(16, 25.0, 4800.0);
  EXPECT_EQ(v.wet_layers(0.0), 0);
  EXPECT_EQ(v.wet_layers(10.0), 1);  // any water gets a surface layer
  EXPECT_EQ(v.wet_layers(4800.0), 16);
  EXPECT_EQ(v.wet_layers(1.0e9), 16);
  // Monotone in depth.
  int prev = 0;
  for (double d = 0.0; d < 6000.0; d += 50.0) {
    const int n = v.wet_layers(d);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

TEST(OceanModel, ConstructAndInit) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  EXPECT_FALSE(has_non_finite(m.temperature()));
  EXPECT_FALSE(has_non_finite(m.salinity()));
  const auto d = m.diagnostics();
  // Initial SST follows the analytic climatology: warm global mean.
  EXPECT_GT(d.mean_sst, 5.0);
  EXPECT_LT(d.mean_sst, 25.0);
  // Thermal-wind init gives gentle currents, not a shock.
  EXPECT_LT(d.max_speed, 1.0);
}

TEST(OceanModel, CflGuardRejectsBadConfigs) {
  SmallOcean w;
  OceanConfig bad = w.cfg;
  bad.split_barotropic = false;
  bad.slow_factor = 1.0;  // full-speed waves with a 1-hour step
  EXPECT_THROW(OceanModel(bad, w.grid, w.bathy), Error);
}

TEST(OceanModel, TenDaysStableUnforced) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  m.run_days(10.0);
  EXPECT_FALSE(has_non_finite(m.temperature()));
  EXPECT_FALSE(has_non_finite(m.eta()));
  const auto d = m.diagnostics();
  EXPECT_LT(d.max_speed, 3.0);
  EXPECT_LT(d.max_eta, 20.0);
  // Volume-mean temperature moves little without surface forcing.
  EXPECT_NEAR(d.mean_temp_3d, 4.0, 3.0);
}

TEST(OceanModel, WindDrivesCirculation) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd taux(48, 48, 0.3), tauy(48, 48, 0.0);  // strong westerly
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  m.set_forcing(wind);
  m.run_days(5.0);
  // Twin run without wind: the westerly must push the mean surface flow
  // eastward relative to the calm twin.
  OceanModel calm(w.cfg, w.grid, w.bathy);
  calm.init_climatology();
  calm.run_days(5.0);
  double du = 0.0;
  int n = 0;
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      if (m.levels()(i, j) > 0) {
        du += m.u_total(i, j, 0) - calm.u_total(i, j, 0);
        ++n;
      }
  EXPECT_GT(du / n, 0.005);
  EXPECT_FALSE(has_non_finite(m.temperature()));
}

TEST(OceanModel, HeatFluxWarmsSurface) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd q(48, 48, 100.0);  // uniform 100 W/m^2 in
  OceanForcing heating;
  heating.heat = &q;
  m.set_forcing(heating);
  m.run_days(5.0);
  // Twin run without heating isolates the flux response from the model's
  // internal adjustment drift: 100 W/m^2 into a 25 m layer over 5 days is
  // ~0.42 K.
  OceanModel twin(w.cfg, w.grid, w.bathy);
  twin.init_climatology();
  twin.run_days(5.0);
  const double dt_flux =
      m.diagnostics().mean_sst - twin.diagnostics().mean_sst;
  EXPECT_GT(dt_flux, 0.2);
  EXPECT_LT(dt_flux, 0.8);
}

TEST(OceanModel, FreezeClampProducesFrazil) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd q(48, 48, -600.0);  // strong cooling everywhere
  OceanForcing cooling;
  cooling.heat = &q;
  m.set_forcing(cooling);
  m.run_days(5.0);
  const auto d = m.diagnostics();
  EXPECT_GT(d.frazil_heat, 0.0);
  // SST never falls below the clamp.
  const Field2Dd sst = m.sst();
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      if (m.levels()(i, j) > 0) {
        EXPECT_GE(sst(i, j), foam::constants::sea_ice_freeze_c - 1e-9);
      }
  Field2Dd frazil = m.drain_frazil();
  EXPECT_GT(frazil.max(), 0.0);
  // Draining resets the accumulator.
  frazil = m.drain_frazil();
  EXPECT_DOUBLE_EQ(frazil.max_abs(), 0.0);
}

TEST(OceanModel, FreshwaterRaisesEtaAndFreshens) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  const double s0 = m.salinity()(24, 24, 0);
  Field2Dd fw(48, 48, 1.0e-7);  // ~8.6 mm/day everywhere
  OceanForcing rain;
  rain.freshwater = &fw;
  m.set_forcing(rain);
  m.run_days(5.0);
  EXPECT_LT(m.salinity()(24, 24, 0), s0);
  EXPECT_GT(m.eta().mean(), 0.0);
}

TEST(OceanModel, WorkCounterTracksConfiguration) {
  SmallOcean w;
  OceanModel full(w.cfg, w.grid, w.bathy);
  full.init_climatology();
  full.run_days(1.0);

  OceanConfig cheap = w.cfg;
  cheap.tracer_every = 4;  // fewer tracer steps -> less work
  OceanModel lazy(cheap, w.grid, w.bathy);
  lazy.init_climatology();
  lazy.run_days(1.0);
  EXPECT_GT(full.work_points(), lazy.work_points());
}

TEST(OceanModel, SplitFoamOceanCheaperThanConventional) {
  // The ~10x formulation claim, in miniature: per simulated day the FOAM
  // configuration performs far fewer grid-point updates than the
  // conventional explicit free-surface configuration.
  SmallOcean w;
  OceanModel foam_ocean(w.cfg, w.grid, w.bathy);
  foam_ocean.init_climatology();
  foam_ocean.run_days(0.5);
  const double foam_work = foam_ocean.work_points();

  OceanConfig conv = OceanConfig::testing(48, 48, 8);
  conv.split_barotropic = false;
  conv.slow_factor = 1.0;
  conv.tracer_every = 1;
  conv.dt_mom = 60.0;
  OceanModel baseline(conv, w.grid, w.bathy);
  baseline.init_climatology();
  baseline.run_days(0.5);
  const double conv_work = baseline.work_points();
  EXPECT_GT(conv_work / foam_work, 5.0)
      << "conventional formulation should cost several times more";
}

TEST(OceanModel, ParallelMatchesSerialClosely) {
  SmallOcean w;
  OceanModel serial(w.cfg, w.grid, w.bathy);
  serial.init_climatology();
  for (int s = 0; s < 12; ++s) serial.step();
  const auto ds = serial.diagnostics();

  par::run(3, [&](par::Comm& comm) {
    OceanModel m(w.cfg, w.grid, w.bathy, &comm);
    m.init_climatology();
    for (int s = 0; s < 12; ++s) m.step();
    const auto dp = m.diagnostics();
    // State evolution is halo-exchange only: decomposition must not change
    // the answer beyond reduction rounding in the diagnostics.
    EXPECT_NEAR(dp.mean_sst, ds.mean_sst, 1e-9);
    EXPECT_NEAR(dp.mean_temp_3d, ds.mean_temp_3d, 1e-9);
    EXPECT_NEAR(dp.mean_kinetic, ds.mean_kinetic,
                1e-9 * std::max(1e-12, ds.mean_kinetic));
    // Gathered SST matches the serial field.
    const Field2Dd sst = m.gather(m.sst());
    const Field2Dd ref = serial.sst();
    double max_diff = 0.0;
    for (int j = 0; j < 48; ++j)
      for (int i = 0; i < 48; ++i)
        max_diff = std::max(max_diff, std::abs(sst(i, j) - ref(i, j)));
    EXPECT_LT(max_diff, 1e-12);
  });
}

TEST(OceanModel, IceFractionScalesStress) {
  SmallOcean w;
  OceanModel no_ice(w.cfg, w.grid, w.bathy);
  no_ice.init_climatology();
  OceanModel iced(w.cfg, w.grid, w.bathy);
  iced.init_climatology();
  Field2Dd taux(48, 48, 0.1), tauy(48, 48, 0.0);
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  no_ice.set_forcing(wind);
  Field2Dd ice(48, 48, 1.0);
  OceanForcing windy_ice = wind;
  windy_ice.ice = &ice;
  iced.set_forcing(windy_ice);
  no_ice.run_days(2.0);
  iced.run_days(2.0);
  // Full ice cover divides the stress by 15: less wind-driven energy.
  EXPECT_LT(iced.diagnostics().mean_kinetic,
            no_ice.diagnostics().mean_kinetic);
}

TEST(OceanModel, SetForcingIsAtomic) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd good(48, 48, 0.1), bad(24, 24, 1.0);
  // A bundle with one malformed field must be rejected whole: the valid
  // wind components must not have been applied.
  OceanForcing f;
  f.wind_x = &good;
  f.wind_y = &good;
  f.heat = &bad;
  EXPECT_THROW(m.set_forcing(f), Error);
  OceanModel calm(w.cfg, w.grid, w.bathy);
  calm.init_climatology();
  m.run_days(2.0);
  calm.run_days(2.0);
  // Same evolution as the never-forced twin: the wind was not applied.
  EXPECT_DOUBLE_EQ(m.diagnostics().mean_kinetic,
                   calm.diagnostics().mean_kinetic);
  // Wind components must come as a pair.
  OceanForcing lonely;
  lonely.wind_x = &good;
  EXPECT_THROW(m.set_forcing(lonely), Error);
}

TEST(OceanModel, PartialForcingBundleLeavesOtherFieldsUntouched) {
  // What the retired per-field shims used to exercise: a bundle carrying
  // only some fields must update exactly those, so successive partial
  // set_forcing calls compose the same state as one full bundle.
  SmallOcean w;
  OceanModel via_steps(w.cfg, w.grid, w.bathy);
  via_steps.init_climatology();
  OceanModel via_bundle(w.cfg, w.grid, w.bathy);
  via_bundle.init_climatology();
  Field2Dd taux(48, 48, 0.2), tauy(48, 48, 0.05), q(48, 48, 50.0);
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  via_steps.set_forcing(wind);
  OceanForcing heat;
  heat.heat = &q;
  via_steps.set_forcing(heat);
  OceanForcing f;
  f.wind_x = &taux;
  f.wind_y = &tauy;
  f.heat = &q;
  via_bundle.set_forcing(f);
  via_steps.run_days(2.0);
  via_bundle.run_days(2.0);
  EXPECT_DOUBLE_EQ(via_steps.diagnostics().mean_kinetic,
                   via_bundle.diagnostics().mean_kinetic);
  EXPECT_DOUBLE_EQ(via_steps.diagnostics().mean_sst,
                   via_bundle.diagnostics().mean_sst);
}

/// Run `steps` forced steps serially and under the given rank grid, then
/// require the gathered SST and free surface to match the serial fields
/// bitwise: decomposition must not change a single bit of the state.
void expect_layout_bitwise(int nranks, int px, int steps) {
  SmallOcean w;
  Field2Dd taux(48, 48, 0.0), tauy(48, 48, 0.02);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      taux(i, j) = analytic_zonal_stress(w.grid.lat(j));
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;

  OceanModel serial(w.cfg, w.grid, w.bathy);
  serial.init_climatology();
  serial.set_forcing(wind);
  for (int s = 0; s < steps; ++s) serial.step();
  const Field2Dd ref_sst = serial.sst();
  const Field2Dd& ref_eta = serial.eta();

  par::run(nranks, [&](par::Comm& comm) {
    OceanModel m(w.cfg, w.grid, w.bathy, &comm, px);
    m.init_climatology();
    m.set_forcing(wind);
    for (int s = 0; s < steps; ++s) m.step();
    const Field2Dd sst = m.gather(m.sst());
    const Field2Dd eta = m.gather(m.eta());
    for (int j = 0; j < 48; ++j) {
      for (int i = 0; i < 48; ++i) {
        ASSERT_EQ(sst(i, j), ref_sst(i, j))
            << "sst differs at (" << i << "," << j << ") px=" << px;
        ASSERT_EQ(eta(i, j), ref_eta(i, j))
            << "eta differs at (" << i << "," << j << ") px=" << px;
      }
    }
  });
}

TEST(OceanModel, TwoByTwoMatchesSerialBitwise) {
  expect_layout_bitwise(4, 2, 12);
}

TEST(OceanModel, FourByOneMatchesSerialBitwise) {
  expect_layout_bitwise(4, 4, 12);
}

TEST(OceanModel, TwoByThreeMatchesSerialBitwise) {
  expect_layout_bitwise(6, 2, 8);
}

/// Forcing that drives every sweep: wind, a polar heat loss strong enough
/// to reach the freeze clamp and convection, freshwater and sea ice.
struct TeamForcing {
  explicit TeamForcing(const numerics::MercatorGrid& grid)
      : taux(48, 48, 0.0), tauy(48, 48, 0.02), heat(48, 48, 0.0),
        fw(48, 48, 1e-8), ice(48, 48, 0.0) {
    for (int j = 0; j < 48; ++j) {
      const double lat = grid.lat(j) / constants::deg2rad;
      for (int i = 0; i < 48; ++i) {
        taux(i, j) = analytic_zonal_stress(grid.lat(j));
        heat(i, j) = std::abs(lat) > 55.0 ? -400.0 : 60.0;
        ice(i, j) = std::abs(lat) > 62.0 ? 0.5 : 0.0;
      }
    }
    f.wind_x = &taux;
    f.wind_y = &tauy;
    f.heat = &heat;
    f.freshwater = &fw;
    f.ice = &ice;
  }
  Field2Dd taux, tauy, heat, fw, ice;
  OceanForcing f;
};

/// The full prognostic state (save_state's records) after \p steps steps.
std::vector<HistoryRecord> team_run_state(int members, int steps) {
  // The coupled model's grid reaches 70 degrees, so the polar filter runs.
  const numerics::MercatorGrid grid(48, 48, OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(grid);
  const TeamForcing forcing(grid);
  OceanModel m(OceanConfig::testing(48, 48, 8), grid, bathy);
  par::Team team(members);
  m.set_team(&team);
  m.init_climatology();
  m.set_forcing(forcing.f);
  for (int s = 0; s < steps; ++s) m.step();
  const std::string path = ::testing::TempDir() + "/ocean_team_" +
                           std::to_string(members) + ".foam";
  {
    HistoryWriter out(path);
    m.save_state(out, "ocean");
    out.close();
  }
  return HistoryReader(path).records();
}

TEST(Ocean, TeamStepEqualsSerialBitwise) {
  // Row bands over 1-4 members: every prognostic field after 10 steps (5
  // tracer steps, 80 barotropic substeps) equals the single-member run
  // byte for byte.
  const std::vector<HistoryRecord> ref = team_run_state(1, 10);
  ASSERT_FALSE(ref.empty());
  for (int members = 2; members <= par::kMaxTeamMembers; ++members) {
    const std::vector<HistoryRecord> got = team_run_state(members, 10);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
      ASSERT_EQ(got[r].name, ref[r].name);
      ASSERT_EQ(got[r].data.size(), ref[r].data.size()) << ref[r].name;
      EXPECT_EQ(std::memcmp(got[r].data.data(), ref[r].data.data(),
                            ref[r].data.size() * sizeof(double)),
                0)
          << ref[r].name << " differs with " << members << " members";
    }
  }
}

TEST(Ocean, TeamOnTwoDimensionalLayoutMatchesSerialBitwise) {
  // The 2-D decomposition filters polar rows cooperatively across the
  // process row; with a team each rank splits its share of those rows too.
  const numerics::MercatorGrid grid(48, 48, OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(grid);
  const TeamForcing forcing(grid);
  const OceanConfig cfg = OceanConfig::testing(48, 48, 8);
  OceanModel serial(cfg, grid, bathy);
  serial.init_climatology();
  serial.set_forcing(forcing.f);
  for (int s = 0; s < 6; ++s) serial.step();
  const Field2Dd ref_sst = serial.sst();
  par::run(2, [&](par::Comm& comm) {
    par::Team team(2);
    OceanModel m(cfg, grid, bathy, &comm, /*px=*/2);
    m.set_team(&team);
    m.init_climatology();
    m.set_forcing(forcing.f);
    for (int s = 0; s < 6; ++s) m.step();
    const Field2Dd sst = m.gather(m.sst());
    for (std::size_t n = 0; n < sst.size(); ++n)
      ASSERT_EQ(sst.data()[n], ref_sst.data()[n]) << "cell " << n;
  });
}

TEST(OceanModel, RejectsIndivisibleRankGrid) {
  SmallOcean w;
  par::run(3, [&](par::Comm& comm) {
    EXPECT_THROW(OceanModel(w.cfg, w.grid, w.bathy, &comm, 2), Error);
  });
}

TEST(OceanModel, AblationSwitchesRun) {
  SmallOcean w;
  for (auto mod : {0, 1, 2, 3}) {
    OceanConfig c = w.cfg;
    if (mod == 1) c.enable_horiz_adv = false;
    if (mod == 2) c.enable_vert_adv = false;
    if (mod == 3) c.enable_baroclinic_pg = false;
    OceanModel m(c, w.grid, w.bathy);
    m.init_climatology();
    m.run_days(1.0);
    EXPECT_FALSE(has_non_finite(m.temperature())) << "mod " << mod;
  }
}

}  // namespace
}  // namespace foam::ocean
