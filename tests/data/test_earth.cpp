#include "data/earth.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "base/constants.hpp"
#include "numerics/grid.hpp"

namespace foam::data {
namespace {

TEST(Earth, BasinTopology) {
  // The properties the experiments rely on (DESIGN.md): separated northern
  // basins, closed Panama, open Drake Passage, polar continents.
  EXPECT_FALSE(is_land(45.0, 320.0)) << "North Atlantic must be ocean";
  EXPECT_FALSE(is_land(40.0, 180.0)) << "North Pacific must be ocean";
  EXPECT_TRUE(is_land(10.0, 272.0)) << "Panama isthmus must be closed";
  EXPECT_FALSE(is_land(-58.0, 295.0)) << "Drake Passage must be open";
  EXPECT_TRUE(is_land(-80.0, 100.0)) << "Antarctica";
  EXPECT_TRUE(is_land(70.0, 315.0)) << "Greenland";
  EXPECT_TRUE(is_land(50.0, 100.0)) << "Eurasia";
  EXPECT_FALSE(is_land(0.0, 200.0)) << "equatorial Pacific";
  EXPECT_FALSE(is_land(-30.0, 75.0)) << "Indian Ocean";
}

TEST(Earth, WrapLonMatchesFmodBitwise) {
  const auto fmod_form = [](double lon) {
    double l = std::fmod(lon, 360.0);
    if (l < 0.0) l += 360.0;
    return l;
  };
  std::vector<double> lons = {-0.0,
                              0.0,
                              std::numeric_limits<double>::denorm_min(),
                              std::nextafter(360.0, 0.0),
                              360.0,
                              std::nextafter(360.0, 720.0),
                              -std::numeric_limits<double>::denorm_min(),
                              -1e-300,
                              -360.0,
                              -359.75,
                              -720.5,
                              720.0,
                              725.25,
                              1e6 + 0.1,
                              -1e6 - 0.1};
  for (double lon = -1000.0; lon <= 1000.0; lon += 0.37) lons.push_back(lon);
  for (const double lon : lons) {
    const double got = wrap_lon(lon);
    const double want = fmod_form(lon);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "lon " << lon << ": " << got << " vs " << want;
  }
}

TEST(Earth, NorthernBasinsAreDistinct) {
  // A zonal walk at 45 N must alternate ocean-land-ocean-land: the Fig. 4
  // two-basin analysis needs the Atlantic and Pacific separated.
  int transitions = 0;
  bool last = is_land(45.0, 0.0);
  for (int lon = 1; lon < 360; ++lon) {
    const bool now = is_land(45.0, static_cast<double>(lon));
    if (now != last) ++transitions;
    last = now;
  }
  EXPECT_GE(transitions, 4) << "expected at least two separate basins";
}

TEST(Earth, LandFractionPlausible) {
  numerics::GaussianGrid grid(48, 40);
  const auto mask = land_mask(grid);
  double land_area = 0.0, total = 0.0;
  for (int j = 0; j < 40; ++j)
    for (int i = 0; i < 48; ++i) {
      total += grid.cell_area(j);
      if (mask(i, j) != 0) land_area += grid.cell_area(j);
    }
  const double frac = land_area / total;
  EXPECT_GT(frac, 0.2);
  EXPECT_LT(frac, 0.45);
}

TEST(Earth, OceanMaskIsComplement) {
  numerics::GaussianGrid grid(48, 40);
  const auto lm = land_mask(grid);
  const auto om = ocean_mask(grid);
  for (int j = 0; j < 40; ++j)
    for (int i = 0; i < 48; ++i) EXPECT_EQ(lm(i, j) + om(i, j), 1);
}

TEST(Earth, ElevationPositiveOnLandZeroOnOcean) {
  EXPECT_GT(elevation(45.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(elevation(0.0, 200.0), 0.0);
  // Mountain ranges rise above their surroundings.
  EXPECT_GT(elevation(32.0, 85.0), elevation(50.0, 60.0));  // Himalaya
}

TEST(Earth, BathymetryDeepBasinsShallowShelves) {
  EXPECT_DOUBLE_EQ(ocean_depth(45.0, 100.0), 0.0);  // land
  const double open = ocean_depth(-30.0, 200.0);    // South Pacific
  EXPECT_GT(open, 3000.0);
  // Near-coast water is shallower than the open ocean.
  const double coastal = ocean_depth(42.0, 308.0);  // just off N. America
  EXPECT_LT(coastal, open);
}

TEST(Earth, SmoothedBathymetryHasNoSingleCellCliffs) {
  numerics::MercatorGrid grid(128, 128, 70.0);
  const auto bathy = bathymetry(grid);
  // Adjacent wet cells differ by less than ~2.5 km after smoothing.
  for (int j = 1; j < 127; ++j)
    for (int i = 0; i < 128; ++i) {
      if (bathy(i, j) <= 0.0) continue;
      const double e = bathy.wrap_x(i + 1, j);
      if (e > 0.0) {
        EXPECT_LT(std::abs(bathy(i, j) - e), 2600.0)
            << "cliff at " << i << "," << j;
      }
    }
}

TEST(Earth, SstClimatologyStructure) {
  // Warm pool warmer than the cold tongue; tropics warmer than poles;
  // freeze clamp at high latitude.
  EXPECT_GT(sst_annual_mean(5.0, 140.0), sst_annual_mean(0.0, 255.0) + 2.0);
  EXPECT_GT(sst_annual_mean(0.0, 180.0), 25.0);
  EXPECT_LT(sst_annual_mean(65.0, 180.0), 8.0);
  EXPECT_DOUBLE_EQ(sst_annual_mean(80.0, 0.0), constants::sea_ice_freeze_c);
  // Gulf Stream warm anomaly off the N. American east coast.
  EXPECT_GT(sst_annual_mean(38.0, 300.0), sst_annual_mean(38.0, 340.0));
}

TEST(Earth, SstSeasonalCycle) {
  // Northern-hemisphere mid-latitudes: warmer in August than February,
  // southern hemisphere opposite.
  EXPECT_GT(sst_climatology(40.0, 180.0, 7), sst_climatology(40.0, 180.0, 1));
  EXPECT_LT(sst_climatology(-40.0, 180.0, 7),
            sst_climatology(-40.0, 180.0, 1));
  // The annual mean of the monthly cycle matches the annual field.
  double mean = 0.0;
  for (int m = 0; m < 12; ++m) mean += sst_climatology(40.0, 180.0, m);
  mean /= 12.0;
  EXPECT_NEAR(mean, sst_annual_mean(40.0, 180.0), 0.6);
}

TEST(Earth, SolarGeometry) {
  using constants::deg2rad;
  // Declination peaks near the June solstice and is antisymmetric winter.
  EXPECT_NEAR(solar_declination(172.0), 23.45 * deg2rad, 1e-6);
  EXPECT_NEAR(solar_declination(172.0 + 182.5), -23.45 * deg2rad, 1e-3);
  // Zenith cosine: overhead sun at the subsolar latitude at noon.
  EXPECT_NEAR(cos_zenith(23.45 * deg2rad, 23.45 * deg2rad, 0.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(cos_zenith(-60.0 * deg2rad, 23.45 * deg2rad, 0.0),
                   cos_zenith(-60.0 * deg2rad, 23.45 * deg2rad, 0.0));
  // Below horizon clamps at zero (polar night).
  EXPECT_DOUBLE_EQ(
      cos_zenith(-80.0 * deg2rad, 23.45 * deg2rad, constants::pi), 0.0);
}

TEST(Earth, DailyInsolation) {
  using constants::deg2rad;
  // Equator, equinox: Q = S0/pi.
  const double q_eq = daily_mean_insolation(0.0, 81.0);
  EXPECT_NEAR(q_eq, constants::solar_constant / constants::pi, 12.0);
  // Polar night in the southern winter.
  EXPECT_DOUBLE_EQ(daily_mean_insolation(-80.0 * deg2rad, 172.0), 0.0);
  // Polar day exceeds the equator at the summer solstice.
  EXPECT_GT(daily_mean_insolation(85.0 * deg2rad, 172.0),
            daily_mean_insolation(0.0, 172.0));
}

TEST(Earth, SoilTypesSensible) {
  EXPECT_EQ(soil_type(-80.0, 0.0), SoilType::kIceSheet);
  EXPECT_EQ(soil_type(72.0, 320.0), SoilType::kIceSheet);  // Greenland
  EXPECT_EQ(soil_type(25.0, 10.0), SoilType::kDesert);     // Sahara band
  EXPECT_EQ(soil_type(5.0, 300.0), SoilType::kForest);     // tropics
  EXPECT_EQ(soil_type(40.0, 255.0), SoilType::kGrassland); // plains
}

}  // namespace
}  // namespace foam::data
