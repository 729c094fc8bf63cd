#include "data/earth.hpp"

#include <algorithm>
#include <cmath>

#include "base/constants.hpp"

namespace foam::data {

using constants::deg2rad;
using constants::pi;
using constants::sea_ice_freeze_c;
using constants::solar_constant;
using constants::two_pi;

double wrap_lon(double lon) {
  // fmod returns an already wrapped longitude exactly, so skip it there.
  if (lon >= 0.0 && lon < 360.0) return lon;
  double l = std::fmod(lon, 360.0);
  if (l < 0.0) l += 360.0;
  return l;
}

namespace {

/// True if lon (wrapped) lies in [lo, hi], where the interval may cross 0.
bool lon_in(double lon, double lo, double hi) {
  lon = wrap_lon(lon);
  lo = wrap_lon(lo);
  hi = wrap_lon(hi);
  if (lo <= hi) return lon >= lo && lon <= hi;
  return lon >= lo || lon <= hi;
}

/// Fraction through [a, b] clamped to [0, 1].
double ramp(double x, double a, double b) {
  return std::clamp((x - a) / (b - a), 0.0, 1.0);
}

struct Continent {
  bool contains(double lat, double lon) const {
    if (lat < lat_lo || lat > lat_hi) return false;
    if (lon_hi - lon_lo >= 360.0) return true;  // polar cap spans all lons
    // Taper the longitudinal extent toward the latitude ends.
    const double t = 4.0 * ramp(lat, lat_lo, lat_hi) *
                     (1.0 - ramp(lat, lat_lo, lat_hi));
    const double shrink = 0.5 * (1.0 - taper * t - (1.0 - taper));
    const double width = wrap_lon(lon_hi - lon_lo);
    const double lo = lon_lo + shrink * width + skew * (lat - lat_lo);
    const double hi = lon_hi - shrink * width + skew * (lat - lat_lo);
    return lon_in(lon, lo, hi);
  }
  double lat_lo, lat_hi;
  double lon_lo, lon_hi;
  double taper = 1.0;  // 1 = full width at mid-latitude band, <1 = blockier
  double skew = 0.0;   // deg lon per deg lat tilt
};

// The continental inventory. Shapes are deliberately simple; what matters
// (and is tested) is the basin topology described in the header.
// clang-format off
const Continent kContinents[] = {
    // South America: tapering wedge, Andes along its west side.
    {-54.0,  12.0, 278.0, 326.0, 0.85,  -0.35},
    // Central America land bridge: closes the Panama seaway.
    { 6.0,   20.0, 258.0, 282.0, 0.0,   -0.9},
    // North America.
    { 18.0,  72.0, 235.0, 300.0, 0.55,   0.0},
    // Greenland.
    { 60.0,  82.0, 300.0, 335.0, 0.5,    0.0},
    // Africa (crosses the prime meridian).
    {-34.0,  36.0, 343.0,  50.0, 0.75,   0.0},
    // Eurasia.
    { 36.0,  76.0, 350.0, 178.0, 0.3,    0.0},
    // India + Southeast Asia peninsula.
    {  6.0,  36.0,  68.0, 105.0, 0.7,    0.0},
    // Maritime continent block (Indonesia, coarse-grid equivalent).
    {-9.0,    8.0,  98.0, 122.0, 0.4,    0.0},
    // Australia.
    {-38.0, -12.0, 114.0, 153.0, 0.6,    0.0},
    // Antarctica: full polar cap.
    {-90.0, -67.0,   0.0, 360.0, 0.0,    0.0},
};
// clang-format on

/// Distance-to-coast proxy: smallest margin (deg) by which (lat,lon) stays
/// inside some continent; 0 when not on land. Cheap probe-based estimate.
double interior_margin(double lat, double lon) {
  if (!is_land(lat, lon)) return 0.0;
  for (double d = 1.0; d <= 20.0; d += 1.0) {
    const bool edge =
        !is_land(lat + d, lon) || !is_land(lat - d, lon) ||
        !is_land(lat, lon + d / std::max(0.2, std::cos(lat * deg2rad))) ||
        !is_land(lat, lon - d / std::max(0.2, std::cos(lat * deg2rad)));
    if (edge) return d;
  }
  return 20.0;
}

double gaussian_bump(double lat, double lon, double clat, double clon,
                     double slat, double slon, double height) {
  double dlon = wrap_lon(lon - clon);
  if (dlon > 180.0) dlon -= 360.0;
  const double dlat = lat - clat;
  return height * std::exp(-(dlat * dlat) / (2.0 * slat * slat) -
                           (dlon * dlon) / (2.0 * slon * slon));
}

}  // namespace

bool is_land(double lat_deg, double lon_deg) {
  for (const Continent& c : kContinents)
    if (c.contains(lat_deg, lon_deg)) return true;
  return false;
}

double elevation(double lat_deg, double lon_deg) {
  if (!is_land(lat_deg, lon_deg)) return 0.0;
  // Base elevation rises with distance from the coast so runoff drains
  // seaward (the property river routing needs).
  double h = 60.0 * interior_margin(lat_deg, lon_deg);
  // Mountain ranges.
  h += gaussian_bump(lat_deg, lon_deg, 42.0, 248.0, 12.0, 8.0, 1800.0);   // Rockies
  h += gaussian_bump(lat_deg, lon_deg, -20.0, 290.0, 20.0, 4.0, 2500.0);  // Andes
  h += gaussian_bump(lat_deg, lon_deg, 32.0, 85.0, 7.0, 16.0, 3500.0);    // Himalaya
  h += gaussian_bump(lat_deg, lon_deg, 46.0, 10.0, 4.0, 8.0, 1200.0);     // Alps
  // Ice sheets are high plateaus.
  if (lat_deg < -70.0) h += 2200.0;
  if (lat_deg > 64.0 && lon_in(lon_deg, 302.0, 333.0)) h += 1800.0;  // Greenland
  return h;
}

double ocean_depth(double lat_deg, double lon_deg) {
  if (is_land(lat_deg, lon_deg)) return 0.0;
  // Deep basin shoaling toward the nearest coast.
  double min_edge = 12.0;
  for (double d = 1.0; d < 12.0; d += 1.0) {
    const double stretch = 1.0 / std::max(0.2, std::cos(lat_deg * deg2rad));
    if (is_land(lat_deg + d, lon_deg) || is_land(lat_deg - d, lon_deg) ||
        is_land(lat_deg, lon_deg + d * stretch) ||
        is_land(lat_deg, lon_deg - d * stretch)) {
      min_edge = d;
      break;
    }
  }
  double depth = 4500.0 * ramp(min_edge, 0.0, 9.0);
  depth = std::max(depth, 120.0);  // continental shelf floor
  // Mid-Atlantic ridge.
  depth -= gaussian_bump(lat_deg, lon_deg, 0.0, 330.0, 60.0, 6.0, 1800.0);
  return std::max(depth, 100.0);
}

SoilType soil_type(double lat_deg, double lon_deg) {
  if (lat_deg < -66.0) return SoilType::kIceSheet;
  if (lat_deg > 64.0 && lon_in(lon_deg, 300.0, 335.0))
    return SoilType::kIceSheet;  // Greenland
  const double alat = std::abs(lat_deg);
  if (alat > 62.0) return SoilType::kTundra;
  // Subtropical deserts (Sahara / Australia / SW North America bands).
  if (alat > 15.0 && alat < 32.0) {
    if (lon_in(lon_deg, 350.0, 35.0) && lat_deg > 0.0) return SoilType::kDesert;
    if (lon_in(lon_deg, 118.0, 140.0) && lat_deg < 0.0) return SoilType::kDesert;
    if (lon_in(lon_deg, 245.0, 260.0) && lat_deg > 0.0) return SoilType::kDesert;
  }
  if (alat < 25.0) return SoilType::kForest;     // tropical forest belt
  if (alat < 50.0) return SoilType::kGrassland;  // mid-latitude plains
  return SoilType::kForest;                      // boreal forest
}

double sst_annual_mean(double lat_deg, double lon_deg) {
  // Broad meridional structure.
  double t = -2.0 + 30.0 * std::exp(-std::pow(lat_deg / 32.0, 2.0));
  // Western Pacific warm pool.
  t += gaussian_bump(lat_deg, lon_deg, 5.0, 140.0, 12.0, 25.0, 1.8);
  // Equatorial east-Pacific cold tongue.
  t -= gaussian_bump(lat_deg, lon_deg, -1.0, 255.0, 5.0, 25.0, 3.0);
  // Western boundary currents: warm tongues off the east coasts.
  t += gaussian_bump(lat_deg, lon_deg, 38.0, 300.0, 6.0, 12.0, 2.5);  // Gulf Stream
  t += gaussian_bump(lat_deg, lon_deg, 37.0, 145.0, 6.0, 12.0, 2.0);  // Kuroshio
  // Eastern boundary upwelling: cool strips off the west coasts.
  t -= gaussian_bump(lat_deg, lon_deg, -15.0, 283.0, 12.0, 5.0, 2.0);  // Peru
  t -= gaussian_bump(lat_deg, lon_deg, -15.0, 10.0, 12.0, 5.0, 1.5);   // Benguela
  return std::max(t, sea_ice_freeze_c);
}

double sst_climatology(double lat_deg, double lon_deg, int month) {
  // Seasonal cycle: amplitude grows with latitude, peaks ~2 months after
  // solstice, hemispheres out of phase.
  const double phase = two_pi * (month - 1.5) / 12.0;  // max around Aug (NH)
  const double amp = 4.0 * std::tanh(std::abs(lat_deg) / 35.0);
  const double sign = (lat_deg >= 0.0) ? 1.0 : -1.0;
  const double t = sst_annual_mean(lat_deg, lon_deg) -
                   sign * amp * std::cos(phase);
  return std::max(t, sea_ice_freeze_c);
}

double solar_declination(double day_of_year) {
  // Max declination 23.45 deg ~ day 172 (June 21) of the 365-day year.
  return 23.45 * deg2rad *
         std::cos(two_pi * (day_of_year - 172.0) / 365.0);
}

double cos_zenith(double lat_rad, double declination, double hour_angle) {
  const double mu = std::sin(lat_rad) * std::sin(declination) +
                    std::cos(lat_rad) * std::cos(declination) *
                        std::cos(hour_angle);
  return std::max(0.0, mu);
}

double daily_mean_insolation(double lat_rad, double day_of_year) {
  const double dec = solar_declination(day_of_year);
  // Hour angle of sunset.
  const double cos_h0 = -std::tan(lat_rad) * std::tan(dec);
  double h0 = 0.0;
  if (cos_h0 <= -1.0) {
    h0 = pi;  // polar day
  } else if (cos_h0 >= 1.0) {
    h0 = 0.0;  // polar night
  } else {
    h0 = std::acos(cos_h0);
  }
  const double q = (solar_constant / pi) *
                   (h0 * std::sin(lat_rad) * std::sin(dec) +
                    std::cos(lat_rad) * std::cos(dec) * std::sin(h0));
  return std::max(0.0, q);
}

namespace {

template <typename F>
Field2Dd rasterize(const numerics::LatLonGrid& grid, F&& f) {
  Field2Dd out(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) / deg2rad;
    for (int i = 0; i < grid.nlon(); ++i)
      out(i, j) = f(lat, grid.lon(i) / deg2rad);
  }
  return out;
}

}  // namespace

Field2D<int> land_mask(const numerics::LatLonGrid& grid) {
  Field2D<int> out(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) / deg2rad;
    for (int i = 0; i < grid.nlon(); ++i)
      out(i, j) = is_land(lat, grid.lon(i) / deg2rad) ? 1 : 0;
  }
  return out;
}

Field2D<int> ocean_mask(const numerics::LatLonGrid& grid) {
  Field2D<int> out = land_mask(grid);
  for (int j = 0; j < grid.nlat(); ++j)
    for (int i = 0; i < grid.nlon(); ++i) out(i, j) = 1 - out(i, j);
  return out;
}

Field2Dd orography(const numerics::LatLonGrid& grid) {
  return rasterize(grid, [](double lat, double lon) {
    return elevation(lat, lon);
  });
}

Field2Dd bathymetry(const numerics::LatLonGrid& grid) {
  Field2Dd raw = rasterize(grid, [](double lat, double lon) {
    return ocean_depth(lat, lon);
  });
  // Smooth ocean depths (land stays land) so adjacent water columns never
  // differ by kilometre-scale cliffs. The paper tuned its topography by
  // hand at the represented resolution; this is the procedural equivalent.
  for (int pass = 0; pass < 2; ++pass) {
    Field2Dd next(raw);
    for (int j = 0; j < grid.nlat(); ++j) {
      for (int i = 0; i < grid.nlon(); ++i) {
        if (raw(i, j) <= 0.0) continue;
        double sum = 4.0 * raw(i, j);
        double wsum = 4.0;
        auto tap = [&](double v) {
          if (v > 0.0) {
            sum += v;
            wsum += 1.0;
          }
        };
        tap(raw.wrap_x(i + 1, j));
        tap(raw.wrap_x(i - 1, j));
        if (j + 1 < grid.nlat()) tap(raw(i, j + 1));
        if (j > 0) tap(raw(i, j - 1));
        next(i, j) = sum / wsum;
      }
    }
    raw = std::move(next);
  }
  return raw;
}

Field2D<int> soil_types(const numerics::LatLonGrid& grid) {
  Field2D<int> out(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) / deg2rad;
    for (int i = 0; i < grid.nlon(); ++i)
      out(i, j) =
          static_cast<int>(soil_type(lat, grid.lon(i) / deg2rad));
  }
  return out;
}

Field2Dd sst_climatology_field(const numerics::LatLonGrid& grid, int month) {
  return rasterize(grid, [month](double lat, double lon) {
    return sst_climatology(lat, lon, month);
  });
}

Field2Dd sst_annual_mean_field(const numerics::LatLonGrid& grid) {
  return rasterize(grid, [](double lat, double lon) {
    return sst_annual_mean(lat, lon);
  });
}

}  // namespace foam::data
