#pragma once

/// \file earth.hpp
/// Procedural Earth-like boundary datasets.
///
/// The paper used observed topography (hand-tuned "to preserve basin
/// topology at the represented resolution"), the Matthews vegetation data
/// and the Shea-Trenberth-Reynolds SST climatology. None of those files are
/// available here, so this module builds analytic equivalents that preserve
/// what the experiments actually consume:
///   * basin topology — Atlantic / Pacific / Indian / Arctic / Southern
///     oceans separated by the Americas, Eurasia-Africa, Australia and
///     Antarctica, with an open Drake Passage and a closed Panama isthmus
///     (the Fig. 4 two-basin analysis needs distinct N. Atlantic and
///     N. Pacific);
///   * coastal drainage — continents slope toward their coasts so river
///     routing produces basins that drain to the sea;
///   * the observed broad SST structure — warm pool, equatorial Pacific
///     cold tongue, western-boundary warm currents, polar freeze clamp —
///     which is the "observations" panel of Fig. 3.
///
/// Longitudes are degrees east in [0, 360), latitudes degrees north.

#include "base/field.hpp"
#include "numerics/grid.hpp"

namespace foam::data {

/// Soil types of the FOAM land model (5 types derived from vegetation data
/// in the paper, plus ocean/sea-ice handled by the coupler).
enum class SoilType : int {
  kIceSheet = 0,   // Greenland / Antarctica
  kTundra = 1,
  kGrassland = 2,
  kForest = 3,
  kDesert = 4,
};

/// Longitude [deg] wrapped into [0, 360): bitwise the result of
/// fmod(lon, 360) plus 360 when that is negative (-0.0 stays -0.0).
double wrap_lon(double lon);

/// True where the point is on one of the procedural continents.
bool is_land(double lat_deg, double lon_deg);

/// Land elevation [m]; 0 over ocean. Smooth ranges standing in for the
/// Rockies, Andes, Himalaya and the ice sheets.
double elevation(double lat_deg, double lon_deg);

/// Ocean depth [m], positive downward; 0 over land. Deep interior basins
/// (~4500 m) shoaling toward coasts, a mid-Atlantic ridge and shallow
/// shelves.
double ocean_depth(double lat_deg, double lon_deg);

/// Soil type for a land point (meaningless over ocean).
SoilType soil_type(double lat_deg, double lon_deg);

/// Monthly SST climatology [deg C]; month in [0, 12). This is the analytic
/// stand-in for the Shea et al. observations of Fig. 3(b).
double sst_climatology(double lat_deg, double lon_deg, int month);

/// Annual-mean SST climatology [deg C].
double sst_annual_mean(double lat_deg, double lon_deg);

/// Solar declination [radians] for a fractional day of the 365-day year.
double solar_declination(double day_of_year);

/// Cosine of the solar zenith angle for latitude [rad], declination [rad]
/// and hour angle [rad from local noon]; clamped at 0 below the horizon.
double cos_zenith(double lat_rad, double declination, double hour_angle);

/// Daily-mean top-of-atmosphere insolation [W/m^2] at a latitude for a
/// given day of year (used by the radiation scheme and tests).
double daily_mean_insolation(double lat_rad, double day_of_year);

// --- rasterizers ---------------------------------------------------------

/// Land mask on a grid: 1 = land, 0 = ocean.
Field2D<int> land_mask(const numerics::LatLonGrid& grid);

/// Ocean mask: 1 = ocean, 0 = land (complement of land_mask).
Field2D<int> ocean_mask(const numerics::LatLonGrid& grid);

/// Elevation [m] on a grid (0 over ocean).
Field2Dd orography(const numerics::LatLonGrid& grid);

/// Ocean depth [m] on a grid (0 over land).
Field2Dd bathymetry(const numerics::LatLonGrid& grid);

/// Soil types on a grid (value meaningful only where land_mask == 1).
Field2D<int> soil_types(const numerics::LatLonGrid& grid);

/// Monthly SST climatology rasterized on a grid (land cells get the
/// coastal value; mask separately).
Field2Dd sst_climatology_field(const numerics::LatLonGrid& grid, int month);

/// Annual-mean SST on a grid.
Field2Dd sst_annual_mean_field(const numerics::LatLonGrid& grid);

}  // namespace foam::data
