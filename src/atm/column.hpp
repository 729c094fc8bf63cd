#pragma once

/// \file column.hpp
/// Column physics of the FOAM atmosphere.
///
/// The paper's strategy was "to use established representations of system
/// physics" — CCM2 parameterizations with selected CCM3 upgrades. This
/// module implements simplified members of the same parameterization
/// families, with the CCM2/CCM3 differences the paper highlights:
///   * moist convection: CCM2 uses a Hack-style moist adjustment only;
///     CCM3 adds a Zhang-McFarlane-style CAPE-consuming deep convection
///     scheme and evaporation of stratiform precipitation — the changes
///     that "vastly improved" the tropical Pacific (paper §6);
///   * surface fluxes: stability-dependent bulk transfer in both; CCM3
///     replaces the constant ocean roughness with a wind-speed-dependent
///     (Charnock) diagnosed roughness;
///   * radiation: two-band solar with cloud albedo and a gray longwave
///     with water-vapour + CO2 emissivity (delta-Eddington / 15-um-band
///     family stand-ins).
///
/// All functions operate on one vertical column; columns never exchange
/// information (the property that makes CCM physics embarrassingly
/// parallel, paper §4.1).

#include <span>
#include <vector>

#include "atm/config.hpp"

namespace foam::atm {

/// Surface pressure of a column unless set otherwise [Pa].
inline constexpr double kDefaultSurfacePressure = 1.0e5;

/// Sigma coordinate: level k = 0 is the model top. Midpoint values.
std::vector<double> sigma_levels(int nlev);

/// State of one atmospheric column (SI units; temperature in K, specific
/// humidity in kg/kg). Winds are supplied for flux computations only.
struct Column {
  std::vector<double> t;  ///< temperature per level [K]
  std::vector<double> q;  ///< specific humidity per level [kg/kg]
  double ps = kDefaultSurfacePressure;  ///< surface pressure [Pa]
};

/// The pressure-only factors of every level for columns of one surface
/// pressure, built once instead of per column. Each entry is the very
/// std::pow / std::log call the column code made on sig[k] * ps, so a
/// column computes the same bits from the table as without it. The column
/// functions reject (FOAM_REQUIRE) a column whose ps or level count differs
/// from the table's.
struct LevelTable {
  explicit LevelTable(int nlev, double ps = kDefaultSurfacePressure);
  int nlev() const { return static_cast<int>(sigma.size()); }

  double ps;                        ///< surface pressure the table is for
  std::vector<double> sigma;        ///< sigma_levels(nlev)
  std::vector<double> p;            ///< sigma[k] * ps [Pa]
  std::vector<double> to_theta;     ///< (p_ref / p)^kappa
  std::vector<double> from_theta;   ///< (p / p_ref)^kappa
  std::vector<double> log_pref_p;   ///< log(p_ref / p)
};

/// Properties of the underlying surface, provided by the coupler.
struct Surface {
  double tsurf = 288.0;     ///< surface (skin) temperature [K]
  double albedo = 0.1;
  double roughness = 1e-4;  ///< [m]; ignored for ocean under CCM3
  double wetness = 1.0;     ///< D_w evaporation factor (1 over ocean/ice/snow)
  bool is_ocean = true;
  bool is_ice = false;
};

/// Fluxes returned to the coupler (positive upward unless noted).
struct ColumnFluxes {
  double sw_absorbed_sfc = 0.0;  ///< net solar absorbed by the surface [W/m^2]
  double lw_down_sfc = 0.0;      ///< downward longwave at the surface [W/m^2]
  double lw_up_sfc = 0.0;        ///< upward longwave at the surface [W/m^2]
  double sensible = 0.0;         ///< sensible heat flux [W/m^2]
  double latent = 0.0;           ///< latent heat flux [W/m^2]
  double evaporation = 0.0;      ///< [kg/m^2/s]
  double precip_rain = 0.0;      ///< [kg/m^2/s]
  double precip_snow = 0.0;      ///< [kg/m^2/s]
  double taux = 0.0;             ///< surface stress on the surface [N/m^2]
  double tauy = 0.0;
  double olr = 0.0;              ///< outgoing longwave at TOA [W/m^2]
  double sw_toa = 0.0;           ///< absorbed solar, whole column+sfc [W/m^2]
};

/// Saturation specific humidity over water [kg/kg] at temperature [K] and
/// pressure [Pa] (Tetens).
double saturation_q(double t_k, double p_pa);

/// Bulk transfer coefficient with stability dependence (Louis-type form):
/// neutral coefficient from roughness, increased in unstable and strongly
/// reduced in stable conditions.
double bulk_transfer_coefficient(double z_ref, double z0, double ri_bulk);

/// CCM3 diagnosed ocean roughness from the wind speed (Charnock relation
/// with a smooth-flow floor); CCM2 uses a constant.
double ocean_roughness_ccm3(double wind_speed);

/// One physics step for one column on the levels \p lev. Updates t and q
/// in place and returns the surface/TOA fluxes. \p rad_heat is the cached
/// radiative heating rate [K/s per level] (recomputed by the model on the
/// radiation period, applied every step — the CCM practice behind the
/// twice-daily "long steps" of Fig. 2) and \p u_sfc / v_sfc the
/// near-surface winds. Allocates nothing.
ColumnFluxes step_column_physics(const AtmConfig& cfg, const LevelTable& lev,
                                 Column& col, const Surface& sfc,
                                 std::span<const double> rad_heat,
                                 double u_sfc, double v_sfc, double dt);

/// Radiation only (called on the radiation period): writes the heating
/// rates [K/s per level] into \p heat and the surface/TOA radiative terms
/// into \p fluxes. Exposed separately for tests. Allocates nothing.
void radiation_heating(const AtmConfig& cfg, const LevelTable& lev,
                       const Column& col, const Surface& sfc,
                       double cos_zenith, std::span<double> heat,
                       ColumnFluxes& fluxes);

/// Moist convection: CCM2-style moist adjustment, optionally (CCM3) with
/// deep CAPE-consuming convection and stratiform-precip evaporation.
/// Returns rain rate [kg/m^2/s]. Exposed for tests.
double moist_convection(const AtmConfig& cfg, const LevelTable& lev,
                        Column& col, double dt);

/// Large-scale (stratiform) condensation with CCM3 evaporation of falling
/// precipitation. Returns rain rate [kg/m^2/s].
double large_scale_condensation(const AtmConfig& cfg, const LevelTable& lev,
                                Column& col, double dt);

}  // namespace foam::atm
