#pragma once

/// \file model.hpp
/// The FOAM atmosphere: R15 spectral dynamics + 18-level column physics.
///
/// Assembly of the pieces in this directory into the component the coupler
/// drives: spectral vorticity dynamics provide the winds (and the
/// PCCM2-style transform data flow); thermodynamics (temperature, moisture)
/// live on the Gaussian grid with upwind advection by the dynamical winds;
/// column physics supplies radiation, convection, precipitation, PBL mixing
/// and the surface fluxes exchanged with the coupler.
///
/// Parallelization: latitude rows in the distributed spectral transform's
/// balanced blocks (physics and grid advection local + one halo row; the
/// transforms transpose to wavenumber blocks and back, with the serial
/// transform's bits). With comm == nullptr the model is serial.

#include <cstdint>
#include <memory>
#include <vector>

#include "atm/column.hpp"
#include "atm/config.hpp"
#include "atm/dynamics.hpp"
#include "base/calendar.hpp"
#include "base/history.hpp"
#include "base/field.hpp"
#include "numerics/grid.hpp"
#include "numerics/spectral.hpp"
#include "par/comm.hpp"

namespace foam::atm {

/// Surface boundary condition, per atmosphere grid cell (provided by the
/// coupler each coupling interval).
struct SurfaceFields {
  SurfaceFields() = default;
  SurfaceFields(int nlon, int nlat)
      : tsurf(nlon, nlat, 288.0),
        albedo(nlon, nlat, 0.1),
        roughness(nlon, nlat, 1e-4),
        wetness(nlon, nlat, 1.0),
        is_ocean(nlon, nlat, 1),
        is_ice(nlon, nlat, 0) {}
  Field2Dd tsurf;     ///< [K]
  Field2Dd albedo;
  Field2Dd roughness; ///< [m]
  Field2Dd wetness;   ///< D_w
  Field2D<int> is_ocean;
  Field2D<int> is_ice;
};

/// Fluxes handed to the coupler, per atmosphere grid cell, averaged over
/// the steps since the last exchange.
struct FluxFields {
  FluxFields() = default;
  FluxFields(int nlon, int nlat)
      : sw_sfc(nlon, nlat, 0.0), lw_down(nlon, nlat, 0.0),
        sensible(nlon, nlat, 0.0), latent(nlon, nlat, 0.0),
        evaporation(nlon, nlat, 0.0), rain(nlon, nlat, 0.0),
        snow(nlon, nlat, 0.0), taux(nlon, nlat, 0.0),
        tauy(nlon, nlat, 0.0) {}
  Field2Dd sw_sfc;       ///< net solar absorbed by the surface [W/m^2]
  Field2Dd lw_down;      ///< downward longwave [W/m^2]
  Field2Dd sensible;     ///< positive upward [W/m^2]
  Field2Dd latent;       ///< positive upward [W/m^2]
  Field2Dd evaporation;  ///< [kg/m^2/s]
  Field2Dd rain;         ///< [kg/m^2/s]
  Field2Dd snow;         ///< [kg/m^2/s]
  Field2Dd taux;         ///< stress on the surface [N/m^2]
  Field2Dd tauy;
};

class AtmosphereModel {
 public:
  explicit AtmosphereModel(const AtmConfig& cfg, par::Comm* comm = nullptr);

  /// Initialize temperature/moisture to a zonal climatology and spin the
  /// dynamics up from its climatological jets.
  void init_default(unsigned seed = 7u);

  /// Set the surface boundary condition (full-size fields; only owned rows
  /// are read).
  void set_surface(const SurfaceFields& sfc);
  /// The currently installed surface boundary condition. The parallel
  /// driver checkpoints this directly: with overlapped coupling the
  /// installed surface lags the newest delivered SST by one exchange, so it
  /// cannot be rebuilt from the ocean state alone.
  const SurfaceFields& surface() const { return sfc_; }

  /// One 30-minute step at model time \p now. Collective.
  void step(const ModelTime& now);

  /// Split the spectral batches (dynamics and the emulated full-core
  /// transforms) by field and the grid-point phase (physics, radiation,
  /// advection) by latitude row over \p team; null runs them on the calling
  /// thread alone. Bitwise identical either way. The team must outlive its
  /// use here.
  void set_team(par::Team* team);

  /// Flux accumulators since the last reset (divide by steps for means).
  const FluxFields& accumulated_fluxes() const { return flux_accum_; }
  /// Fluxes of the most recent step (for the per-step land update).
  const FluxFields& last_fluxes() const { return flux_last_; }
  int accumulated_steps() const { return flux_steps_; }
  void reset_flux_accumulation();

  // --- state access -------------------------------------------------------
  const numerics::GaussianGrid& grid() const { return grid_; }
  const AtmConfig& config() const { return cfg_; }
  const SpectralDynamics& dynamics() const { return dyn_; }
  /// Temperature [K] / specific humidity of level k (k = 0 top).
  const Field3Dd& temperature() const { return t3_; }
  const Field3Dd& moisture() const { return q3_; }
  /// Cached radiative heating rate [K/s] of level k.
  const Field3Dd& radiative_heating() const { return rad_heat_; }
  /// Near-surface winds [m/s] (lowest dynamical level).
  const Field2Dd& u_sfc() const { return dyn_.u(cfg_.ndyn - 1); }
  const Field2Dd& v_sfc() const { return dyn_.v(cfg_.ndyn - 1); }

  /// Area-weighted global means over owned rows (collective when parallel).
  double mean_t_sfc_level() const;
  double mean_precip() const;

  /// Owned latitude rows, the distributed transform's block.
  par::Range lats() const { return pst_.lats(); }

  /// Abstract cost counter (grid-point updates + spectral work).
  double work_points() const { return work_points_; }

  /// Checkpoint the prognostic state (serial use).
  void save_state(HistoryWriter& out, const std::string& prefix) const;
  void load_state(const HistoryReader& in, const std::string& prefix);

 private:
  void exchange_halo(Field3Dd& f);
  void advect_tracers();
  void run_physics(const ModelTime& now);
  void update_radiation_cache(const ModelTime& now);
  void update_thermal_jet(par::Comm* comm);
  double cos_zenith_at(int i, int j, const ModelTime& now) const;
  /// The one column of (i, j) in \p col and its surface in \p s.
  void load_column(int i, int j, Column& col, Surface& s) const;

  /// One team member's scratch, sized once (constructor, set_team) so no
  /// team body allocates: a column, its heating rates, and the advected
  /// values of the member's latitude rows (its largest chunk).
  struct MemberScratch {
    MemberScratch(int nlev, std::size_t advect_size);
    Column col;
    std::vector<double> heat;
    std::vector<double> t_next, q_next;
  };
  /// Run body(member, j_lo, j_hi) over the owned rows, split on the team.
  template <typename Body>
  void row_chunks(Body&& body);

  AtmConfig cfg_;
  par::Comm* comm_;
  numerics::GaussianGrid grid_;
  numerics::SpectralTransform st_;
  /// The one distributed transform of the dynamics and the emulated
  /// full-core transform work; it owns the latitude decomposition.
  numerics::ParSpectralTransform pst_;
  par::Team* team_ = nullptr;
  int j0_ = 0, j1_ = 0;  // contiguous owned range
  SpectralDynamics dyn_;
  LevelTable levels_;  // every column runs at kDefaultSurfacePressure
  std::vector<MemberScratch> scratch_;  // one per team member

  Field3Dd t3_, q3_;        // temperature [K], moisture [kg/kg]
  Field3Dd rad_heat_;       // cached radiative heating [K/s]
  SurfaceFields sfc_;
  FluxFields flux_accum_;
  FluxFields flux_last_;
  int flux_steps_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t last_radiation_step_ = -1000000;
  double work_points_ = 0.0;
};

}  // namespace foam::atm
