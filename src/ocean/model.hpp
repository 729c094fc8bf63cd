#pragma once

/// \file model.hpp
/// The FOAM parallel ocean model (and, by configuration, its conventional
/// baseline).
///
/// A z-level primitive-equation ocean on an unstaggered (A-grid) Mercator
/// grid, following the description in paper §4.2:
///  * linear (non-advective) momentum dynamics with leapfrog time stepping
///    (Robert-Asselin filtered), explicit Coriolis, hydrostatic baroclinic
///    pressure gradients, wind stress, implicit Pacanowski-Philander
///    vertical mixing with a steepened Richardson dependency, Laplacian
///    lateral viscosity and del^4 dissipation against A-grid mode splitting;
///  * an explicitly represented free surface whose dynamics are
///    artificially *slowed* (continuity scaled by 1/slow_factor, reducing
///    the external wave speed by sqrt(slow_factor) while leaving steady
///    circulation unchanged);
///  * the fast 2-D barotropic subsystem *split* from the internal mode and
///    subcycled forward-backward with a short step while the internal ocean
///    takes a long one;
///  * an even longer step for the advective/diffusive (tracer) processes:
///    forward-in-time, upwind-in-space transport (monotone, so tracers stay
///    within physical bounds where the masked velocity field is discretely
///    divergent), implicit vertical diffusion and convective adjustment.
///    The tracers carry one time level; only the momentum leapfrogs.
///
/// Parallelization: the domain is distributed in balanced contiguous boxes
/// over a px * py Cartesian rank grid (par::Decomp2D; px = 1 reproduces the
/// historic latitude-row decomposition rank-for-rank). Each rank computes
/// its box and keeps a one-cell halo ring current through nonblocking
/// message passing (rows first, then periodic columns over the extended row
/// range, so corners arrive consistent). Zonal operations that need whole
/// rows — the polar Fourier filter — gather the polar rows across the
/// process row, filter them cooperatively (a balanced share per rank), and
/// write back the owned segments. With comm == nullptr the model runs
/// serially.
///
/// The sweeps run over row pointers (see DESIGN.md, "Ocean sweeps"): level
/// by level within each latitude row, the wrap columns peeled, land tested
/// by selects on the column's level count. Every output element keeps the
/// exact operation sequence of the per-cell formulation, so the state is
/// bitwise independent of loop order, vector width and team size.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/field.hpp"
#include "base/history.hpp"
#include "numerics/filters.hpp"
#include "numerics/grid.hpp"
#include "ocean/config.hpp"
#include "ocean/vgrid.hpp"
#include "par/comm.hpp"
#include "par/decomp.hpp"
#include "par/team.hpp"

namespace foam::ocean {

/// Diagnostics snapshot returned by OceanModel::diagnostics().
struct OceanDiagnostics {
  double mean_sst = 0.0;      ///< area-weighted mean SST [deg C]
  double mean_kinetic = 0.0;  ///< mean kinetic energy density [m^2/s^2]
  double max_speed = 0.0;     ///< max |u| over the full state [m/s]
  double max_eta = 0.0;       ///< max |eta| [m]
  double mean_temp_3d = 0.0;  ///< volume-mean temperature [deg C]
  double frazil_heat = 0.0;   ///< accumulated freeze-clamp heat [J/m^2]
};

/// One coupling interval's surface forcing, applied atomically through
/// OceanModel::set_forcing. Null members keep the previously set field;
/// wind components must be supplied together. Every supplied field is
/// shape-checked before any is copied, so a malformed bundle can never
/// leave the model with a half-updated forcing state.
struct OceanForcing {
  const Field2Dd* wind_x = nullptr;      ///< zonal wind stress [N/m^2]
  const Field2Dd* wind_y = nullptr;      ///< meridional wind stress [N/m^2]
  const Field2Dd* heat = nullptr;        ///< net heat flux [W/m^2, into ocean]
  const Field2Dd* freshwater = nullptr;  ///< freshwater flux [m/s liquid]
  const Field2Dd* ice = nullptr;         ///< sea-ice cell fraction [0..1]
};

class OceanModel {
 public:
  /// The grid and bathymetry must outlive the model. \p comm may be null
  /// (serial); otherwise the domain is decomposed over a px * (size/px)
  /// rank grid (px must divide the communicator size) and every rank must
  /// construct the model with the same arguments. px = 1 is the historic
  /// row decomposition.
  OceanModel(const OceanConfig& cfg, const numerics::MercatorGrid& grid,
             const Field2Dd& bathymetry, par::Comm* comm = nullptr,
             int px = 1);

  /// Initialize T/S to an analytic stratified climatology and the
  /// velocities to thermal-wind balance.
  void init_climatology();

  // --- forcing (set on full-size fields; only owned cells are read) ------
  /// Apply one coupling interval's forcing bundle atomically: wind stress,
  /// net heat flux [W/m^2 into the ocean], freshwater flux [m/s liquid],
  /// and sea-ice fraction (clamps SST; scales stress by
  /// 1/ice_stress_divisor per the paper). The per-field setter shims that
  /// predated the bundle (set_wind_stress & co.) were deprecated in PR 6
  /// and are gone.
  void set_forcing(const OceanForcing& f);

  /// Advance one internal (momentum) step dt_mom, subcycling the barotropic
  /// system and taking a tracer step when due.
  void step();
  /// Advance a whole number of days.
  void run_days(double days);

  double time_seconds() const {
    return static_cast<double>(steps_) * cfg_.dt_mom;
  }
  std::int64_t step_count() const { return steps_; }
  const OceanConfig& config() const { return cfg_; }
  const VerticalGrid& vgrid() const { return vgrid_; }
  const Field2D<int>& levels() const { return levels_; }

  // --- state access -------------------------------------------------------
  /// SST [deg C]: valid on owned cells (serial: everywhere).
  Field2Dd sst() const;
  /// Full-field gather of any 2-D box-decomposed field (collective).
  Field2Dd gather(const Field2Dd& f) const;
  const Field2Dd& eta() const { return eta_; }
  const Field3Dd& temperature() const { return t_; }
  const Field3Dd& salinity() const { return s_; }
  /// Full velocities (baroclinic + barotropic) [m/s].
  double u_total(int i, int j, int k) const {
    return up_(i, j, k) + ub_(i, j);
  }
  double v_total(int i, int j, int k) const {
    return vp_(i, j, k) + vb_(i, j);
  }

  /// Collective diagnostics over the whole domain.
  OceanDiagnostics diagnostics() const;

  /// Per-cell freeze-clamp heat accumulated since the last drain [J/m^2]
  /// (the coupler turns it into sea-ice growth); draining resets it.
  Field2Dd drain_frazil();

  /// Checkpoint the full prognostic state (serial use; records are written
  /// under \p prefix). Restart with load_state on a freshly constructed
  /// model with identical configuration.
  void save_state(HistoryWriter& out, const std::string& prefix) const;
  void load_state(const HistoryReader& in, const std::string& prefix);

  /// Abstract cost: grid-point updates performed so far, the paper's
  /// "number of computations required per unit of simulated time" metric
  /// behind the ~10x formulation claim.
  double work_points() const { return work_points_; }

  /// Split the row-independent sweeps into bands of j rows over \p team
  /// (null: the calling thread alone). Every cell keeps one writer and
  /// every cross-row sum stays serial, so the state is bitwise identical
  /// for any team size. Helpers never touch the communicator: halo
  /// exchanges, gathers and the polar-row collectives stay on the calling
  /// thread. The team must outlive its use here.
  void set_team(par::Team* team);

  /// Owned row range [row_lo, row_hi).
  int row_lo() const { return j0_; }
  int row_hi() const { return j1_; }
  /// Owned column range [col_lo, col_hi).
  int col_lo() const { return i0_; }
  int col_hi() const { return i1_; }
  /// The rank grid this model was decomposed on (1x1 when serial).
  const par::Decomp2D& decomp() const { return decomp_; }

 private:
  /// Run body(member, jlo, jhi) over rows [lo, hi) in contiguous bands,
  /// one per team member (the whole range inline without a team).
  template <typename Body>
  void bands(int lo, int hi, Body&& body);
  double dx(int j) const { return grid_.dx(j); }
  double dy(int j) const { return grid_.dy(j); }
  /// Level counts of row j; a row outside the domain reads as all land.
  const int* lev_row(int j) const {
    return j >= 0 && j < cfg_.ny ? &levels_(0, j) : dry_row_.data();
  }
  /// Wet flags of row j (mask2d_); all land outside the domain.
  const int* mask_row(int j) const {
    return j >= 0 && j < cfg_.ny ? &mask2d_(0, j) : dry_row_.data();
  }
  /// The rows a stencil at row j reads north / south values from: j + 1 and
  /// j - 1, or j itself beyond the walls, where the neighbour's level
  /// counts read as land and the value is always selected away.
  int north(int j) const { return j + 1 < cfg_.ny ? j + 1 : j; }
  int south(int j) const { return j > 0 ? j - 1 : j; }
  /// Run body(lo, hi) over the columns the extended-range loops visit: the
  /// owned ones, plus the wrapped halo column on each side when px > 1.
  template <typename Body>
  void ext_columns(Body&& body) const;

  void exchange_halo(Field2Dd& f);
  void exchange_halo(Field3Dd& f);
  /// Gather full x-rows across the process row: \p mine holds this rank's
  /// owned segment of each of \p nslots rows, slot-major; returns
  /// nslots * nx values, each slot a complete zonal row (replicated on
  /// every rank of the row communicator).
  std::vector<double> row_gather_full(const std::vector<double>& mine,
                                      int nslots) const;
  /// Filter \p nslots gathered full rows cooperatively across the process
  /// row: row-comm rank r filters slots r, r+P, ... in place (each slot's
  /// grid row given by \p j_of, nx wet flags filled by \p fill_mask), then
  /// the filtered rows are re-shared so every rank returns with all slots
  /// filtered. The filter is deterministic, so the result is bitwise
  /// independent of which rank filtered which slot.
  void filter_rows_distributed(
      std::vector<double>& full, int nslots,
      const std::function<int(int)>& j_of,
      const std::function<void(int, int*)>& fill_mask);
  void density();
  void baroclinic_pressure();
  void pressure_forces();  // fills gx_, gy_, fbar_x_, fbar_y_ from pbc_
  void internal_momentum_step();
  void barotropic_subcycle();
  void tracer_step();
  void vertical_mixing_coefficients();
  void convective_adjustment();
  void apply_polar_filter_2d(Field2Dd& f);
  void apply_polar_filter_3d(Field3Dd& f);
  void enforce_zero_depth_mean();
  void index_biharmonic_filter(Field2Dd& f, double eps);
  void init_thermal_wind();
  /// Vertical velocity at layer-top interfaces from the baroclinic
  /// deviation velocities (positive up); fills wtop_.
  void diagnose_w();
  /// Implicit vertical diffusion solve of two 3-D fields sharing the
  /// interface coefficient field over time dt: one matrix per column.
  void implicit_vertical(Field3Dd& fa, Field3Dd& fb, const Field3Dd& coeff,
                         double dt);

  OceanConfig cfg_;
  const numerics::MercatorGrid& grid_;
  par::Comm* comm_;
  VerticalGrid vgrid_;
  Field2D<int> levels_;
  Field2D<int> mask2d_;
  Field2Dd depth_;  // actual wet column depth [m]
  numerics::PolarFourierFilter filter_;
  /// Scratch of one team member (index 0: the rank thread), sized at
  /// construction / set_team so the band sweeps never allocate.
  struct MemberScratch {
    MemberScratch(const numerics::PolarFourierFilter& filter, int nx, int nz);
    /// Per-column accumulators of one grid row: kAccs rows of nx + 1.
    static constexpr int kAccs = 4;
    double* acc(int s) {
      return accs.data() + static_cast<std::size_t>(s) * acc_stride;
    }
    numerics::PolarFourierFilter::Workspace filter_ws;
    std::vector<int> masks;  // kLanes rows of wet flags (nx each)
    std::size_t acc_stride;
    std::vector<double> accs;
    // One column: tridiagonal, its factors, two interleaved right-hand
    // sides; convection's T/S copies.
    std::vector<double> la, lb, lc, cp, den, rhs, tcol, scol;
  };
  std::vector<MemberScratch> scratch_;
  par::Team* team_ = nullptr;

  par::Decomp2D decomp_;
  int pi_ = 0, pj_ = 0;  // this rank's coordinates on the rank grid
  int j0_ = 0;  // owned rows [j0, j1)
  int j1_ = 0;
  int i0_ = 0;  // owned columns [i0, i1)
  int i1_ = 0;
  /// The wrapped halo columns extended-range loops add when px > 1 (-1:
  /// none).
  int ext_w_ = -1, ext_e_ = -1;
  /// Deepest level count of each row (rows are skipped below it).
  std::vector<int> row_levels_;
  /// nx zeros: the level counts of a row beyond the domain walls.
  std::vector<int> dry_row_;
  /// dz(k) * (interface spacing above / below k): the vertical diffusion
  /// matrix's denominators.
  std::vector<double> vdiff_up_, vdiff_dn_;
  /// Owned rows poleward of the filter latitude, ascending.
  std::vector<int> polar_rows_;
  /// Communicator over the ranks sharing this process row (key = pi), used
  /// by the polar-filter row gather; null when px == 1.
  std::unique_ptr<par::Comm> row_comm_;

  // State (momentum leapfrog: current and previous levels).
  Field3Dd up_, vp_;            // baroclinic deviation velocity [m/s]
  Field3Dd up_prev_, vp_prev_;  // previous time level
  Field3Dd t_, s_;              // temperature [C], salinity [psu]
  Field2Dd eta_;                // free surface [m]
  Field2Dd ub_, vb_;            // barotropic velocity [m/s]
  bool have_mom_prev_ = false;

  // Work arrays.
  Field3Dd rho_, pbc_, nu_, kappa_, gx_, gy_, wtop_;
  Field2Dd fbar_x_, fbar_y_;
  /// The leapfrog's new level; the tracer step's new level in between.
  Field3Dd u_new_, v_new_;
  /// One level's Laplacian (momentum friction) or a barotropic field's
  /// index Laplacian (index filter), and one level's divergence.
  Field2Dd lap_, div_;
  /// The barotropic substeps' constant forcing: fbar + surface stress / h.
  Field2Dd baro_fx_, baro_fy_;

  // Forcing.
  Field2Dd taux_, tauy_, qnet_, fw_, ice_;

  std::int64_t steps_ = 0;
  double work_points_ = 0.0;
  double frazil_heat_ = 0.0;
  Field2Dd frazil_cell_;
};

/// Analytic wind stress for ocean-only experiments: tropical easterlies,
/// mid-latitude westerlies, polar decay [N/m^2].
double analytic_zonal_stress(double lat_rad);

/// Restoring heat flux toward the SST climatology [W/m^2]:
/// q = lambda * (T_clim - sst).
Field2Dd restoring_heat_flux(const numerics::MercatorGrid& grid,
                             const Field2Dd& sst, int month,
                             double lambda_w_m2_k = 40.0);

}  // namespace foam::ocean
