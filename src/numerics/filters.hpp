#pragma once

/// \file filters.hpp
/// Horizontal filters and dissipation operators for grid-point models.
///
/// * PolarFourierFilter — the "spatial filter similar to the sort used in
///   atmospheric models" that keeps the FOAM ocean stable in the Arctic:
///   poleward of a critical latitude, zonal wavenumbers whose physical
///   wavelength falls below the critical-latitude resolution are attenuated.
/// * laplacian_masked / biharmonic_tendency — metric-aware 5-point Laplacian
///   with land masking (no-flux walls) and the del^4 dissipation built from
///   it ("spatial mode splitting on the grid is prevented through the use of
///   a del^4 numerical dissipation").

#include <vector>

#include "base/field.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"

namespace foam::numerics {

/// Zonal Fourier filter applied poleward of a critical latitude.
/// Wavenumber m at latitude phi keeps the fraction
///   f_m(phi) = min(1, m_max(phi) / m),  m_max = (nlon/2) cos(phi)/cos(phi_c)
/// so the shortest retained physical wavelength never falls below the one
/// resolved at the critical latitude. m = 0 (the zonal mean) always passes
/// unchanged, and the filter never amplifies.
///
/// Rows run through one FftPlan's complex lane transforms, up to kLanes
/// rows per call, with the attenuation factors tabulated at construction,
/// so filtering allocates nothing. Each lane repeats the butterflies of the
/// reference recursion (the test oracle Fft, tests/oracle/fft.hpp) in the
/// same order, which keeps every row bitwise equal to the reference
/// formulation Fft::forward_real -> scale -> Fft::inverse_real. (The plan's real rows API runs the half-length split
/// path, which agrees with that formulation only to rounding, so it is not
/// used here.)
class PolarFourierFilter {
 public:
  /// Caller-owned scratch for filter_row/filter_rows (one per thread):
  /// the [point][lane] spectrum planes and the plan's lane workspace, sized
  /// once.
  class Workspace {
   public:
    explicit Workspace(const PolarFourierFilter& filter);

   private:
    friend class PolarFourierFilter;
    std::vector<double> re_, im_, lanes_work_;
  };

  /// Rows filter_rows() takes per call.
  static constexpr int kLanes = FftPlan::kLanes;

  PolarFourierFilter(const MercatorGrid& grid, double crit_lat_deg = 60.0);

  /// Filter one 2-D field in place. In each polar row, land cells
  /// (mask == 0) are filled with the row's ocean mean before filtering and
  /// keep their values after; rows without ocean are left untouched (the
  /// filter is a numerical-stability device, exact conservation near coasts
  /// is not required — the paper's usage).
  void apply(Field2Dd& f, const Field2D<int>& mask) const;
  void apply(Field2Dd& f) const;

  /// Filter the nlon-long zonal row \p row of latitude row \p j in place
  /// with the rule of apply(f, mask); \p mask holds the row's nlon wet
  /// flags, or is null for an all-ocean row. Only wet cells are written.
  void filter_row(double* row, int j, const int* mask, Workspace& ws) const;

  /// filter_row() on \p nrows (1..kLanes) rows at once: row r is
  /// \p rows[r] of latitude row \p js[r] with wet flags \p masks[r]
  /// (null: all ocean). A row's result does not depend on the batch it
  /// rides in; a short batch is padded with its last row, which is written
  /// once.
  void filter_rows(double* const* rows, const int* js,
                   const int* const* masks, int nrows, Workspace& ws) const;

  /// True when latitude row j lies poleward of the critical latitude (the
  /// rows apply() filters).
  bool is_polar_row(int j) const { return grid_.cos_lat(j) < cos_crit_; }

  /// Attenuation factor for wavenumber m at latitude row j (1 = untouched).
  double factor(int m, int j) const;

  double crit_lat_deg() const { return crit_lat_deg_; }

 private:
  const MercatorGrid& grid_;
  double crit_lat_deg_;
  double cos_crit_;
  FftPlan plan_;
  /// factor(m, j) at [j * (nlon/2 + 1) + m], m = 0..nlon/2.
  std::vector<double> factors_;
};

/// Masked metric Laplacian on a Mercator grid: for each ocean cell,
///   lap = (1/dx^2)(f_e - 2f + f_w) + (1/(dy^2))(f_n - 2f + f_s)
/// with one-sided closure at land (no-flux). Longitude wraps periodically.
void laplacian_masked(const MercatorGrid& grid, const Field2Dd& f,
                      const Field2D<int>& mask, Field2Dd& out);

/// Biharmonic (del^4) dissipation tendency: out = -k4 * lap(lap(f)).
/// k4 in m^4/s.
void biharmonic_tendency(const MercatorGrid& grid, const Field2Dd& f,
                         const Field2D<int>& mask, double k4, Field2Dd& out);

}  // namespace foam::numerics
