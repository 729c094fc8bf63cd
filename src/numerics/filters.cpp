#include "numerics/filters.hpp"

#include <algorithm>
#include <cmath>

#include "base/constants.hpp"

namespace foam::numerics {

using constants::deg2rad;

PolarFourierFilter::Workspace::Workspace(const PolarFourierFilter& filter)
    : re_(static_cast<std::size_t>(filter.plan_.size()) * kLanes),
      im_(re_.size()),
      lanes_work_(filter.plan_.lanes_workspace_size()) {}

PolarFourierFilter::PolarFourierFilter(const MercatorGrid& grid,
                                       double crit_lat_deg)
    : grid_(grid), crit_lat_deg_(crit_lat_deg),
      cos_crit_(std::cos(crit_lat_deg * deg2rad)), plan_(grid.nlon()) {
  FOAM_REQUIRE(crit_lat_deg > 0.0 && crit_lat_deg < 90.0,
               "crit_lat_deg=" << crit_lat_deg);
  const int nm = grid_.nlon() / 2 + 1;
  factors_.resize(static_cast<std::size_t>(grid_.nlat()) * nm);
  for (int j = 0; j < grid_.nlat(); ++j)
    for (int m = 0; m < nm; ++m)
      factors_[static_cast<std::size_t>(j) * nm + m] = factor(m, j);
}

double PolarFourierFilter::factor(int m, int j) const {
  if (m == 0) return 1.0;
  const double cos_lat = grid_.cos_lat(j);
  if (cos_lat >= cos_crit_) return 1.0;  // equatorward of critical latitude
  const double m_max = 0.5 * grid_.nlon() * cos_lat / cos_crit_;
  return std::min(1.0, m_max / m);
}

void PolarFourierFilter::filter_row(double* row, int j, const int* mask,
                                    Workspace& ws) const {
  filter_rows(&row, &j, &mask, 1, ws);
}

void PolarFourierFilter::filter_rows(double* const* rows, const int* js,
                                     const int* const* masks, int nrows,
                                     Workspace& ws) const {
  constexpr int L = kLanes;
  const int n = grid_.nlon();
  FOAM_REQUIRE(nrows >= 1 && nrows <= L, "filter_rows of " << nrows);
  FOAM_ASSERT(ws.re_.size() == static_cast<std::size_t>(n) * L,
              "workspace of another filter");
  double* re = ws.re_.data();
  double* im = ws.im_.data();
  // One lane per row (a short batch repeats its last row). Fill land with
  // the row's ocean mean (summed in index order) so the filter sees no
  // artificial jumps at coastlines; land values are never written back,
  // and an all-land row is left untouched.
  bool live[L];
  const double* fac[L];
  for (int l = 0; l < L; ++l) {
    const int r = std::min(l, nrows - 1);
    const double* row = rows[r];
    const int* mask = masks[r];
    live[l] = l < nrows;
    fac[l] = factors_.data() + static_cast<std::size_t>(js[r]) * (n / 2 + 1);
    double mean = 0.0;
    if (mask != nullptr) {
      int n_wet = 0;
      for (int i = 0; i < n; ++i)
        if (mask[i] != 0) {
          mean += row[i];
          ++n_wet;
        }
      if (n_wet == 0)
        live[l] = false;
      else
        mean /= n_wet;
    }
    for (int i = 0; i < n; ++i) {
      re[static_cast<std::size_t>(i) * L + l] =
          mask == nullptr || mask[i] != 0 ? row[i] : mean;
      im[static_cast<std::size_t>(i) * L + l] = 0.0;
    }
  }
  plan_.forward_lanes(re, im, ws.lanes_work_.data());
  for (int m = 1; m <= n / 2; ++m)
    for (int l = 0; l < L; ++l) {
      const std::size_t at = static_cast<std::size_t>(m) * L + l;
      re[at] *= fac[l][m];
      im[at] *= fac[l][m];
    }
  // Real input: rebuild the upper half from the scaled lower half (conj).
  for (int k = n / 2 + 1; k < n; ++k)
    for (int l = 0; l < L; ++l) {
      const std::size_t at = static_cast<std::size_t>(k) * L + l;
      const std::size_t from = static_cast<std::size_t>(n - k) * L + l;
      re[at] = re[from];
      im[at] = -im[from];
    }
  plan_.inverse_lanes(re, im, ws.lanes_work_.data());
  for (int l = 0; l < nrows; ++l) {
    if (!live[l]) continue;
    double* row = rows[l];
    const int* mask = masks[l];
    for (int i = 0; i < n; ++i)
      if (mask == nullptr || mask[i] != 0)
        row[i] = re[static_cast<std::size_t>(i) * L + l];
  }
}

void PolarFourierFilter::apply(Field2Dd& f) const {
  FOAM_REQUIRE(f.nx() == grid_.nlon() && f.ny() == grid_.nlat(),
               "field shape");
  Workspace ws(*this);
  for (int j = 0; j < grid_.nlat(); ++j)
    if (is_polar_row(j)) filter_row(&f(0, j), j, nullptr, ws);
}

void PolarFourierFilter::apply(Field2Dd& f, const Field2D<int>& mask) const {
  FOAM_REQUIRE(f.nx() == grid_.nlon() && f.ny() == grid_.nlat() &&
                   mask.nx() == f.nx() && mask.ny() == f.ny(),
               "field/mask shape");
  Workspace ws(*this);
  for (int j = 0; j < grid_.nlat(); ++j)
    if (is_polar_row(j)) filter_row(&f(0, j), j, &mask(0, j), ws);
}

void laplacian_masked(const MercatorGrid& grid, const Field2Dd& f,
                      const Field2D<int>& mask, Field2Dd& out) {
  FOAM_REQUIRE(f.nx() == grid.nlon() && f.ny() == grid.nlat(),
               "field shape");
  const int nx = grid.nlon();
  const int ny = grid.nlat();
  if (out.nx() != nx || out.ny() != ny) out = Field2Dd(nx, ny);
  for (int j = 0; j < ny; ++j) {
    const double inv_dx2 = 1.0 / (grid.dx(j) * grid.dx(j));
    const double inv_dy2 = 1.0 / (grid.dy(j) * grid.dy(j));
    for (int i = 0; i < nx; ++i) {
      if (mask(i, j) == 0) {
        out(i, j) = 0.0;
        continue;
      }
      const double fc = f(i, j);
      // No-flux closure: a land (or domain-edge) neighbour contributes the
      // center value, i.e. zero gradient across the wall.
      const double fe = (mask.wrap_x(i + 1, j) != 0) ? f.wrap_x(i + 1, j) : fc;
      const double fw = (mask.wrap_x(i - 1, j) != 0) ? f.wrap_x(i - 1, j) : fc;
      const double fn =
          (j + 1 < ny && mask(i, j + 1) != 0) ? f(i, j + 1) : fc;
      const double fs = (j - 1 >= 0 && mask(i, j - 1) != 0) ? f(i, j - 1) : fc;
      out(i, j) =
          (fe - 2.0 * fc + fw) * inv_dx2 + (fn - 2.0 * fc + fs) * inv_dy2;
    }
  }
}

void biharmonic_tendency(const MercatorGrid& grid, const Field2Dd& f,
                         const Field2D<int>& mask, double k4, Field2Dd& out) {
  FOAM_REQUIRE(k4 >= 0.0, "k4=" << k4);
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  laplacian_masked(grid, lap, mask, out);
  out *= -k4;
}

}  // namespace foam::numerics
