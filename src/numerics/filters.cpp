#include "numerics/filters.hpp"

#include <algorithm>
#include <cmath>

#include "base/constants.hpp"

namespace foam::numerics {

using constants::deg2rad;

PolarFourierFilter::Workspace::Workspace(const PolarFourierFilter& filter)
    : spec_(static_cast<std::size_t>(filter.plan_.size())),
      work_(filter.plan_.workspace_size()) {}

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
  using cplx = std::complex<double>;
  const int n = grid_.nlon();
  FOAM_ASSERT(ws.spec_.size() == static_cast<std::size_t>(n),
              "workspace of another filter");
  cplx* spec = ws.spec_.data();
  if (mask == nullptr) {
    for (int i = 0; i < n; ++i) spec[i] = cplx(row[i], 0.0);
  } else {
    // Fill land with the row's ocean mean so the filter sees no artificial
    // jumps at coastlines; land values are never written back.
    double mean = 0.0;
    int n_wet = 0;
    for (int i = 0; i < n; ++i)
      if (mask[i] != 0) {
        mean += row[i];
        ++n_wet;
      }
    if (n_wet == 0) return;
    mean /= n_wet;
    for (int i = 0; i < n; ++i)
      spec[i] = cplx(mask[i] != 0 ? row[i] : mean, 0.0);
  }
  plan_.forward(spec, ws.work_.data());
  const double* fac =
      factors_.data() + static_cast<std::size_t>(j) * (n / 2 + 1);
  for (int m = 1; m <= n / 2; ++m) spec[m] *= fac[m];
  // Real input: rebuild the upper half from the scaled lower half.
  for (int k = n / 2 + 1; k < n; ++k) spec[k] = std::conj(spec[n - k]);
  plan_.inverse(spec, ws.work_.data());
  for (int i = 0; i < n; ++i)
    if (mask == nullptr || mask[i] != 0) row[i] = spec[i].real();
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
  if (out.nx() != grid.nlon() || out.ny() != grid.nlat())
    out = Field2Dd(grid.nlon(), grid.nlat());
  laplacian_masked_rows(grid, f, mask, out, 0, grid.nlat());
}

void laplacian_masked_rows(const MercatorGrid& grid, const Field2Dd& f,
                           const Field2D<int>& mask, Field2Dd& out, int jlo,
                           int jhi) {
  const int nx = grid.nlon();
  const int ny = grid.nlat();
  FOAM_ASSERT(out.nx() == nx && out.ny() == ny && jlo >= 0 && jhi <= ny,
              "rows [" << jlo << "," << jhi << ")");
  for (int j = jlo; j < jhi; ++j) {
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
