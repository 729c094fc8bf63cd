#pragma once

/// \file tridiag.hpp
/// Thomas algorithm for tridiagonal systems.
///
/// Used by the implicit vertical diffusion solves in both the atmosphere
/// (PBL, vertical mixing) and ocean (Pacanowski-Philander mixing): columns
/// are independent, so each is a small tridiagonal solve.

#include <vector>

#include "base/error.hpp"

namespace foam::numerics {

/// Solve the n x n system with sub-diagonal a (a[0] unused), diagonal b,
/// super-diagonal c (c[n-1] unused) and right-hand side d; the solution is
/// written back into d. \p cp is caller-owned scratch for the modified
/// super-diagonal (grown to n if shorter, so a caller solving many columns
/// allocates once). The system must be diagonally dominant (as all
/// implicit-diffusion matrices are); this is asserted in debug builds.
inline void solve_tridiag(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& c,
                          std::vector<double>& d, std::vector<double>& cp) {
  const std::size_t n = b.size();
  FOAM_REQUIRE(n > 0 && a.size() == n && c.size() == n && d.size() == n,
               "tridiag sizes");
  if (cp.size() < n) cp.resize(n);
  // Forward sweep.
  FOAM_ASSERT(b[0] != 0.0, "singular tridiagonal system");
  cp[0] = c[0] / b[0];
  d[0] = d[0] / b[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double denom = b[i] - a[i] * cp[i - 1];
    FOAM_ASSERT(denom != 0.0, "singular tridiagonal system at row " << i);
    cp[i] = c[i] / denom;
    d[i] = (d[i] - a[i] * d[i - 1]) / denom;
  }
  // Back substitution.
  for (std::size_t i = n - 1; i-- > 0;) d[i] -= cp[i] * d[i + 1];
}

}  // namespace foam::numerics
