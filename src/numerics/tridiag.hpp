#pragma once

/// \file tridiag.hpp
/// Thomas algorithm for tridiagonal systems.
///
/// Used by the ocean's implicit vertical mixing (Pacanowski-Philander
/// viscosity and diffusivity): columns are independent, so each is a small
/// tridiagonal solve. The velocity pair and the tracer pair each share one
/// matrix per column, so the production path factors it once
/// (tridiag_factor) and solves both right-hand sides against the same
/// pivots (tridiag_solve2). solve_tridiag is the one-right-hand-side form
/// over the same factorization.

#include <vector>

#include "base/error.hpp"

namespace foam::numerics {

/// Forward sweep over the n x n matrix alone: sub-diagonal a (a[0]
/// unused), diagonal b, super-diagonal c (c[n-1] unused). \p cp receives
/// the modified super-diagonal and \p den the pivots (den[0] = b[0]). The
/// system must be diagonally dominant (as all implicit-diffusion matrices
/// are); a zero pivot is asserted in debug builds.
inline void tridiag_factor(const double* a, const double* b, const double* c,
                           int n, double* cp, double* den) {
  FOAM_ASSERT(b[0] != 0.0, "singular tridiagonal system");
  den[0] = b[0];
  cp[0] = c[0] / b[0];
  for (int i = 1; i < n; ++i) {
    den[i] = b[i] - a[i] * cp[i - 1];
    FOAM_ASSERT(den[i] != 0.0, "singular tridiagonal system at row " << i);
    cp[i] = c[i] / den[i];
  }
}

/// Solve two right-hand sides against one tridiag_factor()ed matrix. They
/// are interleaved, x[2k] and x[2k+1] being row k of each, and each is
/// overwritten with its solution by exactly solve_tridiag's operations, so
/// the pair can share one vector division per row.
inline void tridiag_solve2(const double* a, const double* cp,
                           const double* den, int n, double* x) {
  x[0] = x[0] / den[0];
  x[1] = x[1] / den[0];
  for (int i = 1; i < n; ++i) {
    x[2 * i] = (x[2 * i] - a[i] * x[2 * i - 2]) / den[i];
    x[2 * i + 1] = (x[2 * i + 1] - a[i] * x[2 * i - 1]) / den[i];
  }
  for (int i = n - 1; i-- > 0;) {
    x[2 * i] -= cp[i] * x[2 * i + 2];
    x[2 * i + 1] -= cp[i] * x[2 * i + 3];
  }
}

/// Solve the n x n system (a, b, c) of tridiag_factor() with right-hand
/// side d; the solution is written back into d. \p cp is caller-owned
/// scratch for the modified super-diagonal and the pivots (grown to 2n if
/// shorter, so a caller solving many columns allocates once).
inline void solve_tridiag(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& c,
                          std::vector<double>& d, std::vector<double>& cp) {
  const std::size_t n = b.size();
  FOAM_REQUIRE(n > 0 && a.size() == n && c.size() == n && d.size() == n,
               "tridiag sizes");
  if (cp.size() < 2 * n) cp.resize(2 * n);
  const int ni = static_cast<int>(n);
  double* den = cp.data() + n;
  tridiag_factor(a.data(), b.data(), c.data(), ni, cp.data(), den);
  // Forward elimination against the pivots, then back substitution.
  d[0] = d[0] / den[0];
  for (std::size_t i = 1; i < n; ++i)
    d[i] = (d[i] - a[i] * d[i - 1]) / den[i];
  for (std::size_t i = n - 1; i-- > 0;) d[i] -= cp[i] * d[i + 1];
}

}  // namespace foam::numerics
