#pragma once

/// \file config.hpp
/// Configuration of the FOAM atmosphere (PCCM2-derived, R15).

namespace foam::atm {

/// Physics generation switch: the paper began from CCM2 physics and found
/// the tropical Pacific "vastly improved" after adopting the CCM3 moist
/// physics, surface fluxes and radiation refinements (paper §6).
enum class PhysicsVersion { kCcm2, kCcm3 };

struct AtmConfig {
  /// R15 rhomboidal truncation on a 48 x 40 Gaussian grid (paper §4.1).
  int nlon = 48;
  int nlat = 40;
  int mmax = 15;
  /// Column-physics levels (paper: 18 hybrid levels).
  int nlev = 18;
  /// Spectral dynamics levels (upper, middle, lower troposphere); the
  /// reduced dynamical core advects with these barotropic-layer winds while
  /// the 18-level columns carry the thermodynamics — see DESIGN.md for the
  /// substitution note.
  int ndyn = 3;

  /// Model time step [s]: 30 minutes (paper §4.1).
  double dt = 1800.0;
  /// Radiation recomputed twice per simulated day (paper §5 / Fig. 2).
  double radiation_period = 43200.0;

  PhysicsVersion physics = PhysicsVersion::kCcm3;

  /// del^4 spectral dissipation e-folding time on the smallest scale [s]
  /// ("recommended values for the diffusion coefficient" for R15 CCM2).
  double tau_del4 = 8.0 * 3600.0;
  /// Robert-Asselin filter for the leapfrog spectral dynamics.
  double asselin = 0.05;

  /// Thermal relaxation time of the radiative-convective column [s].
  double tau_newtonian = 20.0 * 86400.0;

  /// CO2 scaling relative to the modern value (sensitivity experiments).
  double co2_factor = 1.0;

  /// Timing-fidelity mode: perform the spectral-transform work of the full
  /// 18-level PCCM2 dynamical core (one synthesis + analysis per missing
  /// level per step) so that benches reproduce the paper's cost structure
  /// (atmosphere ~16x the ocean, transform-dominated). Results are
  /// unaffected; only work/time change.
  bool emulate_full_core_cost = false;
  /// Spectral transforms performed per emulated level per step (a full
  /// primitive-equation core moves ~8-10 fields through the transform each
  /// step). Tune so that the atmosphere:ocean cost ratio matches the
  /// paper's ~16:1 on equal ranks.
  int emulate_transforms_per_level = 8;

  static AtmConfig r15_default() { return AtmConfig{}; }

  /// Reduced-size configuration for fast tests (R7 on 24 x 20).
  static AtmConfig testing() {
    AtmConfig c;
    c.nlon = 24;
    c.nlat = 20;
    c.mmax = 7;
    c.nlev = 10;
    return c;
  }
};

}  // namespace foam::atm
