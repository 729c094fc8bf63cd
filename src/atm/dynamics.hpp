#pragma once

/// \file dynamics.hpp
/// Spectral-transform dynamical core of the FOAM atmosphere.
///
/// PCCM2's defining computational structure is the spectral transform:
/// FFTs along latitude rows, Legendre transforms across latitudes, and the
/// inter-processor redistribution between them (paper §4.1). This core
/// reproduces that structure with a multi-level barotropic vorticity
/// system at rhomboidal R15:
///
///   d(zeta_l)/dt = -div[(u,v)(zeta_l + f)] - del^4 damping
///                  + relaxation toward a climatological jet
///                  + baroclinic stirring at synoptic wavenumbers,
///
/// stepped by filtered leapfrog in spectral space. The jet climatology of
/// the lowest dynamical level is continually re-derived from the
/// atmosphere's zonal-mean meridional temperature gradient, closing the
/// SST -> wind feedback loop the coupled variability (Fig. 4) rides on.
/// See DESIGN.md for the substitution note relative to the full
/// primitive-equation CCM2 core.

#include <string>
#include <vector>

#include "atm/config.hpp"
#include "base/field.hpp"
#include "base/history.hpp"
#include "numerics/spectral.hpp"

namespace foam::atm {

class SpectralDynamics {
 public:
  /// Runs on \p pst's latitude rows (every row when serial) and its team.
  /// The transform is owned by the caller and must outlive the dynamics.
  SpectralDynamics(const AtmConfig& cfg,
                   const numerics::ParSpectralTransform& pst);

  /// Initialize each level's vorticity to its climatological jet plus a
  /// small deterministic perturbation seeding the eddies.
  void init(unsigned seed = 7u);

  /// One leapfrog step; collective over the transform's communicator.
  void step();

  /// Winds of dynamical level l on the Gaussian grid (filled rows: owned
  /// latitudes only). U and V are true winds [m/s] (the cos(lat) image is
  /// divided out).
  const Field2Dd& u(int l) const { return u_[check(l)]; }
  const Field2Dd& v(int l) const { return v_[check(l)]; }

  /// Spectral vorticity of level l (for tests/diagnostics).
  const numerics::SpectralField& zeta(int l) const { return zeta_[check(l)]; }

  /// Update the lowest-level jet target from the zonal-mean meridional
  /// temperature gradient (thermal-wind closure of the reduced core).
  void set_thermal_jet(const std::vector<double>& u_target_per_lat);

  /// Kinetic-energy-like diagnostic: total spectral power of the vorticity.
  double total_enstrophy() const;

  int nlevels() const { return static_cast<int>(zeta_.size()); }

  /// Checkpoint support: the spectral states and the stirring RNG state
  /// (required for bitwise-reproducible restarts).
  void save_state(HistoryWriter& out, const std::string& prefix) const;
  void load_state(const HistoryReader& in, const std::string& prefix);

 private:
  int check(int l) const {
    FOAM_REQUIRE(l >= 0 && l < nlevels(), "dyn level " << l);
    return l;
  }
  numerics::SpectralField jet_climatology(int l) const;
  void synthesize_winds();

  const AtmConfig& cfg_;
  const numerics::ParSpectralTransform& pst_;
  const numerics::SpectralTransform& st_;

  std::vector<numerics::SpectralField> zeta_;
  std::vector<numerics::SpectralField> zeta_prev_;
  std::vector<numerics::SpectralField> jet_;  // relaxation targets
  std::vector<Field2Dd> u_, v_;
  numerics::SpectralField planetary_;  // spectral f (m=0, n=1)
  bool have_prev_ = false;
  unsigned noise_state_ = 1u;
  std::vector<double> thermal_jet_;  // per-latitude u target, lowest level
};

}  // namespace foam::atm
