// The atmosphere's grid-point phase (radiation, advection, column physics)
// split by latitude row over a par::Team must compute exactly the serial
// bits, at every team size and on full and partial latitude sets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atm/model.hpp"
#include "par/comm.hpp"
#include "par/team.hpp"

namespace foam::atm {
namespace {

/// Land, sea ice and open ocean, so every branch of the physics runs.
SurfaceFields mixed_surface(const numerics::GaussianGrid& grid) {
  SurfaceFields sfc(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) * 57.29577951308232;
    for (int i = 0; i < grid.nlon(); ++i) {
      const bool land = (i / 4 + j / 3) % 3 == 0;
      const bool ice = !land && std::abs(lat) > 60.0;
      sfc.tsurf(i, j) = 270.0 + 32.0 * std::exp(-lat * lat / 900.0);
      sfc.albedo(i, j) = ice ? 0.6 : (land ? 0.25 : 0.07);
      sfc.roughness(i, j) = land ? 0.05 : 1e-4;
      sfc.wetness(i, j) = land ? 0.3 : 1.0;
      sfc.is_ocean(i, j) = land ? 0 : 1;
      sfc.is_ice(i, j) = ice ? 1 : 0;
    }
  }
  return sfc;
}

using Snapshot = std::vector<std::pair<std::string, std::vector<double>>>;

/// Every field the grid-point phase writes.
Snapshot snapshot(const AtmosphereModel& m) {
  Snapshot out;
  auto put = [&](const std::string& name, const auto& f) {
    out.emplace_back(name, std::vector<double>(f.data(), f.data() + f.size()));
  };
  put("t3", m.temperature());
  put("q3", m.moisture());
  put("rad_heat", m.radiative_heating());
  for (const auto* ff : {&m.accumulated_fluxes(), &m.last_fluxes()}) {
    const std::string p = ff == &m.last_fluxes() ? "last." : "acc.";
    put(p + "sw_sfc", ff->sw_sfc);
    put(p + "lw_down", ff->lw_down);
    put(p + "sensible", ff->sensible);
    put(p + "latent", ff->latent);
    put(p + "evaporation", ff->evaporation);
    put(p + "rain", ff->rain);
    put(p + "snow", ff->snow);
    put(p + "taux", ff->taux);
    put(p + "tauy", ff->tauy);
  }
  return out;
}

/// Run 26 steps (radiation at steps 0 and 24) with a team of \p members
/// (0: no team at all).
Snapshot run(const AtmConfig& cfg, par::Comm* comm, int members) {
  std::unique_ptr<par::Team> team;
  if (members > 0) team = std::make_unique<par::Team>(members);
  AtmosphereModel m(cfg, comm);
  m.set_team(team.get());
  m.init_default();
  m.set_surface(mixed_surface(m.grid()));
  ModelTime now;
  for (int s = 0; s < 26; ++s) {
    m.step(now);
    now.advance(1800);
  }
  EXPECT_EQ(m.accumulated_steps(), 26);
  return snapshot(m);
}

void expect_same_bits(const Snapshot& got, const Snapshot& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t n = 0; n < want.size(); ++n) {
    ASSERT_EQ(got[n].second.size(), want[n].second.size());
    EXPECT_EQ(std::memcmp(got[n].second.data(), want[n].second.data(),
                          want[n].second.size() * sizeof(double)),
              0)
        << what << ": " << want[n].first;
  }
}

TEST(Atm, TeamGridPointPhaseEqualsSerialBitwise) {
  const AtmConfig cfg = AtmConfig::testing();  // 20 latitude rows
  const Snapshot serial = run(cfg, nullptr, 0);
  for (int members = 1; members <= par::kMaxTeamMembers; ++members)
    expect_same_bits(run(cfg, nullptr, members), serial,
                     "full rows, " + std::to_string(members) + " members");

  // Partial latitude sets: 3 ranks own 7, 7 and 6 rows, so the member
  // chunks are uneven and some members get a single row.
  constexpr int kRanks = 3;
  std::vector<Snapshot> alone(kRanks);
  par::run(kRanks, [&](par::Comm& comm) {
    alone[comm.rank()] = run(cfg, &comm, 0);
  });
  for (int members = 1; members <= par::kMaxTeamMembers; ++members) {
    std::vector<Snapshot> teamed(kRanks);
    par::run(kRanks, [&](par::Comm& comm) {
      teamed[comm.rank()] = run(cfg, &comm, members);
    });
    for (int r = 0; r < kRanks; ++r)
      expect_same_bits(teamed[r], alone[r],
                       "rank " + std::to_string(r) + " of " +
                           std::to_string(kRanks) + ", " +
                           std::to_string(members) + " members");
  }
}

}  // namespace
}  // namespace foam::atm
