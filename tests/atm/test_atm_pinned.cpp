// Absolute bit pins for the atmosphere state.
//
// The atmosphere's other bitwise tests are relative (team against serial):
// a physics rewrite that moved the bits the same way on every team size
// would pass them. This suite pins the FNV-1a digests of temperature,
// moisture, the cached radiative heating and every accumulated flux field
// after 12 steps (the first one a radiation step), for CCM3 and CCM2 at
// R15. The CCM3 run split into 2 and 3 latitude blocks must reproduce the
// serial digests: the distributed transform sums every coefficient over
// all latitudes on one rank, in the serial order.
//
// The digests assume this toolchain's libm (std::exp/pow/log/cos in the
// initial state, the grid and the column physics), as the benchmark's
// foambench/reference_sst.json does. A new libm or compiler may legitimately
// move them; re-pin only after the relative suites and the benchmark's
// reference digests agree that nothing else moved.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "atm/model.hpp"
#include "par/comm.hpp"

namespace foam::atm {
namespace {

using Digests = std::map<std::string, std::uint64_t>;

std::uint64_t fnv1a(const double* v, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v);
  for (std::size_t b = 0; b < n * sizeof(double); ++b) {
    h ^= p[b];
    h *= 1099511628211ULL;
  }
  return h;
}

/// A surface that reaches every branch of the column physics: warm and
/// cold ocean, sea ice, and land of varying wetness and roughness.
SurfaceFields pin_surface(const numerics::GaussianGrid& grid) {
  SurfaceFields sfc(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) * 57.29577951308232;
    for (int i = 0; i < grid.nlon(); ++i) {
      const bool land = (i / 6 + j / 5) % 3 == 0;
      const bool ice = !land && std::abs(lat) > 62.0;
      sfc.tsurf(i, j) = 271.0 + 31.0 * std::exp(-lat * lat / 900.0) +
                        (land ? 4.0 * std::sin(0.3 * i) : 0.0);
      sfc.albedo(i, j) = ice ? 0.6 : (land ? 0.25 : 0.07);
      sfc.roughness(i, j) = land ? 0.05 + 0.01 * (i % 4) : 1e-4;
      sfc.wetness(i, j) = land ? 0.2 + 0.1 * (j % 5) : 1.0;
      sfc.is_ocean(i, j) = land ? 0 : 1;
      sfc.is_ice(i, j) = ice ? 1 : 0;
    }
  }
  return sfc;
}

constexpr int kSteps = 12;

using Fields = std::map<std::string, std::vector<double>>;

/// Every pinned grid-point field of \p m: t3, q3, rad_heat and the nine
/// accumulated fluxes, by name.
Fields pinned_fields(const AtmosphereModel& m) {
  Fields out;
  auto put = [&](const std::string& name, const auto& f) {
    out[name].assign(f.data(), f.data() + f.size());
  };
  put("t3", m.temperature());
  put("q3", m.moisture());
  put("rad_heat", m.radiative_heating());
  const FluxFields& a = m.accumulated_fluxes();
  put("acc.sw_sfc", a.sw_sfc);
  put("acc.lw_down", a.lw_down);
  put("acc.sensible", a.sensible);
  put("acc.latent", a.latent);
  put("acc.evaporation", a.evaporation);
  put("acc.rain", a.rain);
  put("acc.snow", a.snow);
  put("acc.taux", a.taux);
  put("acc.tauy", a.tauy);
  return out;
}

void run_steps(AtmosphereModel& m) {
  m.init_default();
  m.set_surface(pin_surface(m.grid()));
  ModelTime now;
  for (int s = 0; s < kSteps; ++s) {
    m.step(now);
    now.advance(1800);
  }
}

Digests digest_all(const Fields& f) {
  Digests d;
  for (const auto& [name, v] : f) d[name] = fnv1a(v.data(), v.size());
  return d;
}

Digests serial_digests(const AtmConfig& cfg) {
  AtmosphereModel m(cfg);
  run_steps(m);
  return digest_all(pinned_fields(m));
}

/// The same run on \p nranks latitude blocks. A rank's fields are valid on
/// its owned rows only, so each field is reassembled from the owners' rows
/// before it is digested.
Digests split_digests(const AtmConfig& cfg, int nranks) {
  std::vector<Fields> per_rank(nranks);
  std::vector<par::Range> rows(nranks);
  par::run(nranks, [&](par::Comm& comm) {
    AtmosphereModel m(cfg, &comm);
    run_steps(m);
    per_rank[comm.rank()] = pinned_fields(m);
    rows[comm.rank()] = m.lats();
  });
  const std::size_t nlon = static_cast<std::size_t>(cfg.nlon);
  const std::size_t plane = nlon * static_cast<std::size_t>(cfg.nlat);
  Fields full = per_rank[0];
  for (auto& [name, v] : full)
    for (int r = 1; r < nranks; ++r) {
      const std::vector<double>& mine = per_rank[r].at(name);
      for (std::size_t k = 0; k < v.size() / plane; ++k)
        for (int j = rows[r].lo; j < rows[r].hi; ++j)
          for (std::size_t i = 0; i < nlon; ++i) {
            const std::size_t at = k * plane + j * nlon + i;
            v[at] = mine[at];
          }
    }
  return digest_all(full);
}

void expect_pinned(const Digests& got, const Digests& pinned,
                   const std::string& what) {
  bool ok = got.size() == pinned.size();
  for (const auto& [name, h] : pinned) {
    const auto it = got.find(name);
    if (it == got.end()) {
      ADD_FAILURE() << what << ": field " << name << " missing";
      ok = false;
    } else if (it->second != h) {
      ADD_FAILURE() << what << ": field " << name << " moved";
      ok = false;
    }
  }
  if (!ok) {
    std::string table;
    char line[128];
    for (const auto& [name, h] : got) {
      std::snprintf(line, sizeof line, "  {\"%s\", 0x%016" PRIx64 "ULL},\n",
                    name.c_str(), h);
      table += line;
    }
    ADD_FAILURE() << what << " digests:\n" << table;
  }
}

// Recorded at the column physics that recomputed sigma levels, pow and log
// per column.
const Digests kCcm3 = {
  {"acc.evaporation", 0xd3eceb176e4acdd9ULL},
  {"acc.latent", 0xcb7a55b86059b389ULL},
  {"acc.lw_down", 0x7bc0746c00823525ULL},
  {"acc.rain", 0x930ffef1b4d62a83ULL},
  {"acc.sensible", 0xb6ce7b95126b733aULL},
  {"acc.snow", 0x9b45ecf76e76c1a6ULL},
  {"acc.sw_sfc", 0x306ba7cfc1893ab9ULL},
  {"acc.taux", 0x5ff05c2dc054919cULL},
  {"acc.tauy", 0x19539096b6741fdfULL},
  {"q3", 0xa3ce6ff1415f1ebbULL},
  {"rad_heat", 0xc98185de93a9b145ULL},
  {"t3", 0xddf07bd6f7813d3dULL},
};

const Digests kCcm2 = {
  {"acc.evaporation", 0xa56b43495f6e6ac1ULL},
  {"acc.latent", 0xec6e04207cf16815ULL},
  {"acc.lw_down", 0x7bc0746c00823525ULL},
  {"acc.rain", 0xdd7a69bf34b8b053ULL},
  {"acc.sensible", 0xdce76875393244fdULL},
  {"acc.snow", 0x2b2b479d8590ca00ULL},
  {"acc.sw_sfc", 0x306ba7cfc1893ab9ULL},
  {"acc.taux", 0xa0d37edf05e8876aULL},
  {"acc.tauy", 0x28ebd73474d31854ULL},
  {"q3", 0x8dca93712b473439ULL},
  {"rad_heat", 0xc98185de93a9b145ULL},
  {"t3", 0x3e07797d7188f272ULL},
};

TEST(AtmosphereModel, PinnedStateDigests) {
  AtmConfig cfg = AtmConfig::r15_default();
  ASSERT_EQ(cfg.nlon, 48);
  ASSERT_EQ(cfg.nlat, 40);
  ASSERT_EQ(cfg.nlev, 18);
  // Step 0 is a radiation step; the other eleven apply its cached heating.
  expect_pinned(serial_digests(cfg), kCcm3, "CCM3 R15");
  AtmConfig ccm2 = cfg;
  ccm2.physics = PhysicsVersion::kCcm2;
  expect_pinned(serial_digests(ccm2), kCcm2, "CCM2 R15");
  expect_pinned(split_digests(cfg, 2), kCcm3, "CCM3 R15, 2 latitude blocks");
  expect_pinned(split_digests(cfg, 3), kCcm3, "CCM3 R15, 3 latitude blocks");
}

}  // namespace
}  // namespace foam::atm
