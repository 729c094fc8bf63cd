// Absolute bit pins for the ocean state.
//
// Every other ocean bitwise test is relative (team against serial, layout
// against serial, resume against an uninterrupted run): a kernel rewrite
// that moved the bits consistently everywhere would pass all of them. This
// suite pins the FNV-1a digest of every save_state record after 12 forced
// steps, for several configurations, so any change to the sequence of
// floating-point operations behind an output element shows up here.
//
// The digests assume this toolchain's libm (std::exp/sin/cos/pow in the
// initial state, the grid and the mixing coefficients), as the benchmark's
// foambench/reference_sst.json does. A new libm or compiler may legitimately
// move them; re-pin only after the relative suites and the benchmark's
// reference digests agree that nothing else moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/constants.hpp"
#include "base/history.hpp"
#include "data/earth.hpp"
#include "ocean/model.hpp"
#include "par/comm.hpp"
#include "par/decomp.hpp"

namespace foam::ocean {
namespace {

using Digests = std::map<std::string, std::uint64_t>;

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t n = 0; n < v.size() * sizeof(double); ++n) {
    h ^= p[n];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Forcing that drives every sweep: wind, a polar heat loss strong enough
/// to reach the freeze clamp and convection, freshwater and sea ice.
struct PinForcing {
  explicit PinForcing(const numerics::MercatorGrid& grid)
      : taux(grid.nlon(), grid.nlat(), 0.0),
        tauy(grid.nlon(), grid.nlat(), 0.02),
        heat(grid.nlon(), grid.nlat(), 0.0),
        fw(grid.nlon(), grid.nlat(), 1e-8),
        ice(grid.nlon(), grid.nlat(), 0.0) {
    for (int j = 0; j < grid.nlat(); ++j) {
      const double lat = grid.lat(j) / constants::deg2rad;
      for (int i = 0; i < grid.nlon(); ++i) {
        taux(i, j) = analytic_zonal_stress(grid.lat(j));
        heat(i, j) = std::abs(lat) > 55.0 ? -2.0e4 : 60.0;
        ice(i, j) = std::abs(lat) > 62.0 ? 0.5 : 0.0;
      }
    }
    f.wind_x = &taux;
    f.wind_y = &tauy;
    f.heat = &heat;
    f.freshwater = &fw;
    f.ice = &ice;
  }
  Field2Dd taux, tauy, heat, fw, ice;
  OceanForcing f;
};

constexpr int kSteps = 12;

std::vector<HistoryRecord> saved_records(const OceanModel& m,
                                         const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/ocean_pinned_" + tag +
                           ".foam";
  {
    HistoryWriter out(path);
    m.save_state(out, "ocean");
    out.close();
  }
  std::vector<HistoryRecord> recs = HistoryReader(path).records();
  std::remove(path.c_str());
  return recs;
}

/// Digest of every save_state record after kSteps forced serial steps on
/// the 70-degree grid.
Digests serial_digests(const OceanConfig& cfg, const std::string& tag) {
  const numerics::MercatorGrid grid(cfg.nx, cfg.ny,
                                    OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(grid);
  const PinForcing forcing(grid);
  OceanModel m(cfg, grid, bathy);
  m.init_climatology();
  m.set_forcing(forcing.f);
  for (int s = 0; s < kSteps; ++s) m.step();
  Digests d;
  for (const HistoryRecord& r : saved_records(m, tag))
    d[r.name] = fnv1a(r.data);
  return d;
}

/// The same run decomposed over a px * (nranks/px) rank grid. Each rank's
/// records are valid on its owned box only, so every field record is
/// reassembled from the owners' boxes before it is digested. Scalars are
/// per-rank (frazil_heat is a partial sum) and are left out.
Digests layout_digests(const OceanConfig& cfg, int nranks, int px) {
  const numerics::MercatorGrid grid(cfg.nx, cfg.ny,
                                    OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(grid);
  const PinForcing forcing(grid);
  std::vector<std::vector<HistoryRecord>> per_rank(nranks);
  par::run(nranks, [&](par::Comm& comm) {
    OceanModel m(cfg, grid, bathy, &comm, px);
    m.init_climatology();
    m.set_forcing(forcing.f);
    for (int s = 0; s < kSteps; ++s) m.step();
    per_rank[comm.rank()] = saved_records(
        m, "layout" + std::to_string(px) + "_" + std::to_string(comm.rank()));
  });
  const par::Decomp2D decomp(cfg.nx, cfg.ny, px, nranks / px);
  Digests d;
  for (std::size_t n = 0; n < per_rank[0].size(); ++n) {
    const HistoryRecord& r0 = per_rank[0][n];
    if (r0.dims.size() < 2) continue;
    std::vector<double> full(r0.data.size());
    const std::size_t nx = static_cast<std::size_t>(cfg.nx);
    const std::size_t plane = nx * static_cast<std::size_t>(cfg.ny);
    const std::size_t nz = r0.data.size() / plane;
    for (int rank = 0; rank < nranks; ++rank) {
      const HistoryRecord& r = per_rank[rank][n];
      EXPECT_EQ(r.name, r0.name);
      const par::Range xr = decomp.x_range_of_rank(rank);
      const par::Range yr = decomp.y_range_of_rank(rank);
      for (std::size_t k = 0; k < nz; ++k)
        for (int j = yr.lo; j < yr.hi; ++j)
          for (int i = xr.lo; i < xr.hi; ++i) {
            const std::size_t at = k * plane + j * nx + i;
            full[at] = r.data[at];
          }
    }
    d[r0.name] = fnv1a(full);
  }
  return d;
}

/// Every pinned record must be present with its digest and nothing else
/// may be saved (with \p fields_only, scalars are neither pinned nor
/// required). On a mismatch the whole table is printed for inspection.
void expect_pinned(const Digests& got, const Digests& pinned,
                   const std::string& what, bool fields_only = false) {
  const std::vector<std::string> scalars = {"ocean.steps",
                                            "ocean.have_mom_prev",
                                            "ocean.frazil_heat"};
  bool ok = true;
  for (const auto& [name, h] : pinned) {
    if (fields_only &&
        std::find(scalars.begin(), scalars.end(), name) != scalars.end())
      continue;
    const auto it = got.find(name);
    if (it == got.end()) {
      ADD_FAILURE() << what << ": record " << name << " missing";
      ok = false;
    } else if (it->second != h) {
      ADD_FAILURE() << what << ": record " << name << " moved";
      ok = false;
    }
  }
  for (const auto& [name, h] : got)
    if (pinned.count(name) == 0) {
      ADD_FAILURE() << what << ": unpinned record " << name;
      ok = false;
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

// Recorded at the kernels that predate the row-pointer ocean sweeps.
const Digests kTesting36 = {
  {"ocean.eta", 0xfcdd1d588f10eefaULL},
  {"ocean.frazil", 0xdf88053463ed6d3eULL},
  {"ocean.frazil_heat", 0x02dc6a61f0dd3c77ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0xa3786d502d7b911aULL},
  {"ocean.nu", 0x0f15c9907aa51990ULL},
  {"ocean.s", 0x06bbce6a78c226cdULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0xea79a71989d76becULL},
  {"ocean.ub", 0x7099efd928b3445eULL},
  {"ocean.up", 0xbc4c00983bf6615eULL},
  {"ocean.up_prev", 0xaeb3d8a774491689ULL},
  {"ocean.vb", 0xc41ad408cc02d3f6ULL},
  {"ocean.vp", 0x14ffcec7785f3a63ULL},
  {"ocean.vp_prev", 0x5f589f5a436422abULL},
};

const Digests kTesting37 = {
  {"ocean.eta", 0x5902ac62f1cc88abULL},
  {"ocean.frazil", 0x8065e82706e4d984ULL},
  {"ocean.frazil_heat", 0x76a7fe2707882a09ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0xf0855f6c94f9487bULL},
  {"ocean.nu", 0xb597316d345062c1ULL},
  {"ocean.s", 0xd1c403a50c80fb5fULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0x45abf8213ba59848ULL},
  {"ocean.ub", 0xe38947374f6b66d8ULL},
  {"ocean.up", 0x512cc8e6f01f1d0fULL},
  {"ocean.up_prev", 0x3f85feaef8f5fc8fULL},
  {"ocean.vb", 0x49def88a69fad603ULL},
  {"ocean.vp", 0x8be1a61615ff2b71ULL},
  {"ocean.vp_prev", 0x3795ae8d03c061edULL},
};

const Digests kConventional = {
  {"ocean.eta", 0xaad48d8bed687ddbULL},
  {"ocean.frazil", 0x1065c3b949fc0d25ULL},
  {"ocean.frazil_heat", 0xa8c7f832281a39c5ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0x291fff8ebe84b423ULL},
  {"ocean.nu", 0x9a86b2708f42b7cfULL},
  {"ocean.s", 0x514b7bc5876c606eULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0xe31c23b4b856bc15ULL},
  {"ocean.ub", 0x705abd277584b692ULL},
  {"ocean.up", 0x78662010be3cecf5ULL},
  {"ocean.up_prev", 0xf9fd3e304ca70313ULL},
  {"ocean.vb", 0x05a12cdca42114ccULL},
  {"ocean.vp", 0x1e9ad88451e745a2ULL},
  {"ocean.vp_prev", 0x02df3940dd8a2aa9ULL},
};

const Digests kNoHorizAdv = {
  {"ocean.eta", 0x4fb56fa9afa15604ULL},
  {"ocean.frazil", 0xbed555c3d0deb361ULL},
  {"ocean.frazil_heat", 0xd63c7e282089d3d3ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0xeac4079afd002e86ULL},
  {"ocean.nu", 0x1a75c5ab07ab52acULL},
  {"ocean.s", 0x9c705780d0d0a9c9ULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0x79902680c12f0bb5ULL},
  {"ocean.ub", 0x9eaff2a72cf85d64ULL},
  {"ocean.up", 0x3b27d8f73419ee54ULL},
  {"ocean.up_prev", 0x21275a9878510b65ULL},
  {"ocean.vb", 0xa94103b44783b29fULL},
  {"ocean.vp", 0xa2493966f3f14df3ULL},
  {"ocean.vp_prev", 0x984f97802e6f6084ULL},
};

const Digests kNoVertAdv = {
  {"ocean.eta", 0x335d40c26063e06dULL},
  {"ocean.frazil", 0x42c8abedfedb40a1ULL},
  {"ocean.frazil_heat", 0xdfe1a5127793c078ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0x4b98414cd8519db5ULL},
  {"ocean.nu", 0xf60f4735266c37b0ULL},
  {"ocean.s", 0x4c938257de104fb5ULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0x77b620ade1a9f742ULL},
  {"ocean.ub", 0xf217715e47fdc34eULL},
  {"ocean.up", 0x45986a2ee2cecb9aULL},
  {"ocean.up_prev", 0x58e288bb7aefbbcaULL},
  {"ocean.vb", 0x25f6aaea5b0dfba2ULL},
  {"ocean.vp", 0xd2ea45f7b4befd36ULL},
  {"ocean.vp_prev", 0x44a8a290ce3bea44ULL},
};

const Digests kNoBaroclinicPg = {
  {"ocean.eta", 0xcdbf1f094903f348ULL},
  {"ocean.frazil", 0x9d6e2a6a553c561cULL},
  {"ocean.frazil_heat", 0x7a0017126cf93653ULL},
  {"ocean.have_mom_prev", 0xaab1693229ba1db8ULL},
  {"ocean.kappa", 0x99def8059f968fe6ULL},
  {"ocean.nu", 0xaf6016798d35a4e7ULL},
  {"ocean.s", 0xeb9e84b648f214baULL},
  {"ocean.steps", 0xa840483227a7281dULL},
  {"ocean.t", 0xb9e3047fa3f07b7aULL},
  {"ocean.ub", 0x79da11ec8187bb29ULL},
  {"ocean.up", 0xa6fc8ff321f20f91ULL},
  {"ocean.up_prev", 0x8f3fb1e95c018ec4ULL},
  {"ocean.vb", 0xf2149b1cbe801febULL},
  {"ocean.vp", 0xa6a9d254945f404fULL},
  {"ocean.vp_prev", 0x68fc3d8f2c7d4a80ULL},
};

TEST(OceanModel, PinnedStateDigests) {
  const OceanConfig base = OceanConfig::testing(36, 36, 6);
  expect_pinned(serial_digests(base, "t36"), kTesting36, "testing(36,36,6)");
  // Odd nx: the peeled wrap columns and the vector tails of every sweep.
  expect_pinned(serial_digests(OceanConfig::testing(37, 36, 6), "t37"),
                kTesting37, "testing(37,36,6)");
  // The unsplit, unslowed, every-step-tracer path on the same small grid.
  OceanConfig conv = OceanConfig::conventional();
  conv.nx = base.nx;
  conv.ny = base.ny;
  conv.nz = base.nz;
  expect_pinned(serial_digests(conv, "conv"), kConventional,
                "conventional()");
  // The AblationSwitchesRun switches, one off at a time.
  OceanConfig c = base;
  c.enable_horiz_adv = false;
  expect_pinned(serial_digests(c, "nohadv"), kNoHorizAdv,
                "enable_horiz_adv off");
  c = base;
  c.enable_vert_adv = false;
  expect_pinned(serial_digests(c, "novadv"), kNoVertAdv,
                "enable_vert_adv off");
  c = base;
  c.enable_baroclinic_pg = false;
  expect_pinned(serial_digests(c, "nopg"), kNoBaroclinicPg,
                "enable_baroclinic_pg off");
  // Rank layouts reproduce the serial digests field by field.
  expect_pinned(layout_digests(base, 4, 2), kTesting36, "2x2 layout",
                /*fields_only=*/true);
  expect_pinned(layout_digests(base, 3, 3), kTesting36, "3x1 layout",
                /*fields_only=*/true);
}

}  // namespace
}  // namespace foam::ocean
