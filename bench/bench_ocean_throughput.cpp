// §4.2 throughput "table" — the FOAM ocean's efficiency claims:
//   * "benchmarked the ocean code at 128 x 128 resolution on 64 SP2 nodes
//      running at over 105,000 times real time";
//   * "roughly a tenfold increase in the amount of simulated time
//      represented per unit of computation" vs other formulations.
//
// Measured here: simulated-time / wall-time of the full FOAM ocean at
// 128x128x16 for several rank counts (threads multiplexed over the host
// cores — per-rank work division is the architectural quantity; wall
// speedup needs real cores), and the FOAM-vs-conventional formulation
// ratio in both abstract work (grid-point updates per simulated day) and
// measured wall time.
//
// BENCH_ocean_throughput.json carries the serial wall-clock median and
// interquartile range over repeated runs (the regression-guarded row) and
// the per-phase cost (baroclinic / barotropic / tracer, s per simulated
// day) from one separate traced run. FOAM_BENCH_QUICK=1 runs only that
// serial section, at 1 simulated day, for CI smoke use.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "data/earth.hpp"
#include "foam/coupled.hpp"
#include "ocean/model.hpp"
#include "par/timers.hpp"
#include "telemetry/telemetry.hpp"

using namespace foam;
using ocean::OceanConfig;
using ocean::OceanModel;

namespace {

struct Result {
  double sim_days;
  double wall;
  double work;
};

Result run_serial(const OceanConfig& cfg, const numerics::MercatorGrid& grid,
                  const Field2Dd& bathy, double days) {
  OceanModel m(cfg, grid, bathy);
  m.init_climatology();
  Field2Dd taux(cfg.nx, cfg.ny), tauy(cfg.nx, cfg.ny, 0.0);
  for (int j = 0; j < cfg.ny; ++j)
    for (int i = 0; i < cfg.nx; ++i)
      taux(i, j) = ocean::analytic_zonal_stress(grid.lat(j));
  ocean::OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  m.set_forcing(wind);
  par::Stopwatch sw;
  m.run_days(days);
  return {days, sw.seconds(), m.work_points()};
}

/// Linear-interpolated quantile q of \p v.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Seconds spent in each ocean phase span over one traced serial run.
std::map<std::string, double> traced_phases(
    const OceanConfig& cfg, const numerics::MercatorGrid& grid,
    const Field2Dd& bathy, double days) {
  telemetry::TelemetryOptions opts;
  opts.level = telemetry::TraceLevel::kFull;
  opts.max_spans = std::size_t{1} << 20;
  telemetry::Telemetry tel(opts);
  telemetry::ScopedSession session(tel);
  run_serial(cfg, grid, bathy, days);
  const telemetry::RankTrace tr = tel.tracer().trace();
  std::map<std::string, double> out;
  for (const telemetry::SpanRec& s : tr.spans)
    out[tr.names[static_cast<std::size_t>(s.name_id)]] += s.t1 - s.t0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = std::getenv("FOAM_BENCH_QUICK") != nullptr;
  const double days = argc > 1 ? std::atof(argv[1]) : (quick ? 1.0 : 3.0);
  std::printf("=== Ocean throughput (paper section 4.2)%s ===\n",
              quick ? " [quick]" : "");
  numerics::MercatorGrid grid(128, 128, OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(grid);
  bench::BenchJson json("ocean_throughput");
  json.set_common("rank_layout", "serial");
  json.set_common("resolution", "128x128x16");
  json.set_common("days", days);

  // --- FOAM configuration, serial: repeated runs + one traced run --------
  const OceanConfig foam_cfg = OceanConfig::foam_default();
  const int repeats = 3;
  std::vector<double> walls;
  walls.reserve(repeats);
  Result serial{};
  for (int rep = 0; rep < repeats; ++rep) {
    serial = run_serial(foam_cfg, grid, bathy, days);
    walls.push_back(serial.wall);
  }
  const double wall_median = quantile(walls, 0.5);
  const double wall_iqr = quantile(walls, 0.75) - quantile(walls, 0.25);
  std::printf("\nFOAM ocean 128x128x16, %.1f simulated days, serial wall "
              "median %.2f s (IQR %.2f s, %d runs)\n",
              days, wall_median, wall_iqr, repeats);
  json.add("serial_wall_median_seconds", wall_median, "s",
           {{"repeats", repeats}});
  json.add("serial_iqr_seconds", wall_iqr, "s", {{"repeats", repeats}});
  json.add("serial_realtime_ratio", days * 86400.0 / wall_median,
           "sim/wall", {{"repeats", repeats}});

  const auto phases = traced_phases(foam_cfg, grid, bathy, days);
  std::printf("traced per-phase cost [s / simulated day]:");
  for (const char* name :
       {"ocean.baroclinic", "ocean.barotropic", "ocean.tracer"}) {
    const auto it = phases.find(name);
    const double per_day = (it == phases.end() ? 0.0 : it->second) / days;
    std::printf("  %s %.3f", name, per_day);
    json.add("phase_seconds_per_day", per_day, "s/day", {{"phase", name}});
  }
  std::printf("\n");
  if (quick) return 0;

  std::printf("%6s %12s %14s %16s\n", "ranks", "wall [s]", "speedup [x rt]",
              "work/rank/day");
  std::printf("%6d %12.2f %14.0f %16.3e\n", 1, wall_median,
              serial.sim_days * 86400.0 / wall_median,
              serial.work / serial.sim_days);
  for (int ranks : {2, 4}) {
    double wall = 0.0, work_per_rank = 0.0;
    par::run(ranks, [&](par::Comm& comm) {
      OceanModel m(foam_cfg, grid, bathy, &comm);
      m.init_climatology();
      Field2Dd taux(128, 128), tauy(128, 128, 0.0);
      for (int j = 0; j < 128; ++j)
        for (int i = 0; i < 128; ++i)
          taux(i, j) = ocean::analytic_zonal_stress(grid.lat(j));
      ocean::OceanForcing wind;
      wind.wind_x = &taux;
      wind.wind_y = &tauy;
      m.set_forcing(wind);
      par::Stopwatch sw;
      m.run_days(days);
      if (comm.rank() == 0) {
        wall = sw.seconds();
        work_per_rank = m.work_points() / days;
      }
    });
    std::printf("%6d %12.2f %14.0f %16.3e  (per-rank work 1/%d of serial)\n",
                ranks, wall, days * 86400.0 / wall, work_per_rank, ranks);
  }

  // --- formulation comparison: FOAM vs conventional explicit free surface
  std::printf("\nFormulation comparison (the ~10x claim):\n");
  OceanConfig conv = OceanConfig::conventional();
  const double conv_days = std::min(0.25, days);
  const Result baseline = run_serial(conv, grid, bathy, conv_days);
  const double work_ratio = (baseline.work / baseline.sim_days) /
                            (serial.work / serial.sim_days);
  const double wall_ratio = (baseline.wall / baseline.sim_days) /
                            (wall_median / serial.sim_days);
  std::printf("%-34s %14s %14s\n", "configuration", "work/day", "wall s/day");
  std::printf("%-34s %14.3e %14.2f\n",
              "FOAM (split+slowed+long tracers)",
              serial.work / serial.sim_days, wall_median / serial.sim_days);
  std::printf("%-34s %14.3e %14.2f\n",
              "conventional (dt = 45 s, unsplit)",
              baseline.work / baseline.sim_days,
              baseline.wall / baseline.sim_days);
  std::printf("conventional / FOAM: work %.1fx, wall %.1fx "
              "(paper: ~10x vs contemporary formulations)\n",
              work_ratio, wall_ratio);
  return 0;
}
