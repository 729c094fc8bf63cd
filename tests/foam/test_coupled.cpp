#include "foam/coupled.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <string>
#include <vector>

#include "foam/checkpoint.hpp"
#include "telemetry/chrome_trace.hpp"

namespace foam {
namespace {

FoamConfig cfg_for_helpers() { return FoamConfig::testing(); }

TEST(CoupledFoam, TwoDaysStableAndPhysical) {
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  model.run_days(2.0);
  EXPECT_FALSE(has_non_finite(model.ocean_model().temperature()));
  EXPECT_FALSE(has_non_finite(model.atmosphere().temperature()));
  const auto d = model.ocean_model().diagnostics();
  EXPECT_GT(d.mean_sst, 0.0);
  EXPECT_LT(d.mean_sst, 25.0);
  const double tb = model.atmosphere().mean_t_sfc_level();
  EXPECT_GT(tb, 250.0);
  EXPECT_LT(tb, 310.0);
  EXPECT_EQ(model.now().seconds(), 2 * 86400);
}

TEST(CoupledFoam, ExchangeScheduleMatchesPaper) {
  // 48 atmosphere steps and 4 ocean calls per day (paper §5 / Fig. 2).
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  const auto steps0 = model.ocean_model().step_count();
  model.run_days(1.0);
  const auto osteps = model.ocean_model().step_count() - steps0;
  const auto expected = static_cast<std::int64_t>(
      4 * (21600.0 / cfg.ocean.dt_mom));
  EXPECT_EQ(osteps, expected);
}

TEST(CoupledFoam, OceanAccelerationMultipliesOceanTime) {
  FoamConfig cfg = FoamConfig::testing();
  cfg.ocean_accel = 3.0;
  CoupledFoam model(cfg);
  model.run_days(1.0);
  EXPECT_NEAR(model.ocean_model().time_seconds(), 3.0 * 86400.0,
              cfg.ocean.dt_mom);
}

TEST(CoupledFoam, SstRespondsToCoupling) {
  // With coupling active the tropical-polar SST contrast is maintained by
  // the atmosphere's fluxes.
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  model.run_days(3.0);
  const Field2Dd sst = model.sst();
  const auto& grid = model.ocean_grid();
  double trop = 0.0, polar = 0.0;
  int nt = 0, np = 0;
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) * 57.2958;
    for (int i = 0; i < grid.nlon(); ++i) {
      if (model.ocean_mask()(i, j) == 0) continue;
      if (std::abs(lat) < 15.0) {
        trop += sst(i, j);
        ++nt;
      } else if (std::abs(lat) > 55.0) {
        polar += sst(i, j);
        ++np;
      }
    }
  }
  ASSERT_GT(nt, 0);
  ASSERT_GT(np, 0);
  EXPECT_GT(trop / nt, polar / np + 8.0)
      << "tropics must stay much warmer than the polar ocean";
}

TEST(CoupledFoam, WorkCounterAdvances) {
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  const double w0 = model.work_points();
  model.run_days(0.5);
  EXPECT_GT(model.work_points(), w0);
}

TEST(ParallelCoupled, RunsAndProducesTimelines) {
  FoamConfig cfg = FoamConfig::testing();
  par::run(3, [&](par::Comm& world) {  // 2 atm + 1 ocean
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(2, 1);
    const auto res = run_coupled_parallel(world, opts, cfg, 0.5);
    EXPECT_GT(res.speedup(), 0.0);
    EXPECT_NEAR(res.simulated_seconds, 0.5 * 86400.0, 1.0);
    ASSERT_EQ(res.timelines.size(), 3u);
    // Atmosphere ranks recorded atmosphere work; the ocean rank ocean work.
    double atm_time = 0.0, ocean_time = 0.0;
    for (const auto& seg : res.timelines[0])
      if (seg.region == par::Region::kAtmosphere) atm_time += seg.t1 - seg.t0;
    for (const auto& seg : res.timelines[2])
      if (seg.region == par::Region::kOcean) ocean_time += seg.t1 - seg.t0;
    EXPECT_GT(atm_time, 0.0);
    EXPECT_GT(ocean_time, 0.0);
    // Every rank's result agrees (the gather is broadcast back).
    EXPECT_EQ(res.timelines[1].empty(), false);
  });
}

TEST(ParallelCoupled, SixteenPlusOnePlacementWorks) {
  // The paper's production shape in miniature: many atmosphere ranks, one
  // ocean rank.
  FoamConfig cfg = FoamConfig::testing();
  par::run(5, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(4, 1);
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    EXPECT_GT(res.speedup(), 0.0);
  });
}

TEST(ParallelCoupled, BlockingExchangeRecordsCommWait) {
  // The paper's Fig. 2 idle band: with the blocking exchange, the lead
  // atmosphere rank sits in comm-wait while the ocean integrates.
  FoamConfig cfg = FoamConfig::testing();
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(1, 1);
    opts.overlap = false;
    const auto res = run_coupled_parallel(world, opts, cfg, 0.5);
    EXPECT_GT(res.region_seconds(0, par::Region::kCommWait), 0.0);
  });
}

// For each comm-wait segment on a rank's timeline, the number of
// atmosphere intervals (maximal runs of atmosphere segments) that began
// before it.
std::vector<int> atm_intervals_before_waits(
    const std::vector<par::Segment>& timeline) {
  std::vector<int> out;
  int intervals = 0;
  bool in_atm = false;
  for (const par::Segment& seg : timeline) {
    const bool atm = seg.region == par::Region::kAtmosphere;
    if (atm && !in_atm) ++intervals;
    in_atm = atm;
    if (seg.region == par::Region::kCommWait) out.push_back(intervals);
  }
  return out;
}

TEST(ParallelCoupled, OverlapExchangeRunsAndShrinksCommWait) {
  // With overlap on, the SST reply rides under the next atmosphere
  // interval: rank 0 waits for reply k only after interval k+1 has run
  // (the last reply is drained after the final interval). With the
  // blocking exchange it waits for reply k before interval k+1 starts.
  // Asserted on the order of rank 0's timeline segments, which program
  // order fixes, rather than on wall-clock wait seconds.
  FoamConfig cfg = FoamConfig::testing();
  std::vector<int> blocking, overlap;
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(1, 1);
    opts.overlap = false;
    auto res = run_coupled_parallel(world, opts, cfg, 0.5);
    if (world.rank() == 0)
      blocking = atm_intervals_before_waits(res.timelines[0]);
    opts.overlap = true;
    res = run_coupled_parallel(world, opts, cfg, 0.5);
    EXPECT_GT(res.speedup(), 0.0);
    EXPECT_NEAR(res.simulated_seconds, 0.5 * 86400.0, 1.0);
    if (world.rank() == 0)
      overlap = atm_intervals_before_waits(res.timelines[0]);
  });
  const int n_exchanges =
      static_cast<int>(0.5 * 86400.0 / cfg.exchange_seconds);
  ASSERT_GE(n_exchanges, 2);
  ASSERT_EQ(blocking.size(), static_cast<std::size_t>(n_exchanges));
  ASSERT_EQ(overlap.size(), static_cast<std::size_t>(n_exchanges));
  for (int k = 0; k < n_exchanges; ++k) {
    // Reply k (0-based) answers the forcing sent after interval k+1.
    EXPECT_EQ(blocking[k], k + 1) << "blocking reply " << k;
    EXPECT_EQ(overlap[k], std::min(k + 2, n_exchanges))
        << "overlap reply " << k;
  }
}

TEST(ParallelCoupled, OverlapWorksWithManyAtmRanks) {
  FoamConfig cfg = FoamConfig::testing();
  par::run(4, [&](par::Comm& world) {  // 3 atm + 1 ocean
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(3, 1);
    opts.overlap = true;
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    EXPECT_GT(res.speedup(), 0.0);
    // Ocean work still lands on the ocean rank.
    EXPECT_GT(res.region_seconds(3, par::Region::kOcean), 0.0);
  });
}

TEST(ParallelCoupled, CaptureTimelinesOffSkipsGather) {
  FoamConfig cfg = FoamConfig::testing();
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(1, 1);
    opts.capture_timelines = false;
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    EXPECT_GT(res.speedup(), 0.0);
    EXPECT_TRUE(res.timelines.empty());
    EXPECT_DOUBLE_EQ(res.region_seconds(0, par::Region::kAtmosphere), 0.0);
  });
}

TEST(ParallelCoupled, FullTracingGathersNestedSpansAndMetrics) {
  FoamConfig cfg = FoamConfig::testing();
  par::run(3, [&](par::Comm& world) {  // 2 atm + 1 ocean
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(2, 1);
    opts.telemetry.level = telemetry::TraceLevel::kFull;
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    ASSERT_EQ(res.traces.size(), 3u);
    ASSERT_EQ(res.metrics.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_FALSE(res.traces[r].spans.empty()) << "rank " << r;
      EXPECT_TRUE(res.traces[r].has_nested()) << "rank " << r;
    }
    // The span-derived region totals agree with the flat timelines (same
    // begin/end events, clock jitter only).
    for (int r = 0; r < 3; ++r) {
      for (int reg = 0; reg < par::kRegionCount; ++reg) {
        const auto region = static_cast<par::Region>(reg);
        const double flat = res.region_seconds(r, region);
        if (flat < 0.05) continue;
        EXPECT_NEAR(res.span_region_seconds(r, region), flat,
                    0.01 * flat + 1e-3)
            << "rank " << r << " region " << par::region_name(region);
      }
    }
    // The comm counters saw the exchange traffic on every rank.
    for (int r = 0; r < 3; ++r) {
      double waited = -1.0;
      for (const auto& [name, value] : res.metrics[r])
        if (name == "comm.requests_waited") waited = value;
      EXPECT_GT(waited, 0.0) << "rank " << r;
    }
    // The gathered traces export as one valid Chrome trace document.
    std::string err;
    EXPECT_TRUE(telemetry::json_validate(
        telemetry::chrome_trace_json(res.traces), &err))
        << err;
  });
}

TEST(ParallelCoupled, TelemetryOffSkipsTraceAndMetricsGather) {
  FoamConfig cfg = FoamConfig::testing();
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(1, 1);
    opts.telemetry.level = telemetry::TraceLevel::kOff;
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    EXPECT_TRUE(res.traces.empty());
    EXPECT_TRUE(res.metrics.empty());
    // The flat timelines still work: they are the pre-telemetry contract.
    ASSERT_EQ(res.timelines.size(), 2u);
    EXPECT_GT(res.region_seconds(0, par::Region::kAtmosphere), 0.0);
  });
}

TEST(FoamConfigValidate, AcceptsDefaultsAndTestingConfigs) {
  EXPECT_NO_THROW(FoamConfig::paper_default().validate());
  EXPECT_NO_THROW(FoamConfig::testing().validate());
}

TEST(FoamConfigValidate, RejectsInconsistentCoupling) {
  FoamConfig cfg = FoamConfig::testing();
  cfg.exchange_seconds = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.exchange_seconds = -3600.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = FoamConfig::testing();
  cfg.ocean_accel = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.ocean_accel = -2.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = FoamConfig::testing();
  cfg.exchange_seconds = 1.5 * cfg.atm.dt;  // not a whole step multiple
  EXPECT_THROW(cfg.validate(), Error);
  cfg.exchange_seconds = 0.5 * cfg.atm.dt;  // shorter than one step
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(FoamConfigValidate, DriversRejectBadConfigs) {
  FoamConfig cfg = FoamConfig::testing();
  cfg.exchange_seconds = 1.5 * cfg.atm.dt;
  EXPECT_THROW(CoupledFoam model(cfg), Error);
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(1, 1);
    EXPECT_THROW(run_coupled_parallel(world, opts, cfg, 0.25), Error);
  });
}

}  // namespace
}  // namespace foam

namespace foam {
namespace {

std::vector<char> read_file_bytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<char> bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

TEST(Checkpoint, RestartContinuesBitwise) {
  const std::string path = testing::TempDir() + "/foam_restart.foam";
  FoamConfig cfg = FoamConfig::testing();

  // Reference: run 1.0 day, checkpoint, run 0.5 more.
  CoupledFoam a(cfg);
  a.run_days(1.0);
  a.checkpoint(path);
  a.run_days(0.5);

  // Restored twin: same config, restore, run the same 0.5 day.
  CoupledFoam b(cfg);
  b.restore(path);
  EXPECT_EQ(b.now().seconds(), 86400);
  b.run_days(0.5);

  EXPECT_EQ(a.now().seconds(), b.now().seconds());
  const Field2Dd sa = a.sst();
  const Field2Dd sb = b.sst();
  double max_diff = 0.0;
  for (std::size_t n = 0; n < sa.size(); ++n)
    max_diff = std::max(max_diff,
                        std::abs(sa.data()[n] - sb.data()[n]));
  EXPECT_EQ(max_diff, 0.0) << "restart must continue bitwise-identically";
  // Atmosphere too (includes the stochastic stirring state).
  const auto& ta = a.atmosphere().temperature();
  const auto& tb = b.atmosphere().temperature();
  for (std::size_t n = 0; n < ta.size(); ++n)
    ASSERT_EQ(ta.data()[n], tb.data()[n]) << "atm state diverged at " << n;

  // The strongest form: re-checkpointing both runs must give files that
  // are equal byte for byte — every record of every component, not just
  // the fields sampled above.
  const std::string pa = testing::TempDir() + "/foam_restart_a.foam";
  const std::string pb = testing::TempDir() + "/foam_restart_b.foam";
  a.checkpoint(pa);
  b.checkpoint(pb);
  EXPECT_EQ(read_file_bytes(pa), read_file_bytes(pb))
      << "checkpoints of the original and the restored run differ";
}

TEST(Checkpoint, RestoreRejectsWrongFile) {
  const std::string path = testing::TempDir() + "/foam_bad_restart.foam";
  {
    HistoryWriter w(path);
    w.write_scalar("not_a_restart", 1.0);
  }
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam m(cfg);
  EXPECT_THROW(m.restore(path), Error);
}

TEST(Checkpoint, RestoreRejectsMismatchedConfigWithDiff) {
  const std::string path = testing::TempDir() + "/foam_fpr.foam";
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam m(cfg);
  m.checkpoint(path);

  // Same field sizes, different coupling parameters: before the config
  // fingerprint this loaded silently and continued with the wrong physics.
  FoamConfig other = cfg;
  other.exchange_seconds = cfg.exchange_seconds / 2.0;
  other.ocean_accel = 4.0;
  CoupledFoam w(other);
  try {
    w.restore(path);
    FAIL() << "restore accepted a checkpoint from a different config";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("exchange_seconds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ocean_accel"), std::string::npos) << msg;
  }
}

TEST(Checkpoint, TruncatedCheckpointRejected) {
  const std::string path = testing::TempDir() + "/foam_trunc_ckpt.foam";
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam m(cfg);
  m.checkpoint(path);

  // Chop the footer and tail off, as a crash mid-copy would: the loader
  // must refuse rather than restore partial state.
  std::vector<char> bytes = read_file_bytes(path);
  bytes.resize(bytes.size() - 64);
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  CoupledFoam w(cfg);
  EXPECT_THROW(w.restore(path), Error);

  // Garbage appended after an intact footer is corruption too.
  m.checkpoint(path);
  f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("trailing garbage", f);
  std::fclose(f);
  EXPECT_THROW(w.restore(path), Error);
}

}  // namespace
}  // namespace foam

#include "foam/diagnostics.hpp"

namespace foam {
namespace {

TEST(Diagnostics, OverturningAndHeatTransportFinite) {
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  model.run_days(1.0);
  const auto psi =
      diag::meridional_overturning_sv(model.ocean_model(),
                                      model.ocean_grid());
  EXPECT_FALSE(has_non_finite(psi));
  double max_any = 0.0;
  for (int j = 0; j < psi.nx(); ++j)
    for (int k = 0; k < psi.ny(); ++k)
      max_any = std::max(max_any, std::abs(psi(j, k)));
  EXPECT_GT(max_any, 0.0);

  const auto pht =
      diag::poleward_heat_transport_pw(model.ocean_model(),
                                       model.ocean_grid());
  for (const double v : pht) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 500.0);  // bounded (day-1 adjustment state)
  }
}

TEST(Diagnostics, ZonalMeanSstHasTropicalMaximum) {
  FoamConfig cfg = FoamConfig::testing();
  CoupledFoam model(cfg);
  model.run_days(1.0);
  const auto zm = diag::zonal_mean_sst(model.ocean_model(), -99.0);
  const auto& grid = model.ocean_grid();
  double t_trop = -1e9, t_pole = 1e9;
  for (int j = 0; j < grid.nlat(); ++j) {
    if (zm[j] == -99.0) continue;
    const double lat = std::abs(grid.lat(j)) * 57.2958;
    if (lat < 10.0) t_trop = std::max(t_trop, zm[j]);
    if (lat > 60.0) t_pole = std::min(t_pole, zm[j]);
  }
  EXPECT_GT(t_trop, t_pole + 10.0);
}

}  // namespace
}  // namespace foam

#include "foam/run_config.hpp"

namespace foam {
namespace {

TEST(RunConfig, DefaultsMatchPaperConfiguration) {
  const FoamConfig c = foam_config_from(Config::from_string(""));
  EXPECT_EQ(c.atm.nlon, 48);
  EXPECT_EQ(c.atm.nlat, 40);
  EXPECT_EQ(c.atm.mmax, 15);
  EXPECT_EQ(c.atm.nlev, 18);
  EXPECT_DOUBLE_EQ(c.atm.dt, 1800.0);
  EXPECT_EQ(c.ocean.nx, 128);
  EXPECT_EQ(c.ocean.nz, 16);
  EXPECT_DOUBLE_EQ(c.exchange_seconds, 6.0 * 3600.0);
  EXPECT_EQ(c.atm.physics, atm::PhysicsVersion::kCcm3);
}

TEST(RunConfig, ParsesOverrides) {
  const FoamConfig c = foam_config_from(Config::from_string(
      "atm.physics = ccm2\n"
      "atm.co2_factor = 2.0\n"
      "ocean.tracer_every = 4\n"
      "coupling.ocean_accel = 6\n"));
  EXPECT_EQ(c.atm.physics, atm::PhysicsVersion::kCcm2);
  EXPECT_DOUBLE_EQ(c.atm.co2_factor, 2.0);
  EXPECT_EQ(c.ocean.tracer_every, 4);
  EXPECT_DOUBLE_EQ(c.ocean_accel, 6.0);
}

TEST(RunConfig, RejectsUnknownAndInvalidKeys) {
  EXPECT_THROW(foam_config_from(Config::from_string("atm.nlevels = 18\n")),
               Error);
  EXPECT_THROW(foam_config_from(Config::from_string("atm.physics = ccm9\n")),
               Error);
  EXPECT_THROW(foam_config_from(Config::from_string(
                   "coupling.exchange_seconds = 60\n")),
               Error);
}

TEST(RunConfig, RunPlanFields) {
  const RunPlan plan = run_plan_from(Config::from_string(
      "run.days = 5\nrun.history_path = out.foam\n"));
  EXPECT_DOUBLE_EQ(plan.days, 5.0);
  EXPECT_EQ(plan.history_path, "out.foam");
  EXPECT_TRUE(plan.restart_path.empty());
  EXPECT_THROW(run_plan_from(Config::from_string("run.days = -1\n")), Error);
}

}  // namespace
}  // namespace foam

namespace foam {
namespace {

TEST(ParallelCoupled, MultiRankOceanPlacement) {
  // The paper's 34-node shape in miniature: the ocean on two ranks.
  FoamConfig cfg = FoamConfig::testing();
  par::run(4, [&](par::Comm& world) {  // 2 atm + 2 ocean
    ParallelRunOptions opts;
    opts.layout = RankLayout::rows(2, 2);
    const auto res = run_coupled_parallel(world, opts, cfg, 0.25);
    EXPECT_GT(res.speedup(), 0.0);
    // Both ocean ranks must have recorded ocean work.
    for (int r = 2; r < 4; ++r) {
      double ocean_time = 0.0;
      for (const auto& seg : res.timelines[r])
        if (seg.region == par::Region::kOcean)
          ocean_time += seg.t1 - seg.t0;
      EXPECT_GT(ocean_time, 0.0) << "ocean rank " << r;
    }
  });
}

TEST(RankLayout, DescribeAndFactories) {
  EXPECT_EQ(RankLayout::rows(8, 2).describe(), "8+1x2");
  EXPECT_EQ(RankLayout::grid(4, 2, 4).describe(), "4+2x4");
  EXPECT_EQ(RankLayout::grid(4, 2, 4).ocean_ranks(), 8);
  EXPECT_EQ(RankLayout::grid(4, 2, 4).world_size(), 12);
  EXPECT_EQ(RankLayout::rows(3, 2), RankLayout::grid(3, 1, 2));
}

TEST(RankLayout, ValidateCatchesBadLayouts) {
  const ocean::OceanConfig ocn = ocean::OceanConfig::testing(48, 48, 8);
  EXPECT_NO_THROW(RankLayout::grid(2, 2, 2).validate(6, ocn));
  // World-size mismatch names both sizes.
  try {
    RankLayout::grid(2, 2, 2).validate(4, ocn);
    FAIL() << "accepted a layout that does not cover the world";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("needs 6 ranks"), std::string::npos) << msg;
    EXPECT_NE(msg.find("world has 4"), std::string::npos) << msg;
  }
  // A rank grid wider than the ocean grid cannot give every rank cells.
  EXPECT_THROW(RankLayout::grid(1, 64, 1).validate(65, ocn), Error);
  EXPECT_THROW((RankLayout{0, 1, 1}.validate(1, ocn)), Error);
}

TEST(RankLayout, DriverRejectsAllAtmWorldWithPointedDiagnostic) {
  // A layout whose atmosphere covers the whole world leaves the ocean
  // with zero ranks; the layout validation must name the problem instead
  // of deadlocking or worse.
  FoamConfig cfg = FoamConfig::testing();
  par::run(2, [&](par::Comm& world) {
    ParallelRunOptions opts;
    // Both ranks atmosphere, nothing left for the ocean.
    opts.layout = RankLayout::rows(2, 0);
    try {
      run_coupled_parallel(world, opts, cfg, 0.25);
      FAIL() << "driver accepted a world with no ocean ranks";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("leaves the ocean without"),
                std::string::npos)
          << e.what();
    }
  });
}

TEST(ParallelCoupled, MultiRankOceanDayMatchesSingleOceanBitwise) {
  // The decomposition-independence contract of the 2-D ocean: a coupled
  // day on any ocean rank grid gathers to the same SST, bit for bit, as
  // the single-ocean-rank run — in both exchange modes, with the
  // MPI-semantics auditor reporting zero findings throughout. No team
  // helpers anywhere, so only the ocean decomposition moves between runs
  // (HelpersDoNotChangeBits covers the helper counts).
  FoamConfig cfg = FoamConfig::testing();
  for (const bool overlap : {false, true}) {
    Field2Dd ref;
    par::run(3, [&](par::Comm& world) {  // 2 atm + 1 ocean reference
      ParallelRunOptions opts;
      opts.layout = RankLayout::rows(2, 1);
      opts.overlap = overlap;
      opts.helpers_per_rank = 0;
      opts.capture_timelines = false;
      opts.verify = {};
      opts.verify.mode = par::VerifyMode::kAudit;
      opts.fault = {};
      const auto res = run_coupled_parallel(world, opts, cfg, 1.0);
      if (world.rank() == 0) {
        EXPECT_EQ(res.verify_findings, 0);
      }
      if (world.rank() == 2) ref = res.final_sst;
    });
    ASSERT_GT(ref.size(), 0u);
    for (const RankLayout layout :
         {RankLayout::grid(2, 2, 2), RankLayout::rows(2, 3)}) {
      Field2Dd got;
      par::run(layout.world_size(), [&](par::Comm& world) {
        ParallelRunOptions opts;
        opts.layout = layout;
        opts.overlap = overlap;
        opts.helpers_per_rank = 0;
        opts.capture_timelines = false;
        opts.verify = {};
        opts.verify.mode = par::VerifyMode::kAudit;
        opts.fault = {};
        const auto res = run_coupled_parallel(world, opts, cfg, 1.0);
        if (world.rank() == 0) {
        EXPECT_EQ(res.verify_findings, 0);
      }
        if (world.rank() == layout.atm_ranks) got = res.final_sst;
      });
      ASSERT_EQ(got.size(), ref.size()) << layout.describe();
      for (std::size_t n = 0; n < ref.size(); ++n)
        ASSERT_EQ(got.data()[n], ref.data()[n])
            << layout.describe() << (overlap ? " overlap" : " blocking")
            << " SST diverged at cell " << n;
    }
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::vector<char> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return bytes;
}

/// One coupled run with \p helpers helper threads per rank, checkpointing
/// daily under \p prefix; returns the ocean lead's final SST.
Field2Dd helpers_run(const RankLayout& layout, bool overlap, int helpers,
                     const std::string& prefix, double days,
                     bool resume = false) {
  Field2Dd sst;
  par::run(layout.world_size(), [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = layout;
    opts.overlap = overlap;
    opts.capture_timelines = false;
    opts.verify = {};
    opts.fault = {};
    opts.helpers_per_rank = helpers;
    opts.checkpoint.path_prefix = prefix;
    opts.checkpoint.resume = resume;
    const auto res = run_coupled_parallel(world, opts, cfg_for_helpers(),
                                          days);
    if (world.rank() == layout.atm_ranks) sst = res.final_sst;
  });
  return sst;
}

TEST(ParallelCoupled, HelpersDoNotChangeBits) {
  // Threads inside a rank split work by field and by row band, never a
  // sum: the final SST and every checkpoint shard are byte-identical with
  // 0, 1 and 2 helpers per rank, in both exchange modes.
  struct Case {
    RankLayout layout;
    bool overlap;
  };
  std::string cut;  // the 1+1 overlap run's checkpoints with 2 helpers
  for (const Case c : {Case{RankLayout::rows(1, 1), true},
                       Case{RankLayout::grid(2, 2, 1), false}}) {
    const std::string tag = c.layout.describe() + (c.overlap ? "ov" : "bl");
    std::vector<std::string> prefixes;
    std::vector<Field2Dd> ssts;
    for (const int helpers : {0, 1, 2}) {
      prefixes.push_back(testing::TempDir() + "/helpers_" + tag + "_" +
                         std::to_string(helpers));
      ssts.push_back(
          helpers_run(c.layout, c.overlap, helpers, prefixes.back(), 1.0));
    }
    if (cut.empty()) cut = prefixes.back();
    ASSERT_GT(ssts[0].size(), 0u);
    for (std::size_t h = 1; h < ssts.size(); ++h) {
      ASSERT_EQ(ssts[h].size(), ssts[0].size());
      EXPECT_EQ(std::memcmp(ssts[h].data(), ssts[0].data(),
                            ssts[0].size() * sizeof(double)),
                0)
          << tag << ": final SST differs with " << h << " helper(s)";
      for (int r = 0; r < c.layout.world_size(); ++r)
        EXPECT_EQ(file_bytes(ckpt_shard_path(prefixes[h], 1, r)),
                  file_bytes(ckpt_shard_path(prefixes[0], 1, r)))
            << tag << ": day-1 shard of rank " << r << " differs with " << h
            << " helper(s)";
    }
  }
  // A checkpoint written with 2 helpers resumes with none onto the same
  // bits as an uninterrupted 2-day run without helpers.
  const RankLayout one_one = RankLayout::rows(1, 1);
  const std::string ref = testing::TempDir() + "/helpers_ref2";
  const Field2Dd sst_ref = helpers_run(one_one, true, 0, ref, 2.0);
  const Field2Dd sst_resumed = helpers_run(one_one, true, 0, cut, 2.0,
                                           /*resume=*/true);
  ASSERT_EQ(sst_resumed.size(), sst_ref.size());
  EXPECT_EQ(std::memcmp(sst_resumed.data(), sst_ref.data(),
                        sst_ref.size() * sizeof(double)),
            0);
  for (int r = 0; r < one_one.world_size(); ++r)
    EXPECT_EQ(file_bytes(ckpt_shard_path(cut, 2, r)),
              file_bytes(ckpt_shard_path(ref, 2, r)))
        << "day-2 shard of rank " << r << " after a 2-helper checkpoint";
}

TEST(ParallelCoupled, AutoHelpersGoToTheAtmosphereWhenOverlapped) {
  // Pinned to 4 CPUs, the 1+1 overlapped run sizes its teams itself: the
  // 2 spare CPUs both go to the atmosphere (3 members), the ocean rank runs
  // alone, and the SST is the 0-helper run's to the byte.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  if (CPU_COUNT(&saved) < 4)
    GTEST_SKIP() << "needs 4 usable CPUs, this process has "
                 << CPU_COUNT(&saved);
  cpu_set_t four;
  CPU_ZERO(&four);
  for (int cpu = 0, n = 0; n < 4; ++cpu)
    if (CPU_ISSET(cpu, &saved)) {
      CPU_SET(cpu, &four);
      ++n;
    }
  const RankLayout layout = RankLayout::rows(1, 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(four), &four), 0);
  std::vector<double> members(layout.world_size(), -1.0);
  Field2Dd sst;
  par::run(layout.world_size(), [&](par::Comm& world) {
    ParallelRunOptions opts;
    opts.layout = layout;
    opts.overlap = true;
    opts.capture_timelines = false;
    opts.verify = {};
    opts.fault = {};
    const auto res = run_coupled_parallel(world, opts, cfg_for_helpers(), 1.0);
    if (world.rank() == layout.atm_ranks) sst = res.final_sst;
    if (world.rank() == 0)
      for (int r = 0; r < world.size(); ++r)
        for (const auto& [name, value] : res.metrics[r])
          if (name == "team.members") members[r] = value;
  });
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(members[0], 3.0) << "atmosphere rank";
  EXPECT_EQ(members[1], 1.0) << "ocean rank";
  const Field2Dd ref = helpers_run(layout, true, 0,
                                   testing::TempDir() + "/auto_helpers_ref",
                                   1.0);
  ASSERT_GT(ref.size(), 0u);
  ASSERT_EQ(sst.size(), ref.size());
  EXPECT_EQ(std::memcmp(sst.data(), ref.data(), ref.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace foam
