// Distributed checkpoint/restart and fault-injection drills for the
// parallel coupled driver.
//
// The contract under test: a run resumed from the latest checkpoint is
// bitwise identical to the uninterrupted run (both overlap modes), shards
// are crash-safe, a killed rank produces a clean abort diagnostic naming
// it, and a stalled rank trips the PR-4 deadlock detector.
//
// The small cases (2+1 ranks, 2 simulated days of the testing config) run
// in the regular suite; the paper-shaped acceptance drills (8+1 ranks /
// 4 days / kill at day 3, and 8+2x4 ranks / 2 days / ocean-rank kill at
// day 2) are gated behind FOAM_RESTART_ACCEPTANCE=1 and exercised by the
// restart-resilience CI job.

#include "foam/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/history.hpp"
#include "foam/coupled.hpp"
#include "par/fault.hpp"

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

/// Driver options with everything explicit: no env-driven fault plans and
/// no timeline capture (the tests compare state, not telemetry).
ParallelRunOptions mk_opts(const RankLayout& layout, bool overlap,
                           const std::string& prefix, double every_days,
                           bool resume) {
  ParallelRunOptions o;
  o.layout = layout;
  o.overlap = overlap;
  o.capture_timelines = false;
  o.verify = {};
  o.fault = {};
  o.checkpoint.path_prefix = prefix;
  o.checkpoint.every_days = every_days;
  o.checkpoint.resume = resume;
  return o;
}

TEST(FaultPlan, ParsesSpecs) {
  const par::FaultPlan kill = par::FaultPlan::parse("kill:rank=3,day=2");
  EXPECT_EQ(kill.action, par::FaultPlan::Action::kKill);
  EXPECT_EQ(kill.rank, 3);
  EXPECT_DOUBLE_EQ(kill.at_day, 2.0);
  EXPECT_TRUE(kill.armed());
  EXPECT_TRUE(kill.due(3, 2.0));
  EXPECT_FALSE(kill.due(2, 2.0));
  EXPECT_FALSE(kill.due(3, 1.0));

  const par::FaultPlan stall =
      par::FaultPlan::parse("stall:rank=1,day=2,seconds=30");
  EXPECT_EQ(stall.action, par::FaultPlan::Action::kStall);
  EXPECT_EQ(stall.rank, 1);
  EXPECT_DOUBLE_EQ(stall.at_day, 2.0);
  EXPECT_DOUBLE_EQ(stall.stall_seconds, 30.0);

  EXPECT_THROW(par::FaultPlan::parse("explode:rank=1,day=1"), Error);
  EXPECT_THROW(par::FaultPlan::parse("kill:rank=1"), Error);       // no day
  EXPECT_THROW(par::FaultPlan::parse("kill:day=1"), Error);        // no rank
  EXPECT_THROW(par::FaultPlan::parse("kill:rank=x,day=1"), Error);
  EXPECT_THROW(par::FaultPlan::parse("kill:rank=1,day=1,x=2"), Error);
  EXPECT_FALSE(par::FaultPlan{}.armed());
}

/// Uninterrupted vs checkpoint-and-resume, compared through the strongest
/// observable: the final-day shard files must be equal byte for byte on
/// every rank.
void resume_bitwise_case(bool overlap) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string tag = overlap ? "ov" : "bl";
  const std::string pa = testing::TempDir() + "/rsA_" + tag;
  const std::string pb = testing::TempDir() + "/rsB_" + tag;
  const RankLayout layout = RankLayout::rows(2, 1);
  const int nranks = layout.world_size();

  // Reference: 2 uninterrupted days, checkpoint every day.
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, overlap, pa, 1.0, false),
                         cfg, 2.0);
  });
  // Interrupted twin: 1 day, then resume-from-latest for the full span.
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, overlap, pb, 1.0, false),
                         cfg, 1.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 1);
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, overlap, pb, 1.0, true),
                         cfg, 2.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 2);
  for (int r = 0; r < nranks; ++r)
    EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 2, r)),
              read_file_bytes(ckpt_shard_path(pb, 2, r)))
        << "day-2 state of rank " << r << " diverged after resume ("
        << (overlap ? "overlap" : "blocking") << " exchange)";
}

TEST(Restart, ResumeBitwiseBlockingExchange) { resume_bitwise_case(false); }

TEST(Restart, ResumeBitwiseOverlapExchange) { resume_bitwise_case(true); }

TEST(Restart, ResumeBitwiseTwoDOceanLayout) {
  // Same contract on a 2-D ocean rank grid: every shard (per-rank box
  // state, not row blocks) must land bitwise after a resume.
  const FoamConfig cfg = FoamConfig::testing();
  const RankLayout layout = RankLayout::grid(2, 2, 2);
  const std::string pa = testing::TempDir() + "/rs2dA";
  const std::string pb = testing::TempDir() + "/rs2dB";
  par::run(layout.world_size(), [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pa, 1.0, false), cfg,
                         2.0);
  });
  par::run(layout.world_size(), [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pb, 1.0, false), cfg,
                         1.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 1);
  par::run(layout.world_size(), [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pb, 1.0, true), cfg,
                         2.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 2);
  for (int r = 0; r < layout.world_size(); ++r)
    EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 2, r)),
              read_file_bytes(ckpt_shard_path(pb, 2, r)))
        << "day-2 state of rank " << r << " diverged after a 2-D resume";
}

/// Rewrite the history file at \p path with extra records: each record
/// named in \p after is followed by the records listed with its name.
void rewrite_with_records(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<HistoryRecord>>>&
        after) {
  const std::vector<HistoryRecord> recs = HistoryReader(path).records();
  HistoryWriter out(path);
  auto put = [&](const HistoryRecord& r) {
    if (r.dims.size() == 3) {
      Field3Dd f(r.dims[0], r.dims[1], r.dims[2]);
      std::copy(r.data.begin(), r.data.end(), f.vec().begin());
      out.write(r.name, f);
    } else if (r.dims.size() == 2) {
      Field2Dd f(r.dims[0], r.dims[1]);
      std::copy(r.data.begin(), r.data.end(), f.vec().begin());
      out.write(r.name, f);
    } else if (r.dims.empty()) {
      out.write_scalar(r.name, r.data.at(0));
    } else {
      out.write_series(r.name, r.data);
    }
  };
  for (const HistoryRecord& r : recs) {
    put(r);
    for (const auto& [name, extra] : after)
      if (name == r.name)
        for (const HistoryRecord& e : extra) put(e);
  }
  out.close();
}

TEST(Restart, ShardWithLegacyPrevTracerRecordsResumesBitwise) {
  // Shards written while the ocean still kept an (unused) previous tracer
  // level carry foam.ocean.t_prev, .s_prev and .have_tracer_prev.
  // load_state finds records by name, so such a shard still resumes to the
  // uninterrupted run's bits.
  const FoamConfig cfg = FoamConfig::testing();
  const RankLayout layout = RankLayout::rows(2, 1);
  const std::string pa = testing::TempDir() + "/rsLegacyA";
  const std::string pb = testing::TempDir() + "/rsLegacyB";
  const int nranks = layout.world_size();
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pa, 1.0, false), cfg,
                         2.0);
  });
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pb, 1.0, false), cfg,
                         1.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 1);
  int legacy_shards = 0;
  for (int r = 0; r < nranks; ++r) {
    const std::string path = ckpt_shard_path(pb, 1, r);
    const HistoryReader in(path);
    if (!in.has("foam.ocean.t")) continue;
    HistoryRecord t_prev = in.find("foam.ocean.t");
    HistoryRecord s_prev = in.find("foam.ocean.s");
    t_prev.name = "foam.ocean.t_prev";
    s_prev.name = "foam.ocean.s_prev";
    const HistoryRecord have{"foam.ocean.have_tracer_prev", {}, {1.0}};
    rewrite_with_records(path, {{"foam.ocean.s", {t_prev, s_prev}},
                                {"foam.ocean.have_mom_prev", {have}}});
    ASSERT_TRUE(HistoryReader(path).has("foam.ocean.t_prev"));
    ++legacy_shards;
  }
  ASSERT_EQ(legacy_shards, layout.ocean_ranks());
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pb, 1.0, true), cfg,
                         2.0);
  });
  ASSERT_EQ(ckpt_latest_day(pb), 2);
  for (int r = 0; r < nranks; ++r)
    EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 2, r)),
              read_file_bytes(ckpt_shard_path(pb, 2, r)))
        << "day-2 state of rank " << r
        << " diverged after resuming from a legacy shard";
}

TEST(Restart, KillAbortsWithDiagnosticAndResumeMatchesFaultFreeRun) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string pa = testing::TempDir() + "/klA";
  const std::string pb = testing::TempDir() + "/klB";
  const RankLayout layout = RankLayout::rows(2, 1);
  const int nranks = layout.world_size();

  // Fault-free reference.
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(layout, true, pa, 1.0, false), cfg,
                         2.0);
  });

  // Kill world rank 2 (the ocean rank) at day 2: the run must abort with a
  // diagnostic naming the rank, leaving day 1 as the latest checkpoint.
  try {
    par::run(nranks, [&](par::Comm& world) {
      ParallelRunOptions o = mk_opts(layout, true, pb, 1.0, false);
      o.fault = par::FaultPlan::parse("kill:rank=2,day=2");
      run_coupled_parallel(world, o, cfg, 2.0);
    });
    FAIL() << "injected kill did not abort the run";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault injection"), std::string::npos) << msg;
  }
  ASSERT_EQ(ckpt_latest_day(pb), 1);

  // Relaunch from the latest checkpoint, with the MPI-semantics checker
  // auditing the resumed run; it must finish clean and land bitwise on the
  // fault-free reference.
  std::int64_t findings = -1;
  par::run(nranks, [&](par::Comm& world) {
    ParallelRunOptions o = mk_opts(layout, true, pb, 1.0, true);
    o.verify.mode = par::VerifyMode::kAudit;
    const auto res = run_coupled_parallel(world, o, cfg, 2.0);
    if (world.rank() == 0) findings = res.verify_findings;
  });
  EXPECT_EQ(findings, 0);
  for (int r = 0; r < nranks; ++r)
    EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 2, r)),
              read_file_bytes(ckpt_shard_path(pb, 2, r)))
        << "resumed run diverged from the fault-free run on rank " << r;
}

TEST(Restart, StallTripsDeadlockDetector) {
  const FoamConfig cfg = FoamConfig::testing();
  const int nranks = 3;
  try {
    par::run(nranks, [&](par::Comm& world) {
      ParallelRunOptions o =
          mk_opts(RankLayout::rows(2, 1), false, "", 1.0, false);
      o.verify.mode = par::VerifyMode::kAudit;
      o.verify.stall_timeout_seconds = 0.4;
      o.fault = par::FaultPlan::parse("stall:rank=1,day=1,seconds=30");
      run_coupled_parallel(world, o, cfg, 1.0);
    });
    FAIL() << "stalled rank did not trip the deadlock detector";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault.stall"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  }
}

TEST(Restart, UnwritableCheckpointPrefixFailsWithNamedError) {
  // Every rank's day-1 shard write fails: the prefix sits in a directory
  // that does not exist (not a read-only one — permission bits do not stop
  // a process running as root). The run must come back, not hang at the
  // shard barrier, with a foam::Error naming the shard path, and must
  // publish no latest pointer.
  const FoamConfig cfg = FoamConfig::testing();
  const std::string prefix = testing::TempDir() + "/no_such_dir/ckpt";
  const std::pair<RankLayout, bool> cases[] = {
      {RankLayout::grid(1, 1, 1), /*overlap=*/true},
      {RankLayout::grid(2, 2, 1), /*overlap=*/false}};
  for (const auto& [layout, overlap] : cases) {
    try {
      par::run(layout.world_size(), [&](par::Comm& world) {
        run_coupled_parallel(
            world, mk_opts(layout, overlap, prefix, 1.0, false), cfg, 1.0);
      });
      FAIL() << layout.describe() << ": run with an unwritable checkpoint "
             << "prefix reported success";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(prefix + ".day1.rank"), std::string::npos)
          << layout.describe() << ": " << msg;
    }
    std::FILE* latest = std::fopen(ckpt_latest_path(prefix).c_str(), "rb");
    EXPECT_EQ(latest, nullptr) << layout.describe();
    if (latest != nullptr) std::fclose(latest);
  }
}

TEST(Restart, ResumeRejectsMismatchedRunShape) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string pf = testing::TempDir() + "/shape";
  const int nranks = 3;
  par::run(nranks, [&](par::Comm& world) {
    run_coupled_parallel(
        world, mk_opts(RankLayout::rows(2, 1), false, pf, 1.0, false), cfg,
        1.0);
  });
  try {
    par::run(nranks, [&](par::Comm& world) {
      run_coupled_parallel(
          world, mk_opts(RankLayout::rows(1, 2), false, pf, 1.0, true), cfg,
          2.0);
    });
    FAIL() << "resume accepted a checkpoint from a different placement";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-rank run"), std::string::npos)
        << e.what();
  }
  // Overlap-mode mismatch is rejected too (the lag bookkeeping differs).
  try {
    par::run(nranks, [&](par::Comm& world) {
      run_coupled_parallel(
          world, mk_opts(RankLayout::rows(2, 1), true, pf, 1.0, true), cfg,
          2.0);
    });
    FAIL() << "resume accepted a checkpoint from the other overlap mode";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
        << e.what();
  }
}

TEST(Restart, ResumeRejectsMismatchedOceanGridShape) {
  // Same world size, different ocean rank grid: the manifest carries the
  // full RankLayout, so 2+1x3 shards cannot seed a 2+3x1 run (the per-rank
  // boxes differ even though the rank count does not).
  const FoamConfig cfg = FoamConfig::testing();
  const std::string pf = testing::TempDir() + "/shape2d";
  const RankLayout written = RankLayout::rows(2, 3);
  par::run(written.world_size(), [&](par::Comm& world) {
    run_coupled_parallel(world, mk_opts(written, false, pf, 1.0, false), cfg,
                         1.0);
  });
  try {
    par::run(written.world_size(), [&](par::Comm& world) {
      run_coupled_parallel(
          world, mk_opts(RankLayout::grid(2, 3, 1), false, pf, 1.0, true),
          cfg, 2.0);
    });
    FAIL() << "resume accepted shards from a different ocean rank grid";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2+1x3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-rank run"), std::string::npos) << msg;
  }
}

/// Paper-shaped acceptance drill (ISSUE 5): 8 atmosphere ranks + 1 ocean
/// rank, 4 simulated days, checkpoint cadence 2 days, rank kill at day 3,
/// resume-from-latest lands bitwise on the fault-free run — in both
/// exchange modes. ~10x the cost of the small cases, so gated for CI.
TEST(RestartAcceptance, EightPlusOneKillAtDayThreeResumesBitwise) {
  if (std::getenv("FOAM_RESTART_ACCEPTANCE") == nullptr)
    GTEST_SKIP() << "set FOAM_RESTART_ACCEPTANCE=1 to run the 8+1 drill";
  const FoamConfig cfg = FoamConfig::testing();
  const RankLayout layout = RankLayout::rows(8, 1);
  const int nranks = layout.world_size();
  for (const bool overlap : {false, true}) {
    const std::string tag = overlap ? "ov" : "bl";
    const std::string pa = testing::TempDir() + "/accA_" + tag;
    const std::string pb = testing::TempDir() + "/accB_" + tag;

    par::run(nranks, [&](par::Comm& world) {
      run_coupled_parallel(world, mk_opts(layout, overlap, pa, 2.0, false),
                           cfg, 4.0);
    });
    try {
      par::run(nranks, [&](par::Comm& world) {
        ParallelRunOptions o = mk_opts(layout, overlap, pb, 2.0, false);
        o.fault = par::FaultPlan::parse("kill:rank=3,day=3");
        run_coupled_parallel(world, o, cfg, 4.0);
      });
      FAIL() << "injected kill did not abort the run";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
    }
    ASSERT_EQ(ckpt_latest_day(pb), 2) << "kill at day 3 must leave day 2";

    std::int64_t findings = -1;
    par::run(nranks, [&](par::Comm& world) {
      ParallelRunOptions o = mk_opts(layout, overlap, pb, 2.0, true);
      o.verify.mode = par::VerifyMode::kAudit;
      const auto res = run_coupled_parallel(world, o, cfg, 4.0);
      if (world.rank() == 0) findings = res.verify_findings;
    });
    EXPECT_EQ(findings, 0);
    for (int r = 0; r < nranks; ++r)
      EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 4, r)),
                read_file_bytes(ckpt_shard_path(pb, 4, r)))
          << "acceptance drill diverged on rank " << r << " (" << tag
          << ")";
  }
}

/// 8+8 drill for the restart-resilience CI job: the paper-shaped balanced
/// placement with the ocean on a 2x4 rank grid, an ocean-interior rank
/// killed at day 2, resume-from-latest audited and bitwise. Gated like the
/// 8+1 drill above.
TEST(RestartAcceptance, EightPlusEightOceanRankKillResumesBitwise) {
  if (std::getenv("FOAM_RESTART_ACCEPTANCE") == nullptr)
    GTEST_SKIP() << "set FOAM_RESTART_ACCEPTANCE=1 to run the 8+8 drill";
  const FoamConfig cfg = FoamConfig::testing();
  const RankLayout layout = RankLayout::grid(8, 2, 4);
  const std::string pa = testing::TempDir() + "/acc88A";
  const std::string pb = testing::TempDir() + "/acc88B";
  const auto opts_for = [&](const std::string& prefix, bool resume) {
    return mk_opts(layout, true, prefix, 1.0, resume);
  };

  par::run(layout.world_size(), [&](par::Comm& world) {
    run_coupled_parallel(world, opts_for(pa, false), cfg, 2.0);
  });
  try {
    par::run(layout.world_size(), [&](par::Comm& world) {
      ParallelRunOptions o = opts_for(pb, false);
      o.fault = par::FaultPlan::parse("kill:rank=11,day=2");
      run_coupled_parallel(world, o, cfg, 2.0);
    });
    FAIL() << "injected kill did not abort the run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 11"), std::string::npos)
        << e.what();
  }
  ASSERT_EQ(ckpt_latest_day(pb), 1) << "kill at day 2 must leave day 1";

  std::int64_t findings = -1;
  par::run(layout.world_size(), [&](par::Comm& world) {
    ParallelRunOptions o = opts_for(pb, true);
    o.verify.mode = par::VerifyMode::kAudit;
    const auto res = run_coupled_parallel(world, o, cfg, 2.0);
    if (world.rank() == 0) findings = res.verify_findings;
  });
  EXPECT_EQ(findings, 0);
  for (int r = 0; r < layout.world_size(); ++r)
    EXPECT_EQ(read_file_bytes(ckpt_shard_path(pa, 2, r)),
              read_file_bytes(ckpt_shard_path(pb, 2, r)))
        << "8+8 drill diverged on rank " << r;
}

}  // namespace
}  // namespace foam
