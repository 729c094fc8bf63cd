// Live-observability drills for the parallel coupled driver.
//
// The contract under test (ISSUE 8 acceptance): an injected FOAM_FAULT
// kill and a Comm::stall deadlock each leave behind a validated merged
// postmortem trace naming the failing rank's open span plus an "aborted"
// status.json, with no torn temporaries; the watchdog fires (and dumps)
// before the deadlock detector's abort; a clean observed run finishes
// with a "finished" status feed and, under FOAM_TELEMETRY=profile
// semantics, a span-attributed sample histogram; and span-ring drops are
// surfaced as the telemetry.dropped_spans counter instead of silently
// truncating traces.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "foam/coupled.hpp"
#include "par/fault.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/observe.hpp"

namespace foam {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Driver options with the environment-driven pieces cleared and the
/// observability layer explicit per drill.
ParallelRunOptions mk_opts(const telemetry::ObservabilityOptions& observe) {
  ParallelRunOptions o;
  o.layout = RankLayout::rows(2, 1);
  o.capture_timelines = false;
  o.verify = {};
  o.fault = {};
  o.observe = observe;
  return o;
}

/// The postmortem + status pair every abort drill must leave behind.
void expect_postmortem(const std::string& dir, const std::string& reason_bit,
                       const std::string& span_bit) {
  const std::string path = telemetry::RunObserver::last_postmortem_path();
  ASSERT_FALSE(path.empty()) << "no postmortem was written";
  const std::string doc = slurp(path);
  std::string err;
  EXPECT_TRUE(telemetry::json_validate(doc, &err)) << path << ": " << err;
  EXPECT_NE(doc.find("\"foamPostmortem\""), std::string::npos) << path;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos) << path;
  EXPECT_NE(doc.find(reason_bit), std::string::npos)
      << path << " reason does not mention '" << reason_bit << "'";
  EXPECT_NE(doc.find(span_bit), std::string::npos)
      << path << " does not name the failing span '" << span_bit << "'";
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::string cpath = path;
  cpath.replace(cpath.find(".trace.json"), std::string::npos,
                ".counters.json");
  EXPECT_TRUE(file_exists(cpath)) << cpath;
  EXPECT_TRUE(telemetry::json_validate(slurp(cpath), &err)) << err;
  const std::string status = slurp(dir + "/status.json");
  EXPECT_TRUE(telemetry::json_validate(status, &err)) << err;
  EXPECT_NE(status.find("\"state\": \"aborted\""), std::string::npos)
      << status;
  EXPECT_FALSE(file_exists(dir + "/status.json.tmp"));
}

TEST(Observe, KillDrillWritesMergedPostmortem) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string dir = fresh_dir("obs_kill");
  telemetry::ObservabilityOptions ob;
  ob.flight_recorder = true;
  ob.heartbeat = true;
  ob.status = true;
  ob.dir = dir;
  try {
    par::run(3, [&](par::Comm& world) {
      ParallelRunOptions o = mk_opts(ob);
      o.fault = par::FaultPlan::parse("kill:rank=2,day=1");
      run_coupled_parallel(world, o, cfg, 2.0);
    });
    FAIL() << "killed rank did not abort the run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fault injection"),
              std::string::npos)
        << e.what();
  }
  // The dump reason is the kill itself (recorded before the throw), and
  // the killed rank's open span is the injected fault marker.
  expect_postmortem(dir, "rank 2 killed at simulated day 1",
                    "fault.kill (injected)");
}

TEST(Observe, StallWatchdogDumpsBeforeDeadlockAbort) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string dir = fresh_dir("obs_stall");
  telemetry::ObservabilityOptions ob;
  ob.flight_recorder = true;
  ob.heartbeat = true;
  ob.status = true;
  ob.watchdog_seconds = 0.3;
  ob.dir = dir;
  try {
    par::run(3, [&](par::Comm& world) {
      ParallelRunOptions o = mk_opts(ob);
      // The watchdog deadline (0.3s) is well inside the deadlock
      // detector's stall timeout (1.2s): the dump must come from the
      // watchdog, not from the abort hook on the detector's throw.
      o.verify.mode = par::VerifyMode::kAudit;
      o.verify.stall_timeout_seconds = 1.2;
      o.fault = par::FaultPlan::parse("stall:rank=1,day=1,seconds=30");
      run_coupled_parallel(world, o, cfg, 2.0);
    });
    FAIL() << "stalled rank did not trip the deadlock detector";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock detected"),
              std::string::npos)
        << e.what();
  }
  expect_postmortem(dir, "watchdog: rank 1 stalled",
                    "fault.stall (injected)");
}

TEST(Observe, CleanRunFinishesStatusFeedAndProfiles) {
  const FoamConfig cfg = FoamConfig::testing();
  const std::string dir = fresh_dir("obs_clean");
  telemetry::ObservabilityOptions ob;
  ob.heartbeat = true;
  ob.status = true;
  ob.status_interval_seconds = 0.05;
  ob.profile = true;
  ob.profile_interval_seconds = 5e-4;
  ob.dir = dir;
  par::run(3, [&](par::Comm& world) {
    const ParallelRunResult res =
        run_coupled_parallel(world, mk_opts(ob), cfg, 2.0);
    // Every rank gets the same profiler histogram; the ocean rank's
    // integration must dominate its samples.
    EXPECT_GT(res.profile_interval_seconds, 0.0);
    ASSERT_FALSE(res.profile.empty());
    EXPECT_GT(res.profile_seconds(2, par::Region::kOcean), 0.0);
  });
  std::string err;
  const std::string status = slurp(dir + "/status.json");
  EXPECT_TRUE(telemetry::json_validate(status, &err)) << err;
  EXPECT_NE(status.find("\"state\": \"finished\""), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"simulated_day\": 2"), std::string::npos)
      << status;
  EXPECT_EQ(telemetry::RunObserver::last_postmortem_path().find(dir),
            std::string::npos)
      << "clean run must not dump a postmortem into " << dir;
}

TEST(Observe, SpanRingDropsSurfaceAsCounter) {
  const FoamConfig cfg = FoamConfig::testing();
  ParallelRunOptions o = mk_opts({});
  // A 16-slot ring at kFull overflows within the first exchange; the run
  // must surface the loss instead of silently truncating the trace.
  o.telemetry.level = telemetry::TraceLevel::kFull;
  o.telemetry.max_spans = 16;
  par::run(3, [&](par::Comm& world) {
    const ParallelRunResult res = run_coupled_parallel(world, o, cfg, 1.0);
    ASSERT_EQ(static_cast<int>(res.metrics.size()), world.size());
    for (int r = 0; r < world.size(); ++r) {
      double dropped = -1.0;
      for (const auto& [name, value] : res.metrics[r])
        if (name == "telemetry.dropped_spans") dropped = value;
      EXPECT_GT(dropped, 0.0)
          << "rank " << r << " did not surface its span-ring drops";
    }
  });
}

TEST(Observe, TeamAccountingReachesMetricsAndStatusFeed) {
  // Each rank's helpers are accounted where the CPU figure is read: the
  // gathered metrics and the rank's status-feed row.
  const FoamConfig cfg = FoamConfig::testing();
  const std::string dir = fresh_dir("obs_team");
  telemetry::ObservabilityOptions ob;
  ob.heartbeat = true;
  ob.status = true;
  ob.dir = dir;
  ParallelRunOptions o = mk_opts(ob);
  o.layout = RankLayout::rows(1, 1);
  o.helpers_per_rank = 1;
  o.telemetry.level = telemetry::TraceLevel::kRegions;
  par::run(2, [&](par::Comm& world) {
    const ParallelRunResult res = run_coupled_parallel(world, o, cfg, 1.0);
    ASSERT_EQ(static_cast<int>(res.metrics.size()), world.size());
    for (int r = 0; r < world.size(); ++r) {
      double members = -1.0, busy = -1.0, join = -1.0;
      for (const auto& [name, value] : res.metrics[r]) {
        if (name == "team.members") members = value;
        if (name == "team.helper_busy_s") busy = value;
        if (name == "team.join_wait_s") join = value;
      }
      EXPECT_EQ(members, 2.0) << "rank " << r;
      EXPECT_GT(busy, 0.0) << "rank " << r;
      EXPECT_GE(join, 0.0) << "rank " << r;
    }
  });
  std::string err;
  const std::string status = slurp(dir + "/status.json");
  EXPECT_TRUE(telemetry::json_validate(status, &err)) << err;
  EXPECT_NE(status.find("\"team\": {\"helper_busy_s\": "), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"members\": 2}"), std::string::npos) << status;
}

}  // namespace
}  // namespace foam
