// §5 scaling "table" — coupled-model throughput and scaling:
//   "our best performance has been approximately 6,000 times real time...
//    We have seen almost linear scaling on 8, 16, and 32 atmosphere
//    processors... We typically achieve peak performance faster than 4,000
//    times real time on 34 nodes... one ocean processor has no difficulty
//    keeping up with 16 atmosphere processors, but... can not keep up
//    with 32."
//
// The sweep covers the legacy row placements (N atm + 1 ocean) and the
// 2-D ocean decompositions the RankLayout API added: balanced N+N points
// (1+1, 2+2, 4+4, 8+8, ocean on a px*py rank grid) plus the 2+8 point
// where the per-rank atmosphere and ocean costs actually balance.
//
// Two speedups are reported per placement and exchange mode:
//  * model_speedup — simulated/wall, the honest single-host number. The
//    ranks are threads multiplexed over the host cores, so this *degrades*
//    as ranks are added on a small host; it is kept for continuity with
//    earlier runs of this bench.
//  * scaled_speedup — the dedicated-core estimate from per-rank thread-CPU
//    busy seconds (driver.atm_cpu_seconds / driver.ocean_cpu_seconds,
//    CLOCK_THREAD_CPUTIME_ID, immune to host contention): simulated time
//    over the critical path, max-atm + max-ocean CPU for the blocking
//    exchange, max(max-atm, max-ocean) when the ocean call is overlapped.
//    This is the architecture-level scaling quantity and is gated
//    monotonically non-decreasing through 8+8.
//
// FOAM_BENCH_QUICK=1 shortens the run (0.25 day) for CI smoke use.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "foam/coupled.hpp"

using namespace foam;

namespace {

/// Last value of gauge \p name gathered from \p rank (0 when absent).
double metric_of(const ParallelRunResult& res, int rank, const char* name) {
  if (rank < 0 || rank >= static_cast<int>(res.metrics.size())) return 0.0;
  double out = 0.0;
  for (const auto& [key, value] : res.metrics[rank])
    if (key == name) out = value;
  return out;
}

struct Placement {
  int atm;
  int px;
  int py;
  int ocean() const { return px * py; }
};

struct Measured {
  double wall = 0.0;
  double model_speedup = 0.0;
  double scaled_speedup = 0.0;
  double atm_busy = 0.0;    // wall region seconds, lead atm rank
  double ocean_busy = 0.0;  // wall region seconds, lead ocean rank
  double atm_wait = 0.0;
  double atm_cpu = 0.0;    // max thread-CPU busy over the atm ranks
  double ocean_cpu = 0.0;  // max thread-CPU busy over the ocean ranks
  double fastpath = 0.0;   // comm.fastpath_msgs summed over all ranks
  double handoffs = 0.0;   // comm.zero_copy_handoffs summed over all ranks
};

Measured run_placement(const Placement& p, bool overlap,
                       const FoamConfig& cfg, double days) {
  Measured m;
  par::run(p.atm + p.ocean(), [&](par::Comm& comm) {
    ParallelRunOptions opts;
    opts.layout = RankLayout::grid(p.atm, p.px, p.py);
    opts.overlap = overlap;
    const auto res = run_coupled_parallel(comm, opts, cfg, days);
    if (comm.rank() != 0) return;
    m.wall = res.wall_seconds;
    m.model_speedup = res.speedup();
    m.atm_busy = res.region_seconds(0, par::Region::kAtmosphere);
    m.ocean_busy = res.region_seconds(p.atm, par::Region::kOcean);
    m.atm_wait = res.region_seconds(0, par::Region::kCommWait);
    for (int r = 0; r < p.atm; ++r)
      m.atm_cpu =
          std::max(m.atm_cpu, metric_of(res, r, "driver.atm_cpu_seconds"));
    for (int r = p.atm; r < comm.size(); ++r)
      m.ocean_cpu = std::max(
          m.ocean_cpu, metric_of(res, r, "driver.ocean_cpu_seconds"));
    for (int r = 0; r < comm.size(); ++r) {
      m.fastpath += metric_of(res, r, "comm.fastpath_msgs");
      m.handoffs += metric_of(res, r, "comm.zero_copy_handoffs");
    }
    // Dedicated-core critical path: blocking serializes the ocean call
    // after the atmosphere interval; overlap hides the shorter of the two.
    const double critical = overlap ? std::max(m.atm_cpu, m.ocean_cpu)
                                    : m.atm_cpu + m.ocean_cpu;
    m.scaled_speedup =
        critical > 0.0 ? res.simulated_seconds / critical : 0.0;
  });
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // One simulated day = 4 coupling exchanges: enough for the overlapped
  // reply (applied one exchange late) to actually hide under the following
  // atmosphere intervals.
  const bool quick = std::getenv("FOAM_BENCH_QUICK") != nullptr;
  const double days = argc > 1 ? std::atof(argv[1]) : (quick ? 0.25 : 1.0);
  std::printf("=== Coupled-model scaling (paper section 5) ===%s\n",
              quick ? " [quick]" : "");
  FoamConfig cfg = FoamConfig::paper_default();
  cfg.atm.emulate_full_core_cost = true;
  cfg.atm.emulate_transforms_per_level = 40;

  // Legacy row placements, then the 2-D balanced sweep. 2+8 is the
  // paper-shaped "balanced ratio": the ocean grid is wide enough that
  // per-rank ocean CPU drops under the per-rank atmosphere CPU (a 2-rank
  // atmosphere cannot keep 2+1 fed, but 2+4x2 keeps up).
  const std::vector<Placement> placements = {
      {1, 1, 1}, {2, 1, 1}, {4, 1, 1}, {8, 1, 1},
      {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {2, 4, 2}};
  // Indices (into `placements`) of the balanced N+N chain the
  // scaled-speedup monotonicity gate runs over.
  const std::vector<std::size_t> balanced = {0, 4, 5, 6};
  const std::size_t ratio_point = 7;  // 2+8

  bench::BenchJson json("coupled_scaling");

  std::printf("%-10s %-8s %9s %10s %11s %10s %10s %9s %9s\n", "placement",
              "mode", "wall [s]", "speedup", "scaled", "atm cpu",
              "ocean cpu", "atm wait", "keeps up");
  std::vector<Measured> measured(placements.size() * 2);
  for (std::size_t pi = 0; pi < placements.size(); ++pi) {
    const Placement& p = placements[pi];
    const RankLayout layout = RankLayout::grid(p.atm, p.px, p.py);
    for (const bool overlap : {false, true}) {
      const Measured m = run_placement(p, overlap, cfg, days);
      measured[pi * 2 + (overlap ? 1 : 0)] = m;
      const bench::BenchParams jcfg = {
          {"atm_ranks", p.atm},
          {"ocean_ranks", p.ocean()},
          {"ocean_px", p.px},
          {"ocean_py", p.py},
          {"rank_layout", layout.describe()},
          {"exchange", overlap ? "overlap" : "blocking"},
          // Constant key: the committed baseline rows carry it.
          {"spectral", "engine"}};
      json.add("wall_seconds", m.wall, "s", jcfg);
      json.add("model_speedup", m.model_speedup, "x", jcfg);
      json.add("scaled_speedup", m.scaled_speedup, "x", jcfg);
      json.add("atm_busy_seconds", m.atm_busy, "s", jcfg);
      json.add("ocean_busy_seconds", m.ocean_busy, "s", jcfg);
      json.add("atm_cpu_seconds", m.atm_cpu, "s", jcfg);
      json.add("ocean_cpu_seconds", m.ocean_cpu, "s", jcfg);
      json.add("atm_commwait_seconds", m.atm_wait, "s", jcfg);
      json.add("fastpath_msgs", m.fastpath, "msgs", jcfg);
      json.add("zero_copy_handoffs", m.handoffs, "msgs", jcfg);
      std::printf("%-10s %-8s %9.1f %9.0fx %10.0fx %9.2fs %9.2fs %8.2fs "
                  "%8s\n",
                  layout.describe().c_str(),
                  overlap ? "overlap" : "blocking", m.wall, m.model_speedup,
                  m.scaled_speedup, m.atm_cpu, m.ocean_cpu, m.atm_wait,
                  m.ocean_cpu <= m.atm_cpu ? "yes" : "no");
    }
  }

  // --- gates --------------------------------------------------------------
  // 1. The dedicated-core scaling curve must be monotonically
  //    non-decreasing over the balanced chain 1+1 -> 2+2 -> 4+4 -> 8+8 in
  //    both exchange modes (2% slack for CPU-clock jitter).
  for (const bool overlap : {false, true}) {
    double prev = 0.0;
    std::string prev_name;
    for (const std::size_t pi : balanced) {
      const Placement& p = placements[pi];
      const double s =
          measured[pi * 2 + (overlap ? 1 : 0)].scaled_speedup;
      const std::string name = RankLayout::grid(p.atm, p.px, p.py).describe();
      FOAM_REQUIRE(s >= prev * 0.98,
                   "scaled speedup regressed along the balanced chain ("
                       << (overlap ? "overlap" : "blocking") << "): " << name
                       << " = " << s << "x after " << prev_name << " = "
                       << prev << "x");
      prev = s;
      prev_name = name;
    }
  }
  // 2. At the balanced ratio (2+8) the decomposed ocean must keep up: its
  //    busiest rank's CPU time at or under the busiest atmosphere rank's.
  for (const bool overlap : {false, true}) {
    const Measured& m = measured[ratio_point * 2 + (overlap ? 1 : 0)];
    FOAM_REQUIRE(m.ocean_cpu <= m.atm_cpu,
                 "ocean does not keep up at the balanced 2+8 ratio ("
                     << (overlap ? "overlap" : "blocking")
                     << "): ocean cpu " << m.ocean_cpu << "s > atm cpu "
                     << m.atm_cpu << "s");
  }
  // 3. The messaging runtime's fast paths must actually be exercised by
  //    the coupled model: every placement's run must record small-message
  //    inline-slot traffic and zero-copy ownership handoffs (the flux
  //    exchange and ocean halo ring send via isend_move).
  for (std::size_t pi = 0; pi < placements.size(); ++pi) {
    for (const bool overlap : {false, true}) {
      const Measured& m = measured[pi * 2 + (overlap ? 1 : 0)];
      const Placement& p = placements[pi];
      const std::string name = RankLayout::grid(p.atm, p.px, p.py).describe();
      FOAM_REQUIRE(m.fastpath > 0.0,
                   "no comm.fastpath_msgs recorded at " << name << " ("
                       << (overlap ? "overlap" : "blocking") << ")");
      FOAM_REQUIRE(m.handoffs > 0.0,
                   "no comm.zero_copy_handoffs recorded at " << name << " ("
                       << (overlap ? "overlap" : "blocking") << ")");
    }
  }
  std::printf("\ngates: scaled speedup monotone over 1+1 -> 2+2 -> 4+4 -> "
              "8+8 (both modes); ocean keeps up at 2+8; messaging fast "
              "path + zero-copy handoffs exercised everywhere. PASS\n");

  // Checkpoint overhead A/B: the 8+8 placement with and without a daily
  // checkpoint. The delta is the full cost of crash-safety — serializing
  // every rank's state, the fsync'd shard writes, the completion barrier
  // and the manifest — amortized over the simulated span. Reported, not
  // gated: on a shared host the difference sits inside run-to-run noise.
  std::printf("\n--- checkpoint overhead (8 atm + 2x4 ocean, overlap) ---\n");
  {
    struct CkptMeasured {
      double wall = 0.0;
      double scaled = 0.0;  // dedicated-core critical-path speedup
    };
    CkptMeasured cm[2];  // [daily checkpoint]
    // Best-of-N per combination: even thread-CPU clocks pick up several
    // percent of scatter when 16 rank threads multiplex a small host. The
    // best repeat is the least-contended estimate.
    const int repeats = quick ? 2 : 3;
    for (const bool ckpt : {false, true}) {
      CkptMeasured& out = cm[ckpt];
      for (int rep = 0; rep < repeats; ++rep) {
        par::run(16, [&](par::Comm& comm) {
          ParallelRunOptions opts;
          opts.layout = RankLayout::grid(8, 2, 4);
          opts.overlap = true;
          if (ckpt) {
            opts.checkpoint.path_prefix = "/tmp/bench_ckpt_scaling";
            opts.checkpoint.every_days = 1.0;
          }
          const auto res = run_coupled_parallel(comm, opts, cfg, days);
          if (comm.rank() != 0) return;
          double atm_cpu = 0.0, ocean_cpu = 0.0;
          for (int r = 0; r < 8; ++r)
            atm_cpu =
                std::max(atm_cpu, metric_of(res, r, "driver.atm_cpu_seconds"));
          for (int r = 8; r < comm.size(); ++r)
            ocean_cpu = std::max(
                ocean_cpu, metric_of(res, r, "driver.ocean_cpu_seconds"));
          const double critical = std::max(atm_cpu, ocean_cpu);  // overlap
          const double scaled =
              critical > 0.0 ? res.simulated_seconds / critical : 0.0;
          if (rep == 0 || res.wall_seconds < out.wall)
            out.wall = res.wall_seconds;
          if (scaled > out.scaled) out.scaled = scaled;
        });
      }
    }
    const CkptMeasured& plain = cm[0];
    const CkptMeasured& withc = cm[1];
    const double overhead =
        plain.wall > 0.0 ? 100.0 * (withc.wall - plain.wall) / plain.wall
                         : 0.0;
    // The committed baseline rows are keyed on "scheduler": "barrier".
    const bench::BenchParams jcfg = {{"atm_ranks", 8},
                                     {"ocean_ranks", 8},
                                     {"ocean_px", 2},
                                     {"ocean_py", 4},
                                     {"rank_layout", "8+2x4"},
                                     {"exchange", "overlap"},
                                     {"scheduler", "barrier"}};
    json.add("wall_seconds_no_ckpt", plain.wall, "s", jcfg);
    json.add("wall_seconds_daily_ckpt", withc.wall, "s", jcfg);
    json.add("ckpt_overhead_pct", overhead, "%", jcfg);
    json.add("scaled_speedup_no_ckpt", plain.scaled, "x", jcfg);
    json.add("scaled_speedup_daily_ckpt", withc.scaled, "x", jcfg);
    std::printf("no checkpoint: %7.2fs (%6.0fx)   daily checkpoint: "
                "%7.2fs (%6.0fx)   wall overhead: %+.1f%%\n",
                plain.wall, plain.scaled, withc.wall, withc.scaled, overhead);
  }

  std::printf("\npaper shape: near-linear scaling while ranks are added to\n"
              "both components; a single ocean rank stops keeping up once\n"
              "enough atmosphere ranks shrink the per-rank atm time below\n"
              "the ocean's serial time — the 2-D ocean decomposition is\n"
              "what pushes the balance point out (2+4x2 keeps up where 2+1\n"
              "cannot). The overlap rows show the lead atmosphere rank's\n"
              "comm-wait collapsing when the SST reply rides under the\n"
              "next atmosphere interval.\n");
  return 0;
}
