#pragma once

/// \file coupled.hpp
/// The Fast Ocean-Atmosphere Model: coupled driver.
///
/// Scheduling follows paper §5 / Figure 2: the atmosphere takes 30-minute
/// steps (48 per simulated day) with radiation recomputed twice daily; the
/// ocean is called every 6 hours (4 times per day); the coupler exchanges
/// averaged fluxes at the ocean calls and runs the land / river / ice
/// substrate in between.
///
/// Two drivers are provided:
///  * CoupledFoam — single-process, used by the science benches (Fig. 3,
///    Fig. 4, CCM2-vs-CCM3) and the examples;
///  * run_coupled_parallel — SPMD over a foam::par world, with the ocean on
///    its own rank(s) and the coupler co-resident with the atmosphere
///    ranks, instrumented with per-rank activity timelines (Fig. 2 and the
///    scaling "table"). The flux exchange runs either blocking (the
///    atmosphere waits out the ocean call) or with comm/compute overlap
///    (ParallelRunOptions::overlap): the forcing send and the SST-reply
///    receive are posted nonblocking and the atmosphere steps the next
///    interval while the ocean integrates — the reply is applied one
///    exchange late (standard lagged/asynchronous coupling), trading a
///    6-hour SST lag for the ocean call disappearing from the critical
///    path.

#include <memory>
#include <vector>

#include <string>

#include "atm/model.hpp"
#include "base/calendar.hpp"
#include "coupler/coupler.hpp"
#include "ocean/model.hpp"
#include "par/fault.hpp"
#include "par/team.hpp"
#include "par/timers.hpp"
#include "par/verify/verify.hpp"
#include "telemetry/observe.hpp"
#include "telemetry/telemetry.hpp"

namespace foam {

struct FoamConfig {
  atm::AtmConfig atm = atm::AtmConfig::r15_default();
  ocean::OceanConfig ocean = ocean::OceanConfig::foam_default();
  /// Coupling (= ocean call) interval [s]; paper: 6 hours.
  double exchange_seconds = 6.0 * 3600.0;
  /// Acceleration factor for the ocean in long climate runs: the ocean
  /// advances accel * exchange interval of its own time per coupling
  /// (distorted-physics acceleration; 1 = synchronous).
  double ocean_accel = 1.0;

  static FoamConfig paper_default() { return FoamConfig{}; }
  /// Small configuration for tests.
  static FoamConfig testing() {
    FoamConfig c;
    c.atm = atm::AtmConfig::testing();
    c.ocean = ocean::OceanConfig::testing(48, 48, 8);
    return c;
  }

  /// Throws foam::Error unless the coupling parameters are consistent:
  /// positive atmosphere step, exchange interval and ocean acceleration,
  /// and an exchange interval that is a whole number of atmosphere steps.
  /// Called by both drivers before any rank starts stepping.
  void validate() const;
};

/// Single-process coupled model.
class CoupledFoam {
 public:
  explicit CoupledFoam(const FoamConfig& cfg);

  /// One atmosphere step (30 min), including any due ocean call/exchange.
  void step();
  void run_days(double days);

  const ModelTime& now() const { return now_; }
  const atm::AtmosphereModel& atmosphere() const { return *atm_; }
  atm::AtmosphereModel& atmosphere() { return *atm_; }
  const ocean::OceanModel& ocean_model() const { return *ocean_; }
  const coupler::Coupler& coupling() const { return *coupler_; }
  const numerics::MercatorGrid& ocean_grid() const { return ogrid_; }
  const Field2D<int>& ocean_mask() const { return omask_; }

  /// SST on the ocean grid [C] (land cells 0).
  Field2Dd sst() const { return ocean_->sst(); }

  /// Abstract cost so far (atmosphere + ocean grid-point updates).
  double work_points() const;

  /// Write a restart file; a model constructed with the same FoamConfig
  /// and restored with restore() continues bitwise-identically (the
  /// stochastic stirring state is checkpointed too).
  void checkpoint(const std::string& path) const;
  void restore(const std::string& path);

 private:
  void exchange();

  FoamConfig cfg_;
  numerics::MercatorGrid ogrid_;
  Field2Dd bathy_;
  Field2D<int> omask_;
  std::unique_ptr<atm::AtmosphereModel> atm_;
  std::unique_ptr<ocean::OceanModel> ocean_;
  std::unique_ptr<coupler::Coupler> coupler_;
  ModelTime now_;
  std::int64_t atm_steps_ = 0;
};

/// Result of a parallel coupled run.
struct ParallelRunResult {
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Model speedup: simulated time / wall time.
  double speedup() const {
    return wall_seconds > 0.0 ? simulated_seconds / wall_seconds : 0.0;
  }
  /// Per-world-rank activity timelines (atmosphere/coupler/ocean/idle/
  /// comm-wait); empty when ParallelRunOptions::capture_timelines is off.
  std::vector<std::vector<par::Segment>> timelines;

  /// Seconds world rank \p rank spent in region \p r (0 without timelines).
  double region_seconds(int rank, par::Region r) const {
    if (rank < 0 || rank >= static_cast<int>(timelines.size())) return 0.0;
    double sum = 0.0;
    for (const par::Segment& seg : timelines[rank])
      if (seg.region == r) sum += seg.t1 - seg.t0;
    return sum;
  }

  /// Per-world-rank hierarchical traces (name table + nested spans); filled
  /// only when ParallelRunOptions::telemetry.level == TraceLevel::kFull.
  /// Feed to telemetry::write_chrome_trace for a Perfetto timeline.
  std::vector<telemetry::RankTrace> traces;

  /// Per-world-rank flattened metric samples (comm counters, spectral batch
  /// stats, coupler counters, ...); empty at TraceLevel::kOff.
  std::vector<std::vector<std::pair<std::string, double>>> metrics;

  /// Seconds rank \p rank spent in depth-0 spans of region \p r according
  /// to the hierarchical trace — the cross-check against region_seconds.
  double span_region_seconds(int rank, par::Region r) const {
    if (rank < 0 || rank >= static_cast<int>(traces.size())) return 0.0;
    return traces[rank].region_total(r);
  }

  /// Total MPI-semantics findings across all ranks for the run, or -1 when
  /// verification was off (ParallelRunOptions::verify). 0 proves the run
  /// was deadlock-free, leak-free and wildcard-deterministic as observed.
  std::int64_t verify_findings = -1;

  /// The run's final gathered ocean SST (full grid), filled on the ocean
  /// ranks only (empty elsewhere). The same field for every rank layout of
  /// a given config — the decomposition-independence observable.
  Field2Dd final_sst;

  /// Sampling-profiler histogram (ObservabilityOptions::profile): sample
  /// counts per (rank, innermost open span). Empty when profiling is off.
  std::vector<telemetry::ProfileEntry> profile;
  /// Measured seconds between profiler samples (the effective interval —
  /// multiply sample counts by this for time attribution).
  double profile_interval_seconds = 0.0;

  /// Profiler-attributed seconds rank \p rank spent with a span of region
  /// class \p r innermost — the sampled counterpart of region_seconds.
  double profile_seconds(int rank, par::Region r) const {
    double sum = 0.0;
    for (const telemetry::ProfileEntry& e : profile)
      if (e.rank == rank && e.region == r)
        sum += static_cast<double>(e.samples) * profile_interval_seconds;
    return sum;
  }
};

/// Checkpoint policy for the parallel driver (see foam/checkpoint.hpp for
/// the on-disk layout). Checkpoints are taken at simulated-day boundaries:
/// every rank writes its own crash-safe shard, then world rank 0 writes the
/// manifest and atomically advances the `<prefix>.latest.foam` pointer. A
/// resumed run is bitwise identical to the uninterrupted one, in both
/// overlap modes.
struct CheckpointOptions {
  /// Path prefix for checkpoint files; empty disables checkpointing.
  std::string path_prefix;
  /// Cadence in simulated days (rounded to whole days, minimum 1).
  double every_days = 1.0;
  /// Resume from the checkpoint named by `<prefix>.latest.foam` before
  /// stepping (the prefix must have at least one complete checkpoint).
  bool resume = false;

  bool enabled() const { return !path_prefix.empty(); }
};

/// Explicit placement of a coupled run's ranks: the first atm_ranks world
/// ranks host the atmosphere + coupler, the remaining ocean_px * ocean_py
/// ranks host the ocean decomposed over a px * py Cartesian rank grid
/// (par::Decomp2D, x-major). Replaces the old positional "n_atm, rest is
/// one ocean row block each" convention, which could not express 2-D ocean
/// layouts and silently had no valid spelling for "0 ocean ranks".
struct RankLayout {
  int atm_ranks = 1;
  int ocean_px = 1;
  int ocean_py = 1;

  int ocean_ranks() const { return ocean_px * ocean_py; }
  int world_size() const { return atm_ranks + ocean_ranks(); }

  /// The historic layout: ocean split into latitude-row blocks only.
  static RankLayout rows(int atm, int ocean_rows) {
    return RankLayout{atm, 1, ocean_rows};
  }
  static RankLayout grid(int atm, int px, int py) {
    return RankLayout{atm, px, py};
  }

  /// Throws foam::Error unless the layout is internally consistent, covers
  /// \p world_size exactly and fits the ocean grid (px <= nx, py <= ny).
  void validate(int world_size, const ocean::OceanConfig& ocean) const;

  /// Compact human-readable form, e.g. "8+2x4".
  std::string describe() const;

  bool operator==(const RankLayout&) const = default;
};

/// Options for run_coupled_parallel; every rank of the world communicator
/// must pass the same values.
struct ParallelRunOptions {
  /// Rank layout: atmosphere ranks + 2-D ocean rank grid (paper §5: e.g.
  /// 17 nodes = RankLayout::rows(16, 1), 16 atmosphere + 1 ocean). Must
  /// cover the world communicator exactly.
  RankLayout layout;
  /// Overlap the flux exchange with atmosphere computation (see the file
  /// comment): nonblocking forcing send + SST-reply receive, reply applied
  /// one exchange interval late. Off = blocking exchange, the reply is
  /// waited for inside the exchange (the paper's Fig. 2 idle band).
  bool overlap = false;
  /// Gather per-rank activity timelines into ParallelRunResult::timelines.
  bool capture_timelines = true;
  /// Telemetry session installed on every rank for the run: trace level
  /// (off / regions-only / full hierarchical spans) and span ring capacity.
  /// The flat-view setting is overridden by capture_timelines.
  telemetry::TelemetryOptions telemetry;
  /// MPI-semantics checking for the run (par/verify/verify.hpp): off by
  /// default unless FOAM_PAR_VERIFY is set. The driver installs it via
  /// Comm::set_verify and audits quiescence at the end of each coupled day
  /// and at run end (Comm::verify_quiescent).
  par::CommVerifyOptions verify = par::CommVerifyOptions::from_env();
  /// Checkpoint/restart policy; disabled unless a path prefix is set.
  CheckpointOptions checkpoint;
  /// Fault injection for resilience drills: kill or stall one rank at a
  /// chosen simulated-day boundary. Disarmed by default unless FOAM_FAULT
  /// is set (par/fault.hpp).
  par::FaultPlan fault = par::FaultPlan::from_env();
  /// Live observability: flight recorder, heartbeat/watchdog, sampling
  /// profiler, status feed (telemetry/observe.hpp). All off by default
  /// unless FOAM_OBSERVE / FOAM_OBSERVE_WATCHDOG / FOAM_TELEMETRY=profile
  /// are set.
  telemetry::ObservabilityOptions observe =
      telemetry::ObservabilityOptions::from_env();
  /// Helper threads per rank for its in-rank par::Team, which splits the
  /// spectral batches by field and the ocean sweeps by row band. The
  /// default, kAutoHelpers, takes par::auto_team_helpers(par::usable_cpus(),
  /// world size): the spare CPUs shared between the ranks. Tests set it to
  /// pin a size (0 .. par::kMaxTeamMembers - 1); the bits never depend on
  /// it. CoupledFoam has no team.
  static constexpr int kAutoHelpers = -1;
  int helpers_per_rank = kAutoHelpers;
};

/// Run the coupled model SPMD on \p world. Must be called by every rank of
/// the communicator with identical \p opts. The result (with gathered
/// timelines, if enabled) is returned on every rank.
ParallelRunResult run_coupled_parallel(par::Comm& world,
                                       const ParallelRunOptions& opts,
                                       const FoamConfig& cfg, double days);

}  // namespace foam
