#include "foam/coupled.hpp"

#include <cmath>
#include <sstream>

#include "base/constants.hpp"
#include "base/history.hpp"
#include "base/logging.hpp"
#include "data/earth.hpp"
#include "foam/checkpoint.hpp"

namespace foam {

namespace c = foam::constants;

namespace {
constexpr int kTagForcing = 300;  // atm -> ocean forcing fields
}  // namespace

void FoamConfig::validate() const {
  FOAM_REQUIRE(atm.dt > 0.0, "atm.dt must be positive, got " << atm.dt);
  FOAM_REQUIRE(exchange_seconds > 0.0,
               "exchange_seconds must be positive, got " << exchange_seconds);
  FOAM_REQUIRE(ocean_accel > 0.0,
               "ocean_accel must be positive, got " << ocean_accel);
  const double steps = exchange_seconds / atm.dt;
  const auto whole = static_cast<double>(std::llround(steps));
  FOAM_REQUIRE(steps >= 1.0 - 1e-9 && std::abs(steps - whole) < 1e-9,
               "exchange_seconds (" << exchange_seconds
                                    << ") must be a whole multiple of the "
                                       "atmosphere step ("
                                    << atm.dt << ")");
}

void RankLayout::validate(int world_size,
                          const ocean::OceanConfig& ocean) const {
  FOAM_REQUIRE(atm_ranks >= 1,
               "rank layout needs at least one atmosphere rank, got "
               "atm_ranks=" << atm_ranks);
  FOAM_REQUIRE(ocean_px >= 1 && ocean_py >= 1,
               "rank layout " << describe() << " leaves the ocean without "
                              "ranks (the atmosphere takes " << atm_ranks
                              << " of the " << world_size
                              << "-rank world); the coupled driver needs at "
                                 "least one ocean rank");
  FOAM_REQUIRE(this->world_size() == world_size,
               "rank layout " << describe() << " needs "
                              << this->world_size()
                              << " ranks but the world has " << world_size);
  FOAM_REQUIRE(ocean_px <= ocean.nx && ocean_py <= ocean.ny,
               "rank layout " << describe() << ": ocean rank grid "
                              << ocean_px << "x" << ocean_py
                              << " does not fit the " << ocean.nx << "x"
                              << ocean.ny << " ocean grid");
}

std::string RankLayout::describe() const {
  std::ostringstream s;
  s << atm_ranks << "+" << ocean_px << "x" << ocean_py;
  return s.str();
}

CoupledFoam::CoupledFoam(const FoamConfig& cfg)
    : cfg_(cfg),
      ogrid_(cfg.ocean.nx, cfg.ocean.ny, ocean::OceanConfig::kStandardLatMax),
      bathy_(data::bathymetry(ogrid_)),
      omask_(data::ocean_mask(ogrid_)) {
  cfg_.validate();
  atm_ = std::make_unique<atm::AtmosphereModel>(cfg_.atm);
  ocean_ = std::make_unique<ocean::OceanModel>(cfg_.ocean, ogrid_, bathy_);
  // The ocean model may bury boundary rows; use its mask.
  for (int j = 0; j < ogrid_.nlat(); ++j)
    for (int i = 0; i < ogrid_.nlon(); ++i)
      omask_(i, j) = ocean_->levels()(i, j) > 0 ? 1 : 0;
  coupler_ = std::make_unique<coupler::Coupler>(atm_->grid(), ogrid_, omask_);
  atm_->init_default();
  ocean_->init_climatology();
  atm_->set_surface(coupler_->make_atm_surface(ocean_->sst()));
}

void CoupledFoam::exchange() {
  const int steps = std::max(1, atm_->accumulated_steps());
  atm::FluxFields mean = atm_->accumulated_fluxes();
  const double inv = 1.0 / steps;
  for (Field2Dd* f : {&mean.sw_sfc, &mean.lw_down, &mean.sensible,
                      &mean.latent, &mean.evaporation, &mean.rain,
                      &mean.snow, &mean.taux, &mean.tauy})
    *f *= inv;

  const Field2Dd sst = ocean_->sst();
  const Field2Dd frazil = ocean_->drain_frazil();
  const auto forcing = coupler_->make_ocean_forcing(mean, sst, frazil,
                                                    cfg_.exchange_seconds);
  ocean::OceanForcing of;
  of.wind_x = &forcing.taux;
  of.wind_y = &forcing.tauy;
  of.heat = &forcing.qnet;
  of.freshwater = &forcing.fw;
  of.ice = &coupler_->ice_fraction_o();
  ocean_->set_forcing(of);
  const double ocean_seconds = cfg_.exchange_seconds * cfg_.ocean_accel;
  ocean_->run_days(ocean_seconds / 86400.0);

  atm_->set_surface(coupler_->make_atm_surface(ocean_->sst()));
  atm_->reset_flux_accumulation();
}

void CoupledFoam::step() {
  atm_->step(now_);
  coupler_->step_land(atm_->last_fluxes(), cfg_.atm.dt);
  ++atm_steps_;
  now_.advance(static_cast<std::int64_t>(cfg_.atm.dt));
  const auto exchange_steps =
      static_cast<std::int64_t>(cfg_.exchange_seconds / cfg_.atm.dt);
  if (atm_steps_ % exchange_steps == 0) exchange();
}

void CoupledFoam::run_days(double days) {
  const auto n = static_cast<std::int64_t>(
      std::llround(days * 86400.0 / cfg_.atm.dt));
  for (std::int64_t s = 0; s < n; ++s) step();
}

void CoupledFoam::checkpoint(const std::string& path) const {
  HistoryWriter out(path);
  write_config_fingerprint(out, cfg_);
  out.write_scalar("foam.now_seconds", static_cast<double>(now_.seconds()));
  out.write_scalar("foam.atm_steps", static_cast<double>(atm_steps_));
  atm_->save_state(out, "foam.atm");
  ocean_->save_state(out, "foam.ocean");
  coupler_->save_state(out, "foam.coupler");
  // Explicit close: an ENOSPC/flush failure must throw here, not vanish in
  // the destructor, or the caller believes it holds a restart point.
  out.close();
}

void CoupledFoam::restore(const std::string& path) {
  HistoryReader in(path);
  check_config_fingerprint(in, cfg_, "'" + path + "'");
  now_ = ModelTime(static_cast<std::int64_t>(
      in.find("foam.now_seconds").data[0]));
  atm_steps_ =
      static_cast<std::int64_t>(in.find("foam.atm_steps").data[0]);
  atm_->load_state(in, "foam.atm");
  ocean_->load_state(in, "foam.ocean");
  coupler_->load_state(in, "foam.coupler");
  // Rebuild the atmosphere's surface from the restored coupled state.
  atm_->set_surface(coupler_->make_atm_surface(ocean_->sst()));
}

double CoupledFoam::work_points() const {
  return atm_->work_points() + ocean_->work_points();
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

namespace {

void send_field(par::Comm& comm, int dst, const Field2Dd& f) {
  // One copy into a fresh buffer, handed to the runtime by ownership; the
  // receiving side moves the same buffer into its field, so a field crosses
  // the exchange with a single copy (send_vec + recv_vec cost two).
  comm.isend_move(dst, kTagForcing, std::vector<double>(f.vec()));
}

void recv_field(par::Comm& comm, int src, Field2Dd& f) {
  std::vector<double> buf;
  comm.recv_vec(src, kTagForcing, buf);
  FOAM_REQUIRE(buf.size() == f.size(), "field size mismatch in exchange");
  f.vec() = std::move(buf);
}

/// Checkpoint the installed surface boundary condition verbatim. With
/// overlapped coupling the surface lags the newest delivered SST by one
/// exchange, so rebuilding it from the ocean state at restore time would
/// shift the lag — saving the installed fields keeps the resume bitwise.
void write_surface(HistoryWriter& out, const atm::SurfaceFields& sfc) {
  out.write("foam.sfc.tsurf", sfc.tsurf);
  out.write("foam.sfc.albedo", sfc.albedo);
  out.write("foam.sfc.roughness", sfc.roughness);
  out.write("foam.sfc.wetness", sfc.wetness);
  const auto as_series = [&](const std::string& name,
                             const Field2D<int>& f) {
    std::vector<double> buf(f.size());
    for (std::size_t n = 0; n < f.size(); ++n)
      buf[n] = static_cast<double>(f.vec()[n]);
    out.write_series(name, buf);
  };
  as_series("foam.sfc.is_ocean", sfc.is_ocean);
  as_series("foam.sfc.is_ice", sfc.is_ice);
}

atm::SurfaceFields read_surface(const HistoryReader& in, int nlon,
                                int nlat) {
  atm::SurfaceFields sfc(nlon, nlat);
  const auto load2 = [&](const std::string& name, Field2Dd& f) {
    const auto& rec = in.find(name);
    FOAM_REQUIRE(rec.data.size() == f.size(),
                 "checkpoint size mismatch in " << name);
    std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
  };
  load2("foam.sfc.tsurf", sfc.tsurf);
  load2("foam.sfc.albedo", sfc.albedo);
  load2("foam.sfc.roughness", sfc.roughness);
  load2("foam.sfc.wetness", sfc.wetness);
  const auto load_int = [&](const std::string& name, Field2D<int>& f) {
    const auto& rec = in.find(name);
    FOAM_REQUIRE(rec.data.size() == f.size(),
                 "checkpoint size mismatch in " << name);
    for (std::size_t n = 0; n < f.size(); ++n)
      f.vec()[n] = static_cast<int>(rec.data[n]);
  };
  load_int("foam.sfc.is_ocean", sfc.is_ocean);
  load_int("foam.sfc.is_ice", sfc.is_ice);
  return sfc;
}

/// Allgather variable-length per-rank double streams (timelines, traces,
/// metric samples): every rank ends up with every rank's stream.
std::vector<std::vector<double>> allgather_streams(
    par::Comm& world, const std::vector<double>& mine) {
  const double n_mine = static_cast<double>(mine.size());
  std::vector<double> all_counts(world.size());
  world.allgather(&n_mine, 1, all_counts.data());
  std::vector<int> counts(world.size());
  for (int r = 0; r < world.size(); ++r)
    counts[r] = static_cast<int>(all_counts[r]);
  std::vector<double> flat;
  world.gatherv(mine, flat, counts, 0);
  world.bcast_vec(flat, 0);
  std::vector<std::vector<double>> out(world.size());
  std::size_t off = 0;
  for (int r = 0; r < world.size(); ++r) {
    out[r].assign(flat.begin() + static_cast<std::ptrdiff_t>(off),
                  flat.begin() + static_cast<std::ptrdiff_t>(off) +
                      counts[r]);
    off += static_cast<std::size_t>(counts[r]);
  }
  return out;
}

}  // namespace

ParallelRunResult run_coupled_parallel(par::Comm& world,
                                       const ParallelRunOptions& opts,
                                       const FoamConfig& cfg, double days) {
  cfg.validate();
  // Validation catches the classic footgun of an atmosphere covering the
  // whole world (0 ocean ranks) with a pointed message.
  const RankLayout& layout = opts.layout;
  layout.validate(world.size(), cfg.ocean);
  const int n_atm = layout.atm_ranks;
  const int n_ocean = layout.ocean_ranks();
  const bool is_atm = world.rank() < n_atm;
  world.set_verify(opts.verify);
  auto sub = world.split(is_atm ? 0 : 1, world.rank());
  FOAM_REQUIRE(sub != nullptr, "split failed");

  numerics::MercatorGrid ogrid(cfg.ocean.nx, cfg.ocean.ny,
                               ocean::OceanConfig::kStandardLatMax);
  const Field2Dd bathy = data::bathymetry(ogrid);

  // Per-rank telemetry session: region spans drive the flat Fig. 2 view
  // (timelines); FOAM_TRACE_SCOPE spans throughout the component stack are
  // recorded at TraceLevel::kFull; comm counters accumulate whenever the
  // session is installed.
  telemetry::TelemetryOptions topts = opts.telemetry;
  topts.record_flat = opts.capture_timelines;
  telemetry::Telemetry tel(topts);
  telemetry::ScopedSession session(tel);
  telemetry::Tracer& rec = tel.tracer();
  set_log_rank(world.rank());

  // Live observability (flight recorder / heartbeat / profiler / status
  // feed). Declared after the session so its destructor — which captures
  // this rank's live trace when unwinding an abort — still sees it.
  telemetry::ScopedRankObserver obs(
      opts.observe, world.rank(), world.size(),
      layout.describe() + (opts.overlap ? " overlap" : " blocking"), days);

  const auto exchange_steps =
      static_cast<std::int64_t>(cfg.exchange_seconds / cfg.atm.dt);
  const auto total_steps = static_cast<std::int64_t>(
      std::llround(days * 86400.0 / cfg.atm.dt));
  const std::int64_t n_exchanges = total_steps / exchange_steps;
  // Quiescence audit at every coupled-day boundary (all ranks hit the same
  // exchanges, so the collective call lines up). No-op when verify is off.
  const std::int64_t exchanges_per_day = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(86400.0 /
                                                cfg.exchange_seconds)));
  const auto day_boundary_audit = [&](std::int64_t ex) {
    if ((ex + 1) % exchanges_per_day == 0) world.verify_quiescent();
  };

  // --- checkpoint/restart + fault injection ------------------------------
  const CheckpointOptions& ckpt = opts.checkpoint;
  const std::int64_t ckpt_every =
      ckpt.enabled()
          ? std::max<std::int64_t>(1, std::llround(ckpt.every_days))
          : 0;
  par::FaultPlan fault = opts.fault;

  // Resume-from-latest: all ranks agree on the day through the pointer
  // file, validate the manifest against this run's shape, then each rank
  // loads its own shard below (after its models are constructed).
  const bool resuming = ckpt.enabled() && ckpt.resume;
  std::int64_t start_day = 0;
  if (resuming) {
    start_day = ckpt_latest_day(ckpt.path_prefix);
    const std::string mpath =
        ckpt_manifest_path(ckpt.path_prefix, start_day);
    const HistoryReader manifest(mpath);
    check_config_fingerprint(manifest, cfg, "'" + mpath + "'");
    const auto stamp = [&](const char* name) {
      return static_cast<int>(manifest.find(name).data[0]);
    };
    // Manifests written before the 2-D ocean decomposition stamped only
    // the atm/ocean split; treat those as 1 x n_ocean row layouts.
    RankLayout stored =
        RankLayout::rows(stamp("ckpt.n_atm"), stamp("ckpt.n_ocean"));
    if (manifest.has("ckpt.ocean_px"))
      stored = RankLayout::grid(stamp("ckpt.n_atm"), stamp("ckpt.ocean_px"),
                                stamp("ckpt.ocean_py"));
    FOAM_REQUIRE(stamp("ckpt.world_size") == world.size() &&
                     stored == layout,
                 "'" << mpath << "' was written by a " << stored.describe()
                     << "-rank run; this run is " << layout.describe());
    FOAM_REQUIRE(
        (stamp("ckpt.overlap") != 0) == opts.overlap,
        "'" << mpath << "' was written with overlap "
            << (stamp("ckpt.overlap") != 0 ? "on" : "off")
            << "; resuming in the other mode would not reproduce the "
               "uninterrupted run");
    FOAM_REQUIRE(start_day * exchanges_per_day < n_exchanges,
                 "latest checkpoint (day " << start_day
                                           << ") is at or past the end of a "
                                           << days << "-day run");
  }
  const std::int64_t start_ex = start_day * exchanges_per_day;

  // Threads inside this rank: the rank thread plus its helpers. Helpers
  // only run the models' batched kernels; every message, span and counter
  // stays on this thread. The bits do not depend on the team size.
  const par::TeamHelpers auto_helpers =
      par::auto_team_helpers(par::usable_cpus(), n_atm, n_ocean, opts.overlap);
  const int helpers =
      opts.helpers_per_rank == ParallelRunOptions::kAutoHelpers
          ? (is_atm ? auto_helpers.atm : auto_helpers.ocean)
          : opts.helpers_per_rank;
  FOAM_REQUIRE(helpers >= 0 && helpers < par::kMaxTeamMembers,
               "helpers_per_rank=" << opts.helpers_per_rank << " (0.."
                                   << par::kMaxTeamMembers - 1
                                   << " or kAutoHelpers)");
  par::Team team(1 + helpers);
  // Helper accounting for the metrics gather and the status feed: what
  // the extra CPU bought (busy) and what the joins cost the rank thread.
  const auto publish_team = [&]() {
    tel.metrics().gauge("team.members").set(team.size());
    tel.metrics().gauge("team.helper_busy_s").set(team.helper_busy_seconds());
    tel.metrics().gauge("team.join_wait_s").set(team.join_wait_seconds());
  };

  // Heartbeat every exchange; publish the trace snapshot once per day
  // (before the resilience hook, so an injected stall or kill there is
  // observed against a fresh beat).
  const auto heartbeat = [&](std::int64_t ex) {
    if (!obs) return;
    obs->beat(static_cast<double>(ex + 1) /
              static_cast<double>(exchanges_per_day));
    if ((ex + 1) % exchanges_per_day == 0) {
      publish_team();
      obs->publish_self();
    }
  };

  // Day-boundary resilience hook, same order on every rank: the fault
  // drill first (a rank killed at day D leaves the previous checkpoint as
  // the latest restart point), then the checkpoint — per-rank crash-safe
  // shards, a barrier proving the set is complete, and only then the
  // manifest and the atomic latest-pointer update on world rank 0.
  const auto day_resilience = [&](std::int64_t ex, const auto& write_shard) {
    if ((ex + 1) % exchanges_per_day != 0) return;
    const std::int64_t day = (ex + 1) / exchanges_per_day;
    par::maybe_inject_fault(world, fault, static_cast<double>(day));
    if (ckpt_every == 0 || day % ckpt_every != 0) return;
    {
      FOAM_TRACE_SCOPE("ckpt.write");
      HistoryWriter out(ckpt_shard_path(ckpt.path_prefix, day, world.rank()));
      out.write_scalar("ckpt.day", static_cast<double>(day));
      write_config_fingerprint(out, cfg);
      write_layout_record(out, layout);
      write_shard(out);
      out.close();
      tel.metrics().counter("ckpt.writes").add();
      tel.metrics().counter("ckpt.bytes").add(out.bytes_written());
    }
    world.barrier();
    if (world.rank() == 0) {
      FOAM_TRACE_SCOPE("ckpt.manifest");
      HistoryWriter m(ckpt_manifest_path(ckpt.path_prefix, day));
      write_config_fingerprint(m, cfg);
      m.write_scalar("ckpt.day", static_cast<double>(day));
      m.write_scalar("ckpt.world_size", static_cast<double>(world.size()));
      m.write_scalar("ckpt.n_atm", static_cast<double>(n_atm));
      m.write_scalar("ckpt.n_ocean", static_cast<double>(n_ocean));
      m.write_scalar("ckpt.ocean_px", static_cast<double>(layout.ocean_px));
      m.write_scalar("ckpt.ocean_py", static_cast<double>(layout.ocean_py));
      m.write_scalar("ckpt.overlap", opts.overlap ? 1.0 : 0.0);
      m.close();
      ckpt_write_latest(ckpt.path_prefix, day);
      tel.metrics().counter("ckpt.manifests").add();
      rec.instant("ckpt.complete");
    }
  };

  par::Stopwatch wall;
  rec.reset();
  Field2Dd final_sst;  // last gathered SST, filled on the ocean ranks

  if (is_atm) {
    atm::AtmosphereModel atm(cfg.atm, sub.get());
    atm.set_team(&team);
    // A serial ocean shell provides masks/initial SST for the coupler on
    // atmosphere rank 0 (state itself lives on the ocean ranks).
    std::unique_ptr<coupler::Coupler> coupler;
    Field2D<int> omask = data::ocean_mask(ogrid);
    Field2Dd sst_o(ogrid.nlon(), ogrid.nlat(), 0.0);
    Field2Dd frazil_o(ogrid.nlon(), ogrid.nlat(), 0.0);
    if (world.rank() == 0) {
      ocean::OceanModel shell(cfg.ocean, ogrid, bathy);
      for (int j = 0; j < ogrid.nlat(); ++j)
        for (int i = 0; i < ogrid.nlon(); ++i)
          omask(i, j) = shell.levels()(i, j) > 0 ? 1 : 0;
      shell.init_climatology();
      sst_o = shell.sst();
      coupler = std::make_unique<coupler::Coupler>(atm.grid(), ogrid, omask);
    }
    atm.init_default();
    if (resuming) {
      // Each rank restores exactly the memory it checkpointed (decomposed
      // state and the installed, possibly lagged, surface), so no surface
      // broadcast is needed — or wanted: the resume must not reorder any
      // communication relative to the uninterrupted run's remainder.
      FOAM_TRACE_SCOPE("ckpt.restore");
      const std::string spath =
          ckpt_shard_path(ckpt.path_prefix, start_day, world.rank());
      const HistoryReader in(spath);
      check_config_fingerprint(in, cfg, "'" + spath + "'");
      check_layout_record(in, layout, "'" + spath + "'");
      atm.load_state(in, "foam.atm");
      atm.set_surface(read_surface(in, cfg.atm.nlon, cfg.atm.nlat));
      if (world.rank() == 0) {
        coupler->load_state(in, "foam.coupler");
        const auto load2 = [&](const std::string& name, Field2Dd& f) {
          const auto& rec2 = in.find(name);
          FOAM_REQUIRE(rec2.data.size() == f.size(),
                       "checkpoint size mismatch in " << name);
          std::copy(rec2.data.begin(), rec2.data.end(), f.vec().begin());
        };
        load2("foam.sst_o", sst_o);
        load2("foam.frazil_o", frazil_o);
      }
      tel.metrics().counter("ckpt.resumes").add();
    } else {
      // Initial surface, broadcast to all atmosphere ranks.
      atm::SurfaceFields sfc(cfg.atm.nlon, cfg.atm.nlat);
      if (world.rank() == 0) sfc = coupler->make_atm_surface(sst_o);
      for (Field2Dd* f :
           {&sfc.tsurf, &sfc.albedo, &sfc.roughness, &sfc.wetness})
        sub->bcast_bytes(f->data(), f->size() * sizeof(double), 0);
      sub->bcast_bytes(sfc.is_ocean.data(),
                       sfc.is_ocean.size() * sizeof(int), 0);
      sub->bcast_bytes(sfc.is_ice.data(), sfc.is_ice.size() * sizeof(int),
                       0);
      atm.set_surface(sfc);
    }

    // In-flight SST/frazil reply (rank 0, overlap mode): the receive is
    // posted right after the forcing send and completed just before the
    // *next* forcing computation, so the ocean call runs concurrently with
    // the next atmosphere interval.
    bool reply_pending = false;
    std::vector<double> sst_buf, frazil_buf;
    par::Request sst_req, frazil_req;
    const auto wait_reply = [&]() {
      if (!reply_pending) return;
      rec.begin_region(par::Region::kCommWait);
      {
        FOAM_TRACE_SCOPE("exchange.sst_reply_wait");
        world.wait(sst_req);
        world.wait(frazil_req);
      }
      rec.end_region();
      FOAM_REQUIRE(sst_buf.size() == sst_o.size() &&
                       frazil_buf.size() == frazil_o.size(),
                   "field size mismatch in exchange");
      sst_o.vec() = std::move(sst_buf);
      frazil_o.vec() = std::move(frazil_buf);
      reply_pending = false;
    };

    // Checkpoint shard for an atmosphere rank. Draining the in-flight
    // overlap reply first is value-neutral: wait_reply only copies the
    // already-sent buffers into sst_o/frazil_o, so a checkpointing run
    // stays bitwise identical to a non-checkpointing one — and the resumed
    // run starts with the reply applied and nothing in flight.
    const auto write_shard = [&](HistoryWriter& out) {
      if (world.rank() == 0) wait_reply();
      atm.save_state(out, "foam.atm");
      write_surface(out, atm.surface());
      if (world.rank() == 0) {
        coupler->save_state(out, "foam.coupler");
        out.write("foam.sst_o", sst_o);
        out.write("foam.frazil_o", frazil_o);
      }
    };

    ModelTime now(start_ex * exchange_steps *
                  static_cast<std::int64_t>(cfg.atm.dt));
    double atm_cpu = 0.0;
    // One exchange per iteration, in program order: atmosphere interval,
    // flux reduction, SST-reply wait, land step, forcing exchange, surface
    // broadcast, then the day-boundary hooks.
    for (std::int64_t ex = start_ex; ex < n_exchanges; ++ex) {
      const double cpu0 = par::thread_cpu_now();
      for (std::int64_t s = 0; s < exchange_steps; ++s) {
        rec.begin_region(par::Region::kAtmosphere);
        atm.step(now);
        now.advance(static_cast<std::int64_t>(cfg.atm.dt));
        rec.end_region();
      }
      atm_cpu += par::thread_cpu_now() - cpu0;

      // Gather this interval's accumulated fluxes to atm rank 0.
      rec.begin_region(par::Region::kCoupler);
      const int steps = std::max(1, atm.accumulated_steps());
      atm::FluxFields mean = atm.accumulated_fluxes();
      {
        FOAM_TRACE_SCOPE("exchange.flux_reduce");
        const double inv = 1.0 / steps;
        for (Field2Dd* f : {&mean.sw_sfc, &mean.lw_down, &mean.sensible,
                            &mean.latent, &mean.evaporation, &mean.rain,
                            &mean.snow, &mean.taux, &mean.tauy}) {
          *f *= inv;
          // Reduce the row-decomposed accumulations to rank 0 (each rank
          // contributed only its rows; others are zero).
          std::vector<double> out(f->size());
          sub->reduce(std::span<const double>(f->data(), f->size()),
                      std::span<double>(out), par::ReduceOp::kSum, 0);
          if (sub->rank() == 0) std::copy(out.begin(), out.end(), f->data());
        }
      }
      rec.end_region();

      if (world.rank() == 0) {
        // The forcing uses the newest SST the ocean has delivered: with
        // overlap on, that is the reply launched at the previous exchange,
        // completed here — by now usually already arrived, so the wait is
        // short (the whole point of the overlap).
        wait_reply();

        // Land / river / ice substrate under the freshly reduced fluxes.
        rec.begin_region(par::Region::kCoupler);
        coupler->step_land(mean, cfg.exchange_seconds);
        rec.end_region();

        // Forcing legs: compute, ship to the ocean lead, then either post
        // the nonblocking SST-reply receive (overlap) or sit out the whole
        // ocean call (blocking).
        rec.begin_region(par::Region::kCoupler);
        const auto forcing = coupler->make_ocean_forcing(
            mean, sst_o, frazil_o, cfg.exchange_seconds);
        {
          // Ship forcing to the ocean lead rank (buffered sends).
          FOAM_TRACE_SCOPE("exchange.forcing_send");
          send_field(world, n_atm, forcing.taux);
          send_field(world, n_atm, forcing.tauy);
          send_field(world, n_atm, forcing.qnet);
          send_field(world, n_atm, forcing.fw);
          send_field(world, n_atm, coupler->ice_fraction_o());
        }
        rec.end_region();
        if (opts.overlap) {
          sst_req = world.irecv_vec(n_atm, kTagForcing, sst_buf);
          frazil_req = world.irecv_vec(n_atm, kTagForcing, frazil_buf);
          reply_pending = true;
        } else {
          // Blocking exchange: sit out the whole ocean call here.
          rec.begin_region(par::Region::kCommWait);
          recv_field(world, n_atm, sst_o);
          recv_field(world, n_atm, frazil_o);
          rec.end_region();
        }
      }

      rec.begin_region(world.rank() == 0 ? par::Region::kCoupler
                                         : par::Region::kIdle);
      {
        FOAM_TRACE_SCOPE("exchange.surface_bcast");
        atm::SurfaceFields sfc(cfg.atm.nlon, cfg.atm.nlat);
        if (world.rank() == 0) sfc = coupler->make_atm_surface(sst_o);
        // Broadcast the new surface over the atmosphere ranks (non-root
        // ranks are effectively waiting here).
        for (Field2Dd* f :
             {&sfc.tsurf, &sfc.albedo, &sfc.roughness, &sfc.wetness})
          sub->bcast_bytes(f->data(), f->size() * sizeof(double), 0);
        sub->bcast_bytes(sfc.is_ocean.data(),
                         sfc.is_ocean.size() * sizeof(int), 0);
        sub->bcast_bytes(sfc.is_ice.data(), sfc.is_ice.size() * sizeof(int),
                         0);
        atm.set_surface(sfc);
        atm.reset_flux_accumulation();
      }
      rec.end_region();

      day_boundary_audit(ex);
      heartbeat(ex);
      day_resilience(ex, write_shard);
    }
    // Drain the reply still in flight after the last interval so the
    // ocean's sends are all consumed before the timeline gather.
    if (world.rank() == 0) wait_reply();
    tel.metrics().gauge("driver.atm_cpu_seconds").set(atm_cpu);
  } else {
    // Ocean ranks: the ocean sub-communicator decomposes over the layout's
    // px * py rank grid (px = 1 is the historic row decomposition).
    ocean::OceanModel ocn(cfg.ocean, ogrid, bathy, sub.get(),
                          layout.ocean_px);
    ocn.set_team(&team);
    ocn.init_climatology();
    if (resuming) {
      FOAM_TRACE_SCOPE("ckpt.restore");
      const std::string spath =
          ckpt_shard_path(ckpt.path_prefix, start_day, world.rank());
      const HistoryReader in(spath);
      check_config_fingerprint(in, cfg, "'" + spath + "'");
      check_layout_record(in, layout, "'" + spath + "'");
      ocn.load_state(in, "foam.ocean");
      tel.metrics().counter("ckpt.resumes").add();
    }
    // A shard holds this rank's full-size arrays (owned rows valid), so a
    // restore reproduces the rank's exact memory, decomposition included.
    const auto write_shard = [&](HistoryWriter& out) {
      ocn.save_state(out, "foam.ocean");
    };
    Field2Dd taux(ogrid.nlon(), ogrid.nlat(), 0.0), tauy(taux), qnet(taux),
        fw(taux), icef(taux);
    ocean::OceanForcing forcing;
    forcing.wind_x = &taux;
    forcing.wind_y = &tauy;
    forcing.heat = &qnet;
    forcing.freshwater = &fw;
    forcing.ice = &icef;
    double ocean_cpu = 0.0;
    for (std::int64_t ex = start_ex; ex < n_exchanges; ++ex) {
      // Forcing from atm rank 0 to the ocean lead.
      rec.begin_region(par::Region::kCommWait);
      if (sub->rank() == 0 && world.rank() == n_atm) {
        FOAM_TRACE_SCOPE("exchange.forcing_recv");
        recv_field(world, 0, taux);
        recv_field(world, 0, tauy);
        recv_field(world, 0, qnet);
        recv_field(world, 0, fw);
        recv_field(world, 0, icef);
      }
      rec.end_region();

      // Share forcing across ocean ranks.
      rec.begin_region(par::Region::kIdle);
      for (Field2Dd* f : {&taux, &tauy, &qnet, &fw, &icef})
        sub->bcast_bytes(f->data(), f->size() * sizeof(double), 0);
      rec.end_region();

      // Ocean step (momentum/tracer subcycles + halo exchanges inside).
      rec.begin_region(par::Region::kOcean);
      double cpu0 = par::thread_cpu_now();
      ocn.set_forcing(forcing);
      ocn.run_days(cfg.exchange_seconds * cfg.ocean_accel / 86400.0);
      ocean_cpu += par::thread_cpu_now() - cpu0;
      rec.end_region();

      // Gather SST/frazil to the ocean lead and ship the reply to atm
      // rank 0 by ownership handoff.
      rec.begin_region(par::Region::kOcean);
      cpu0 = par::thread_cpu_now();
      Field2Dd sst = ocn.gather(ocn.sst());
      Field2Dd frazil = ocn.gather(ocn.drain_frazil());
      if (world.rank() == n_atm) {
        // The gathered grids leave by ownership handoff (no copy either
        // side) — but final_sst, the layout-independence observable, must
        // be kept from the last exchange before its buffer goes.
        if (ex + 1 == n_exchanges) final_sst = sst;
        world.isend_move(0, kTagForcing, std::move(sst.vec()));
        world.isend_move(0, kTagForcing, std::move(frazil.vec()));
      } else if (ex + 1 == n_exchanges) {
        final_sst = std::move(sst);
      }
      ocean_cpu += par::thread_cpu_now() - cpu0;
      rec.end_region();

      day_boundary_audit(ex);
      heartbeat(ex);
      day_resilience(ex, write_shard);
    }
    tel.metrics().gauge("driver.ocean_cpu_seconds").set(ocean_cpu);
  }

  // This rank's loop is done: final snapshot publish + watchdog opt-out
  // before the potentially-blocking final audit.
  publish_team();
  if (obs) obs->finish_rank();

  // Final drain audit: by run end every message ever sent must have been
  // received and every request completed (collective; no-op when off).
  world.verify_quiescent();

  // Surface ring-buffer drops instead of silently truncating traces; the
  // counter lands in the metric gather below so drivers and tests see it.
  if (const std::uint64_t dropped_spans = rec.dropped(); dropped_spans > 0) {
    tel.metrics().counter("telemetry.dropped_spans").add(dropped_spans);
    FOAM_LOG_WARN << "telemetry: span ring dropped " << dropped_spans
                  << " span(s) on rank " << world.rank()
                  << "; oldest spans are missing from the trace (raise "
                     "TelemetryOptions::max_spans)";
  }

  ParallelRunResult result;
  result.wall_seconds = wall.seconds();
  result.simulated_seconds =
      static_cast<double>(n_exchanges - start_ex) * cfg.exchange_seconds;
  result.verify_findings =
      world.verifier().enabled()
          ? static_cast<std::int64_t>(world.verifier().finding_count())
          : -1;
  result.final_sst = std::move(final_sst);

  // Gather the per-rank telemetry to every rank: flat timelines (Fig. 2),
  // hierarchical traces (kFull), and metric samples. Each stream is
  // validated on decode — the bytes crossed rank boundaries.
  if (opts.capture_timelines) {
    const auto streams = allgather_streams(world, rec.flat().serialize());
    result.timelines.resize(world.size());
    for (int r = 0; r < world.size(); ++r)
      result.timelines[r] = par::ActivityRecorder::deserialize(
          streams[r].data(), streams[r].size());
  }
  if (topts.level == telemetry::TraceLevel::kFull) {
    const auto streams =
        allgather_streams(world, telemetry::serialize_trace(rec.trace()));
    result.traces.resize(world.size());
    for (int r = 0; r < world.size(); ++r)
      result.traces[r] = telemetry::deserialize_trace(streams[r].data(),
                                                      streams[r].size());
  }
  if (topts.level != telemetry::TraceLevel::kOff) {
    const auto streams =
        allgather_streams(world, telemetry::serialize_samples(tel.snapshot()));
    result.metrics.resize(world.size());
    for (int r = 0; r < world.size(); ++r)
      result.metrics[r] = telemetry::deserialize_samples(streams[r].data(),
                                                         streams[r].size());
  }

  if (obs && opts.observe.profile) {
    // Every rank has published its final snapshot (finish_rank above), so
    // the sample words resolve against complete name tables.
    world.barrier();
    result.profile = obs->profile_snapshot();
    result.profile_interval_seconds = obs->profile_effective_interval();
  }
  if (obs && world.rank() == 0)
    obs->finish_run(static_cast<double>(n_exchanges) /
                    static_cast<double>(exchanges_per_day));
  return result;
}

}  // namespace foam
