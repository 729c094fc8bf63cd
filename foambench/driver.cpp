// foambench driver: runs one benchmark workload through the public FOAM API
// and prints its raw measurements as one JSON object on the last line of
// stdout. run.py builds this program, pins the environment, calls it, checks
// the outputs and turns the measurements into BENCHMARK.json metrics.
//
//   foambench_driver run     <workload> <co2_factor> <seconds> <workdir>
//   foambench_driver trace   <workload> <co2_factor> <workdir>
//   foambench_driver witness
//
// `run` measures set-up (median of several), then repeats the workload's
// fixed-length run untraced until `seconds` are used; on the checkpoint
// workload repetitions alternate with resumes of the next day from a
// repetition's last shards. `trace` makes one untraced and one traced run and
// reduces the trace to per-layer costs per simulated day. `witness` times a
// fixed compute loop and a memory stream, so a run slowed by the host can be
// told apart from a slow program. A run that throws still prints its JSON
// object, with "errored" set.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "foam/checkpoint.hpp"
#include "foam/coupled.hpp"
#include "telemetry/telemetry.hpp"

using namespace foam;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool parallel;
  RankLayout layout;
  bool overlap;
  bool checkpoint;
};

/// Simulated days of one timed repetition. With checkpoints the repetition
/// ends with one, and each resume restores it and simulates one more day.
constexpr int kRepDays = 1;

/// Simulated days of the traced run: long enough that the final overlapped
/// reply is a small part of the atmosphere rank's time.
constexpr int kTraceDays = 2;

// Full-core emulation depth for the parallel workload: at 80 transforms per
// level the atmosphere interval (~5.5 s per simulated day) clearly exceeds
// the single ocean rank's step (~4.4 s), so the overlapped workload is
// atmosphere-bound instead of a max-of-two race.
constexpr int kEmulatedTransforms = 80;

const Workload kWorkloads[] = {
    {"serial_paper", false, RankLayout::grid(1, 1, 1), false, false},
    {"fullcore_1p1_overlap_ckpt", true, RankLayout::grid(1, 1, 1), true, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

FoamConfig make_config(const Workload& w, double co2_factor) {
  FoamConfig cfg = FoamConfig::paper_default();
  cfg.atm.co2_factor = co2_factor;
  if (w.parallel) {
    cfg.atm.emulate_full_core_cost = true;
    cfg.atm.emulate_transforms_per_level = kEmulatedTransforms;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Clocks and small helpers
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set size of this process since the last
/// reset_peak_rss() [MiB]: VmHWM from /proc/self/status, or the lifetime
/// ru_maxrss where procfs is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Return freed heap to the system, then restart the peak-RSS high-water
/// mark at the current RSS, so that each timed repetition reports its own
/// peak. Without the trim, memory that glibc's per-thread arenas kept from
/// earlier calls (set-up runs, a resume) would set the baseline.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over the raw bytes of the field: the bitwise-determinism digest.
std::string digest(const Field2Dd& f) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(f.data());
  for (std::size_t n = 0; n < f.size() * sizeof(double); ++n) {
    h ^= p[n];
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct SstCheck {
  bool finite = true;
  double ocean_mean = 0.0;
  std::string digest;
};

/// Land cells hold exactly 0 in the SST field, so the ocean mean is taken
/// over the non-zero cells.
SstCheck check_sst(const Field2Dd& sst) {
  SstCheck c;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < sst.size(); ++k) {
    const double v = sst.data()[k];
    if (!std::isfinite(v)) c.finite = false;
    if (v != 0.0) {
      sum += v;
      ++n;
    }
  }
  c.ocean_mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
  c.digest = digest(sst);
  return c;
}

bool bitwise_equal(const Field2Dd& a, const Field2Dd& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Minimal JSON object writer (numbers, strings, nested objects).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& arr(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& strs(const std::string& k, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? ", \"" : "\"") + v[i] + "\"";
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

/// The scheduler / transport the program resolves with the environment the
/// caller pinned. Detected at configure time, so the benchmark keeps building
/// if either knob is retired.
std::string resolved_scheduler() {
#ifdef FOAMBENCH_HAS_SCHEDULER_NAME
  return scheduler_name(ParallelRunOptions{}.scheduler);
#else
  return "n/a";
#endif
}

std::string resolved_transport() {
#ifdef FOAMBENCH_HAS_TRANSPORT_NAME
  return par::comm_transport_name(par::comm_transport());
#else
  return "n/a";
#endif
}

// ---------------------------------------------------------------------------
// One call into the program
// ---------------------------------------------------------------------------

struct CallResult {
  double wall = 0.0;       // benchmark-measured wall seconds of the call
  double cpu = 0.0;        // process user+sys CPU seconds of the call
  double simulated = 0.0;  // simulated seconds
  Field2Dd sst;            // final SST (empty for set-up calls)
  ParallelRunResult par;   // rank-0 result of a parallel call
};

ParallelRunOptions parallel_options(const Workload& w,
                                    const std::string& ckpt_prefix,
                                    bool resume, bool traced) {
  ParallelRunOptions o;
  o.layout = w.layout;
  o.overlap = w.overlap;
  if (traced) {
    o.telemetry.level = telemetry::TraceLevel::kFull;
    o.telemetry.max_spans = std::size_t{1} << 22;
  }
  if (w.checkpoint) {
    o.checkpoint.path_prefix = ckpt_prefix;
    o.checkpoint.every_days = 1.0;
    o.checkpoint.resume = resume;
  }
  return o;
}

CallResult call_parallel(const Workload& w, const FoamConfig& cfg, double days,
                         const ParallelRunOptions& opts) {
  CallResult out;
  Field2Dd sst;
  ParallelRunResult lead;
  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  par::run(w.layout.world_size(), [&](par::Comm& comm) {
    ParallelRunResult res = run_coupled_parallel(comm, opts, cfg, days);
    if (comm.rank() == w.layout.atm_ranks) sst = res.final_sst;
    if (comm.rank() == 0) lead = std::move(res);
  });
  out.wall = wall_now() - t0;
  out.cpu = process_cpu_now() - cpu0;
  out.simulated = lead.simulated_seconds;
  out.sst = std::move(sst);
  out.par = std::move(lead);
  return out;
}

/// Serial run: the constructor is set-up, the timed call is run_days. With a
/// tracer, the benchmark wraps each simulated day in its own span.
CallResult call_serial(const FoamConfig& cfg, int days,
                       telemetry::Tracer* tracer = nullptr,
                       double* ocean_points = nullptr) {
  CoupledFoam model(cfg);
  CallResult out;
  const double cpu0 = process_cpu_now();
  const double t0 = wall_now();
  for (int d = 0; d < days; ++d) {
    if (tracer != nullptr) tracer->begin_span("bench.run_day");
    model.run_days(1.0);
    if (tracer != nullptr) tracer->end_span();
  }
  out.wall = wall_now() - t0;
  out.cpu = process_cpu_now() - cpu0;
  out.simulated = static_cast<double>(days) * 86400.0;
  out.sst = model.sst();
  if (ocean_points != nullptr) *ocean_points = model.ocean_model().work_points();
  return out;
}

/// One set-up sample. The heap is trimmed first, so that every sample pays
/// for fresh pages as a newly launched run does, wherever in the run it is
/// taken (memory a just-finished call freed would otherwise make it faster).
double setup_once(const Workload& w, const FoamConfig& cfg,
                  const std::string& ckpt_prefix) {
  malloc_trim(0);
  if (!w.parallel) {
    const double t0 = wall_now();
    { const CoupledFoam model(cfg); }
    return wall_now() - t0;
  }
  return call_parallel(w, cfg, 0.0,
                       parallel_options(w, ckpt_prefix, false, false))
      .wall;
}

CallResult measured_run(const Workload& w, const FoamConfig& cfg,
                        const std::string& ckpt_prefix, int days) {
  if (!w.parallel) return call_serial(cfg, days);
  return call_parallel(w, cfg, days,
                       parallel_options(w, ckpt_prefix, false, false));
}

int exchanges_of(const FoamConfig& cfg, double days) {
  return static_cast<int>(std::llround(days * 86400.0 / cfg.exchange_seconds));
}

// ---------------------------------------------------------------------------
// `run`: the untraced end-to-end measurement
// ---------------------------------------------------------------------------

/// Set-up samples taken before the first timed call, and before every
/// timed call after it: spread over the run, the median of set-up sees the
/// same host conditions as the calls it precedes.
constexpr int kSetupSamples = 5;
constexpr int kSetupSamplesPerCall = 2;

/// An exception's message, made safe to embed in a JSON string.
std::string json_safe(std::string msg) {
  for (char& ch : msg)
    if (ch == '"' || ch == '\\' || ch == '\n' || ch == '\r') ch = ' ';
  return msg;
}

int cmd_run(const Workload& w, double co2, double seconds,
            const std::string& workdir) {
  const FoamConfig cfg = make_config(w, co2);
  const std::string prefix = workdir + "/ckpt";

  std::vector<double> setup, speedup, cpu_per_day, wall, peak_rss, resume;
  std::vector<std::string> digests, resume_digests;
  std::vector<double> means;
  bool finite = true, errored = false;
  int attempted = 0;
  std::string error;

  try {
    fs::create_directories(workdir);
    for (int i = 0; i < kSetupSamples; ++i)
      setup.push_back(setup_once(w, cfg, prefix));

    // Repeat the fixed-length run while another call still fits in the time
    // budget. With checkpoints, repetitions and resumes alternate call by
    // call, and the budget is checked before each call against the median
    // cost of that kind (its set-up samples included), so a run ends with
    // whichever call no longer fits (at least one of each).
    const double t_start = wall_now();
    std::vector<double> rep_cost, resume_cost;
    bool resume_next = false;
    for (;;) {
      const double c0 = wall_now();
      for (int i = 0; i < kSetupSamplesPerCall; ++i)
        setup.push_back(setup_once(w, cfg, prefix));
      if (!resume_next) {
        attempted += exchanges_of(cfg, kRepDays);
        reset_peak_rss();
        const CallResult r = measured_run(w, cfg, prefix, kRepDays);
        const SstCheck c = check_sst(r.sst);
        finite = finite && c.finite && r.sst.size() > 0;
        digests.push_back(c.digest);
        means.push_back(c.ocean_mean);
        wall.push_back(r.wall);
        speedup.push_back(r.simulated / r.wall);
        cpu_per_day.push_back(r.cpu / (r.simulated / 86400.0));
        peak_rss.push_back(peak_rss_mb());
        rep_cost.push_back(wall_now() - c0);
      } else {
        // A crash during the next day: the newest complete checkpoint is the
        // one every repetition writes at its end. Point `latest` at it,
        // restore it and simulate the lost day.
        ckpt_write_latest(prefix, kRepDays);
        attempted += exchanges_of(cfg, 1.0);
        const CallResult r = call_parallel(
            w, cfg, kRepDays + 1.0, parallel_options(w, prefix, true, false));
        const SstCheck rc = check_sst(r.sst);
        finite = finite && rc.finite && r.sst.size() > 0;
        resume_digests.push_back(rc.digest);
        resume.push_back(r.wall);
        resume_cost.push_back(wall_now() - c0);
      }
      resume_next = w.checkpoint && !resume_next;
      const bool sampled_both = !w.checkpoint || !resume.empty();
      const double next = median(resume_next ? resume_cost : rep_cost);
      if (sampled_both && wall_now() - t_start + next > seconds) break;
    }

    if (!w.checkpoint) {
      // Without checkpoints a crash in the last day loses the whole run:
      // recovering means building and simulating it again from the start
      // (the parallel call's wall time already includes its set-up). This
      // restates speedup_x (and setup_s); it is not a measurement of its own.
      resume.push_back(median(wall) + (w.parallel ? 0.0 : median(setup)));
    }
  } catch (const std::exception& e) {
    // run.py fails every attempted exchange of a run that threw; during
    // set-up that is the repetition the throw prevented.
    errored = true;
    error = json_safe(e.what());
    attempted = std::max(attempted, exchanges_of(cfg, kRepDays));
  }

  Json j;
  j.str("workload", w.name)
      .num("co2_factor", co2)
      .num("threads", w.parallel ? w.layout.world_size() : 1)
      .num("days_per_rep", kRepDays)
      .arr("setup_s", setup)
      .arr("wall_s", wall)
      .arr("speedup_x", speedup)
      .arr("cpu_s_per_sim_day", cpu_per_day)
      .arr("ocean_mean_sst", means)
      .arr("resume_s", resume)
      .boolean("resume_measured", w.checkpoint)
      .boolean("sst_finite", finite)
      .boolean("errored", errored)
      .str("error", error)
      .num("attempted", attempted)
      .str("scheduler", resolved_scheduler())
      .str("transport", resolved_transport())
      .strs("sst_digests", digests)
      .strs("resume_digests", resume_digests)
      .arr("peak_rss_mb", peak_rss);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `trace`: per-layer costs from a separate traced run
// ---------------------------------------------------------------------------

/// Per-span-name self time (duration minus the part covered by direct
/// children) and counts for one rank's trace. Spans arrive in completion
/// order and nest properly on a rank thread, so the children of a depth-d
/// span are exactly the depth-(d+1) spans completed since the previous
/// depth-d completion.
struct SelfTimes {
  std::map<std::string, double> self;
  std::map<std::string, double> count;
  std::vector<double> depth_total;  // summed duration per depth

  double of(const std::string& name) const {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  }
  double prefixed(const std::string& prefix, const std::string& except = "")
      const {
    double s = 0.0;
    for (const auto& [name, v] : self)
      if (name.rfind(prefix, 0) == 0 && name != except) s += v;
    return s;
  }
  double depth(std::size_t d) const {
    return d < depth_total.size() ? depth_total[d] : 0.0;
  }
};

SelfTimes self_times(const telemetry::RankTrace& t) {
  SelfTimes out;
  std::vector<double> child;
  for (const telemetry::SpanRec& s : t.spans) {
    const auto d = static_cast<std::size_t>(s.depth);
    if (child.size() < d + 2) child.resize(d + 2, 0.0);
    if (out.depth_total.size() < d + 1) out.depth_total.resize(d + 1, 0.0);
    const double dur = s.t1 - s.t0;
    const std::string& name = t.names[static_cast<std::size_t>(s.name_id)];
    out.self[name] += dur - child[d + 1];
    out.count[name] += 1.0;
    child[d + 1] = 0.0;
    child[d] += dur;
    out.depth_total[d] += dur;
  }
  return out;
}

double spectral_self(const SelfTimes& s) {
  return s.prefixed("spectral.", "spectral.allreduce") + s.of("legendre_fold");
}
double atm_self(const SelfTimes& s) {
  return s.prefixed("atm.") + spectral_self(s);
}
double ocean_self(const SelfTimes& s) {
  return s.of("ocean.baroclinic") + s.of("ocean.barotropic") +
         s.of("ocean.tracer");
}

using Samples = std::vector<std::pair<std::string, double>>;

double sample(const Samples& m, const std::string& name) {
  double v = 0.0;
  for (const auto& [k, x] : m)
    if (k == name) v = x;
  return v;
}
double sample_prefixed(const Samples& m, const std::string& prefix) {
  double v = 0.0;
  for (const auto& [k, x] : m)
    if (k.rfind(prefix, 0) == 0) v += x;
  return v;
}

/// The numerics / atm / ocean / coupler rows, from the busiest atmosphere
/// rank (\p atm, its counters \p atm_m), the busiest ocean rank (\p ocn) and
/// the lead atmosphere rank that runs the coupler (\p lead, \p lead_m). The
/// serial workload passes its one thread for all three.
template <class PerDay>
void layer_metrics(const SelfTimes& atm, const SelfTimes& ocn,
                   const SelfTimes& lead, const Samples& atm_m,
                   const Samples& lead_m, const PerDay& per_day,
                   std::map<std::string, double>& m) {
  m["numerics.spectral_s"] = per_day(spectral_self(atm));
  m["numerics.spectral_batches"] =
      per_day(sample(atm_m, "spectral.batch_fields.count"));
  m["numerics.spectral_rows"] = per_day(sample(atm_m, "spectral.plan_rows"));
  m["atm.physics_s"] = per_day(atm.of("atm.physics"));
  m["atm.advect_s"] = per_day(atm.of("atm.advect"));
  m["atm.dynamics_s"] = per_day(atm.of("atm.dynamics"));
  const auto steps = atm.count.find("atm.step");
  m["atm.steps"] = per_day(steps == atm.count.end() ? 0.0 : steps->second);
  m["ocean.baroclinic_s"] = per_day(ocn.of("ocean.baroclinic"));
  m["ocean.barotropic_s"] = per_day(ocn.of("ocean.barotropic"));
  m["ocean.tracer_s"] = per_day(ocn.of("ocean.tracer"));
  m["coupler.forcing_s"] = per_day(lead.of("coupler.forcing"));
  m["coupler.surface_s"] = per_day(lead.of("coupler.surface"));
  m["coupler.land_s"] = per_day(lead.of("coupler.land"));
  m["river.route_s"] = per_day(lead.of("river.route"));
  m["coupler.overlap_cells"] =
      per_day(sample(lead_m, "coupler.overlap_cells_averaged"));
}

/// Ocean grid-point updates per simulated day for this configuration, read
/// from a serial model after one coupling interval (the count does not
/// depend on the state or on the rank layout).
double ocean_points_per_day(FoamConfig cfg) {
  cfg.atm.emulate_full_core_cost = false;
  CoupledFoam model(cfg);
  const auto steps =
      static_cast<int>(std::llround(cfg.exchange_seconds / cfg.atm.dt));
  for (int s = 0; s < steps; ++s) model.step();
  return model.ocean_model().work_points() * 86400.0 / cfg.exchange_seconds;
}

/// Per-layer metrics of the traced run (README.md defines each). Also sets
/// \p sst from the traced run's final SST and, on the checkpoint workload,
/// \p resume_bitwise from the traced resume.
std::map<std::string, double> trace_layers(const Workload& w,
                                           const FoamConfig& cfg,
                                           const std::string& prefix,
                                           SstCheck& sst,
                                           bool& resume_bitwise) {
  const double days = kTraceDays;

  // The benchmark's own spans around every call it makes.
  telemetry::TelemetryOptions bopts;
  bopts.level = telemetry::TraceLevel::kFull;
  bopts.max_spans = std::size_t{1} << 22;
  telemetry::Telemetry bench_tel(bopts);
  telemetry::ScopedSession session(bench_tel);
  telemetry::Tracer& bt = bench_tel.tracer();
  bt.reset();

  std::map<std::string, double> m;
  const auto per_day = [&](double v) { return v / days; };

  // Untraced reference run (for the tracing overhead).
  double untraced_speedup = 0.0;
  {
    telemetry::TelemetryOptions off;
    off.level = telemetry::TraceLevel::kOff;
    telemetry::Telemetry quiet(off);
    telemetry::ScopedSession s(quiet);
    const CallResult r = measured_run(w, cfg, prefix, kTraceDays);
    untraced_speedup = r.simulated / r.wall;
  }

  double traced_speedup = 0.0, wall = 0.0, coverage = 0.0, dropped = 0.0;
  double ocean_points = 0.0, ocean_busy_all = 0.0;
  if (!w.parallel) {
    bt.begin_span("bench.run");
    const CallResult r = call_serial(cfg, kTraceDays, &bt, &ocean_points);
    bt.end_span();
    sst = check_sst(r.sst);
    traced_speedup = r.simulated / r.wall;
    wall = r.wall;
    const telemetry::RankTrace tr = bt.trace();
    dropped = static_cast<double>(tr.dropped);
    const SelfTimes s = self_times(tr);
    const Samples smp = bench_tel.snapshot();
    // Critical path = the one thread; the program's own spans sit directly
    // under the benchmark's bench.run / bench.run_day spans (depth 2).
    coverage = s.depth(2) / wall;
    layer_metrics(s, s, s, smp, smp, per_day, m);
    ocean_busy_all = ocean_self(s);
    ocean_points /= days;
  } else {
    bt.begin_span("bench.run");
    CallResult r = call_parallel(w, cfg, days,
                                 parallel_options(w, prefix, false, true));
    bt.end_span();
    sst = check_sst(r.sst);
    traced_speedup = r.simulated / r.wall;
    wall = r.wall;
    const ParallelRunResult& res = r.par;
    const int n_atm = w.layout.atm_ranks;
    const int world = w.layout.world_size();
    std::vector<SelfTimes> ranks;
    for (int k = 0; k < world; ++k) {
      ranks.push_back(self_times(res.traces[static_cast<std::size_t>(k)]));
      dropped += static_cast<double>(res.traces[static_cast<std::size_t>(k)].dropped);
    }
    // Busiest rank of each role.
    int atm_r = 0, ocn_r = n_atm;
    for (int k = 0; k < n_atm; ++k)
      if (atm_self(ranks[k]) > atm_self(ranks[atm_r])) atm_r = k;
    for (int k = n_atm; k < world; ++k) {
      if (ocean_self(ranks[k]) > ocean_self(ranks[ocn_r])) ocn_r = k;
      ocean_busy_all += ocean_self(ranks[k]);
    }
    const SelfTimes& a = ranks[atm_r];
    const SelfTimes& o = ranks[ocn_r];
    const Samples& am = res.metrics[static_cast<std::size_t>(atm_r)];
    const Samples& lead = res.metrics[0];
    const SelfTimes& r0 = ranks[0];
    // The lead atmosphere rank drives every exchange: its region spans
    // (depth 0) are the critical path in both exchange modes.
    coverage = r0.depth(0) / res.wall_seconds;
    const auto max_over = [&](auto&& f) {
      double v = 0.0;
      for (int k = 0; k < world; ++k) v = std::max(v, f(k));
      return v;
    };
    const auto smp = [&](int k, const std::string& name) {
      return sample(res.metrics[static_cast<std::size_t>(k)], name);
    };
    layer_metrics(a, o, r0, am, lead, per_day, m);
    m["par.wait_s"] = per_day(sample(lead, "comm.wait_seconds.sum"));
    m["par.sst_reply_wait_s"] = per_day(r0.of("exchange.sst_reply_wait"));
    m["par.forcing_recv_wait_s"] =
        per_day(ranks[n_atm].of("exchange.forcing_recv"));
    m["par.allreduce_s"] = per_day(a.of("spectral.allreduce"));
    m["par.flux_reduce_s"] = per_day(r0.of("exchange.flux_reduce"));
    m["par.surface_bcast_s"] = per_day(r0.of("exchange.surface_bcast"));
    m["par.bytes_sent"] = per_day(max_over(
        [&](int k) { return sample_prefixed(res.metrics[k], "comm.sent.bytes"); }));
    m["par.msgs_sent"] = per_day(max_over(
        [&](int k) { return sample_prefixed(res.metrics[k], "comm.sent.msgs"); }));
    m["par.payload_memcpy_bytes"] = per_day(
        max_over([&](int k) { return smp(k, "comm.payload_memcpy_bytes"); }));
    m["par.zero_copy_handoffs"] = per_day(
        max_over([&](int k) { return smp(k, "comm.zero_copy_handoffs"); }));
    if (w.checkpoint) {
      m["ckpt.write_s"] =
          per_day(max_over([&](int k) { return ranks[k].of("ckpt.write"); }));
      m["ckpt.publish_s"] =
          per_day(r0.of("ckpt.manifest") + r0.of("ckpt.publish_wait"));
      // Bytes on disk for one day's checkpoint: every shard plus the
      // manifest, read with stat after the run.
      double bytes = 0.0;
      for (int k = 0; k < world; ++k)
        bytes += static_cast<double>(fs::file_size(ckpt_shard_path(prefix, 1, k)));
      bytes += static_cast<double>(fs::file_size(ckpt_manifest_path(prefix, 1)));
      m["ckpt.bytes"] = bytes;
      // Traced resume of the last day.
      ckpt_write_latest(prefix, kTraceDays - 1);
      bt.begin_span("bench.resume");
      const CallResult rr = call_parallel(
          w, cfg, days, parallel_options(w, prefix, true, true));
      bt.end_span();
      resume_bitwise = bitwise_equal(rr.sst, r.sst);
      double restore = 0.0;
      for (int k = 0; k < world; ++k)
        restore = std::max(restore, self_times(rr.par.traces[k]).of("ckpt.restore"));
      m["ckpt.restore_s"] = restore;
    }
    bt.begin_span("bench.ocean_points");
    ocean_points = ocean_points_per_day(cfg);
    bt.end_span();
  }
  for (const char* k : {"ckpt.write_s", "ckpt.bytes", "ckpt.restore_s",
                        "ckpt.publish_s", "par.wait_s", "par.sst_reply_wait_s",
                        "par.forcing_recv_wait_s", "par.allreduce_s",
                        "par.flux_reduce_s", "par.surface_bcast_s",
                        "par.bytes_sent", "par.msgs_sent",
                        "par.payload_memcpy_bytes", "par.zero_copy_handoffs"})
    m.emplace(k, 0.0);
  m["ocean.work_points"] = ocean_points;
  m["ocean.points_per_s"] =
      ocean_busy_all > 0.0 ? ocean_points / per_day(ocean_busy_all) : 0.0;
  m["trace.overhead_frac"] = untraced_speedup / traced_speedup - 1.0;
  m["trace.coverage_frac"] = coverage;
  m["trace.dropped_spans"] = dropped;
  m["trace.wall_s_per_day"] = per_day(wall);
  return m;
}

int cmd_trace(const Workload& w, double co2, const std::string& workdir) {
  const FoamConfig cfg = make_config(w, co2);
  // Untraced run, traced run and, with checkpoints, the traced resume.
  const int attempted = exchanges_of(
      cfg, w.checkpoint ? 2 * kTraceDays + 1 : 2 * kTraceDays);
  std::map<std::string, double> m;
  SstCheck sst;
  bool resume_bitwise = true, errored = false;
  std::string error;
  try {
    fs::create_directories(workdir);
    m = trace_layers(w, cfg, workdir + "/ckpt", sst, resume_bitwise);
  } catch (const std::exception& e) {
    errored = true;
    error = json_safe(e.what());
  }

  Json metrics;
  for (const auto& [k, v] : m) metrics.num(k, v);
  Json j;
  j.str("workload", w.name)
      .num("co2_factor", co2)
      .num("threads", w.parallel ? w.layout.world_size() : 1)
      .num("days", kTraceDays)
      .num("attempted", attempted)
      .boolean("errored", errored)
      .str("error", error)
      .boolean("sst_finite", sst.finite)
      .num("ocean_mean_sst", sst.ocean_mean)
      .str("sst_digest", sst.digest)
      .boolean("resume_bitwise", resume_bitwise)
      .str("scheduler", resolved_scheduler())
      .str("transport", resolved_transport())
      .obj("per_layer", metrics);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `witness`: host-noise reference loops
// ---------------------------------------------------------------------------

int cmd_witness() {
  // Fixed single-thread compute loop: a dependent floating-point chain.
  double t0 = wall_now();
  double x = 1.0;
  for (int i = 0; i < 30'000'000; ++i) x = x * 1.0000001 + 1e-9;
  const double compute = wall_now() - t0;
  // Memory stream: repeated sum over a 32 MiB buffer.
  std::vector<double> buf(std::size_t{1} << 22, 1.0);
  t0 = wall_now();
  double sum = 0.0;
  for (int rep = 0; rep < 8; ++rep)
    for (const double v : buf) sum += v;
  const double stream = wall_now() - t0;
  Json j;
  j.num("ref_loop_s", compute).num("stream_s", stream).num("sink", x + sum);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: foambench_driver run <workload> <co2> <seconds> <dir>\n"
               "       foambench_driver trace <workload> <co2> <dir>\n"
               "       foambench_driver witness\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  if (a.size() == 1 && a[0] == "witness") return cmd_witness();
  if (a.size() < 4) return usage();
  const Workload* w = find_workload(a[1]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a[1].c_str());
    return 2;
  }
  const double co2 = std::stod(a[2]);
  try {
    if (a[0] == "run" && a.size() == 5)
      return cmd_run(*w, co2, std::stod(a[3]), a[4]);
    if (a[0] == "trace" && a.size() == 4) return cmd_trace(*w, co2, a[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "foambench_driver: %s\n", e.what());
    return 1;
  }
  return usage();
}
