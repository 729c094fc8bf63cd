#include "telemetry/observe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "base/logging.hpp"
#include "telemetry/chrome_trace.hpp"

namespace foam::telemetry {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The active run's observer. Ranks are threads in one process, so there
/// is at most one observed run at a time; the first ScopedRankObserver in
/// creates it, the last out releases it.
std::mutex g_mu;
std::shared_ptr<RunObserver> g_run;  // NOLINT(cert-err58-cpp)
int g_attached = 0;

/// The calling thread's attachment (set by attach_rank).
thread_local RunObserver* t_obs = nullptr;
thread_local int t_rank = -1;

/// Most recent postmortem trace path, for tests and drivers.
std::mutex g_last_mu;
std::string g_last_postmortem;  // NOLINT(cert-err58-cpp)
std::atomic<std::uint64_t> g_postmortem_seq{0};

/// Run state for the status feed.
enum : int { kRunning = 0, kFinished = 1, kAborted = 2 };

const char* state_name(int s) {
  switch (s) {
    case kFinished:
      return "finished";
    case kAborted:
      return "aborted";
    default:
      return "running";
  }
}

/// JSON number that never emits NaN/Inf (RFC 8259 has no spelling for
/// them; a stuck ETA reads as 0, not an invalid document).
void put_num(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// ObservabilityOptions
// ---------------------------------------------------------------------------

ObservabilityOptions ObservabilityOptions::from_env() {
  ObservabilityOptions o;
  if (const char* v = std::getenv("FOAM_OBSERVE"); v != nullptr && *v != 0) {
    o.flight_recorder = true;
    o.heartbeat = true;
    o.status = true;
    if (std::string_view(v) != "1") o.dir = v;
  }
  if (const char* v = std::getenv("FOAM_OBSERVE_WATCHDOG");
      v != nullptr && *v != 0) {
    o.watchdog_seconds = std::strtod(v, nullptr);
    if (o.watchdog_seconds > 0.0) o.heartbeat = true;
  }
  if (const char* v = std::getenv("FOAM_TELEMETRY");
      v != nullptr && std::string_view(v) == "profile")
    o.profile = true;
  return o;
}

// ---------------------------------------------------------------------------
// RunObserver::Impl
// ---------------------------------------------------------------------------

struct RunObserver::Impl {
  /// Per-rank slot. The heartbeat half (HeartbeatSlot, slots.hpp) is the
  /// rank's lock-free hot path, read racily by the monitor; the snapshot
  /// half — including the pointer into the rank's live Tracer — is guarded
  /// by mu, and the dump path only try-locks it so a rank wedged
  /// mid-publish can never wedge the dump.
  struct Slot {
    HeartbeatSlot hb;

    std::mutex mu;
    // Pointer into the rank's live Tracer — valid only while attached.
    const ProfileLeaf* prof = nullptr;
    bool has_published = false;
    RankTrace published;
    std::vector<std::string> open;
    std::vector<std::pair<std::string, double>> samples;
    /// Profiler accumulation: packed leaf word -> sample count. Written by
    /// the monitor under mu, read after the monitor is joined.
    std::map<std::uint64_t, std::uint64_t> samples_by_leaf;
  };

  ObservabilityOptions opts;
  int nranks = 0;
  std::string run_desc;
  double total_days = 0.0;
  Clock::time_point start = Clock::now();
  std::vector<std::unique_ptr<Slot>> slots;

  std::atomic<int> state{kRunning};
  std::mutex reason_mu;
  std::string reason;

  std::atomic<bool> dumped{false};
  std::atomic<bool> watchdog_fired{false};

  std::thread monitor;
  std::atomic<bool> stop{false};
  std::mutex join_mu;

  // Profiler tick bookkeeping for the effective sampling interval.
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::int64_t> first_tick_ns{0};
  std::atomic<std::int64_t> last_tick_ns{0};

  /// Watchdog progress signatures (monitor-thread-only). A rank's
  /// signature folds everything its hot path mutates — beat count, leaf
  /// word, comm op, wait depth; a live rank churns it constantly, a
  /// wedged one goes static.
  struct WatchSig {
    std::uint64_t beats = 0;
    std::uint64_t leaf = 0;
    std::uint64_t pulses = 0;
    const char* op = nullptr;
    int wait_depth = 0;
    bool operator==(const WatchSig&) const = default;
  };
  std::vector<WatchSig> watch_sig;
  std::vector<std::int64_t> watch_change_ns;

  // Previously installed fatal-signal handlers (flight recorder only).
  std::vector<std::pair<int, void (*)(int)>> old_handlers;
};

namespace {

/// Fatal-signal hook: best-effort flight-recorder dump, then re-raise with
/// the default disposition so the process still dies with the right
/// status. Calling into the dump machinery (locks, allocation, stdio) is
/// not async-signal-safe; this path only runs when the process is already
/// doomed and the flight recorder was explicitly armed, where a torn dump
/// attempt is strictly better than no postmortem at all.
void fatal_signal_handler(int sig) {  // NOLINT(bugprone-signal-handler)
  const char* name = "fatal signal";
  switch (sig) {
    case SIGSEGV:
      name = "fatal signal SIGSEGV";
      break;
    case SIGBUS:
      name = "fatal signal SIGBUS";
      break;
    case SIGFPE:
      name = "fatal signal SIGFPE";
      break;
    case SIGILL:
      name = "fatal signal SIGILL";
      break;
    case SIGABRT:
      name = "fatal signal SIGABRT";
      break;
    default:
      break;
  }
  observe_abort(name);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

}  // namespace

// ---------------------------------------------------------------------------
// RunObserver
// ---------------------------------------------------------------------------

RunObserver::RunObserver(const ObservabilityOptions& opts, int nranks,
                         std::string run_desc, double total_days)
    : opts_(opts), impl_(std::make_unique<Impl>()) {
  // Watchdog and status feed both consume heartbeats.
  if (opts_.watchdog_seconds > 0.0 || opts_.status) opts_.heartbeat = true;
  impl_->opts = opts_;
  impl_->nranks = std::max(nranks, 1);
  impl_->run_desc = std::move(run_desc);
  impl_->total_days = total_days;
  impl_->slots.reserve(static_cast<std::size_t>(impl_->nranks));
  for (int r = 0; r < impl_->nranks; ++r)
    impl_->slots.push_back(std::make_unique<Impl::Slot>());

  if (opts_.flight_recorder) {
    for (const int sig : kFatalSignals) {
      void (*prev)(int) = std::signal(sig, fatal_signal_handler);
      if (prev != SIG_ERR) impl_->old_handlers.emplace_back(sig, prev);
    }
  }

  if (opts_.profile || opts_.status || opts_.watchdog_seconds > 0.0)
    impl_->monitor = std::thread([this] { monitor_loop(); });
}

RunObserver::~RunObserver() {
  join_monitor();
  for (const auto& [sig, prev] : impl_->old_handlers) std::signal(sig, prev);
}

void RunObserver::join_monitor() {
  const std::lock_guard<std::mutex> lk(impl_->join_mu);
  if (impl_->monitor.joinable()) {
    impl_->stop.store(true, std::memory_order_release);
    impl_->monitor.join();
  }
}

std::string RunObserver::status_path() const {
  return opts_.dir + "/status.json";
}

std::string RunObserver::last_postmortem_path() {
  const std::lock_guard<std::mutex> lk(g_last_mu);
  return g_last_postmortem;
}

void RunObserver::attach_rank(int rank) {
  if (rank < 0 || rank >= impl_->nranks) return;
  t_obs = this;
  t_rank = rank;
  Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(rank)];
  const std::lock_guard<std::mutex> lk(s.mu);
  if (Telemetry* tel = current()) s.prof = &tel->tracer().profile_leaf();
}

void RunObserver::detach_rank(int rank) {
  if (rank >= 0 && rank < impl_->nranks) {
    // The leaf pointer aims into the rank's Tracer, which dies with the
    // rank's stack frame — clear it under the slot mutex so the monitor
    // can never dereference a dangling pointer.
    Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(rank)];
    const std::lock_guard<std::mutex> lk(s.mu);
    s.prof = nullptr;
  }
  if (t_obs == this) {
    t_obs = nullptr;
    t_rank = -1;
  }
}

void RunObserver::beat(double day) {
  if (t_obs != this || t_rank < 0) return;
  impl_->slots[static_cast<std::size_t>(t_rank)]->hb.beat_at(day, now_ns());
}

void RunObserver::set_comm_op(const char* what) {
  if (t_obs != this || t_rank < 0) return;
  impl_->slots[static_cast<std::size_t>(t_rank)]->hb.set_op(what);
}

void RunObserver::comm_wait(int delta) {
  if (t_obs != this || t_rank < 0) return;
  impl_->slots[static_cast<std::size_t>(t_rank)]->hb.add_wait(delta);
}

void RunObserver::publish_self() {
  if (t_obs != this || t_rank < 0) return;
  Telemetry* tel = current();
  if (tel == nullptr) return;
  // Build outside the lock: publish contends only with brief monitor
  // try-locks, never with trace assembly.
  RankTrace trace = tel->tracer().trace(/*include_open=*/true);
  std::vector<std::string> open = tel->tracer().open_span_names();
  std::vector<std::pair<std::string, double>> samples = tel->snapshot();
  Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(t_rank)];
  const std::lock_guard<std::mutex> lk(s.mu);
  s.published = std::move(trace);
  s.open = std::move(open);
  s.samples = std::move(samples);
  s.has_published = true;
}

void RunObserver::finish_rank() {
  if (t_obs != this || t_rank < 0) return;
  publish_self();
  // Release inside mark_done() pairs with the status feed's is_done():
  // a reader that sees done also sees the final beat count.
  impl_->slots[static_cast<std::size_t>(t_rank)]->hb.mark_done();
}

void RunObserver::finish_run(double final_day) {
  int expect = kRunning;
  impl_->state.compare_exchange_strong(expect, kFinished);
  if (opts_.status) write_status(final_day);
}

double RunObserver::profile_effective_interval() const {
  const std::uint64_t n = impl_->ticks.load(std::memory_order_acquire);
  if (n < 2) return opts_.profile_interval_seconds;
  const double span =
      static_cast<double>(impl_->last_tick_ns.load(std::memory_order_acquire) -
                          impl_->first_tick_ns.load(
                              std::memory_order_acquire)) *
      1e-9;
  return span / static_cast<double>(n - 1);
}

std::vector<ProfileEntry> RunObserver::profile_snapshot() {
  join_monitor();
  std::vector<ProfileEntry> out;
  for (int r = 0; r < impl_->nranks; ++r) {
    Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(r)];
    const std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& [word, count] : s.samples_by_leaf) {
      ProfileEntry e;
      e.rank = r;
      e.region = leaf_region(word);
      const auto id = leaf_name_id(word);
      if (id >= 0 &&
          id < static_cast<std::int32_t>(s.published.names.size()))
        e.name = s.published.names[static_cast<std::size_t>(id)];
      else
        e.name = par::region_name(e.region);
      e.samples = count;
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Status feed
// ---------------------------------------------------------------------------

void RunObserver::write_status(double final_day) {
  Impl& im = *impl_;
  AtomicJsonFile out(status_path());
  if (!out.ok()) return;
  std::ostream& os = out.stream();

  const int state = im.state.load(std::memory_order_acquire);
  const double wall =
      std::chrono::duration<double>(Clock::now() - im.start).count();
  const std::int64_t now = now_ns();

  struct RankRow {
    std::uint64_t beats = 0;
    double day = 0.0;
    double age = 0.0;
    const char* op = nullptr;
    bool done = false;
    std::string region = "?";
    std::vector<std::string> open;
    /// The rank's par::Team gauges (team.*), from its last publish.
    std::vector<std::pair<std::string, double>> team;
  };
  std::vector<RankRow> rows(static_cast<std::size_t>(im.nranks));
  std::map<std::string, double> counters;
  double min_day = -1.0;
  for (int r = 0; r < im.nranks; ++r) {
    Impl::Slot& s = *im.slots[static_cast<std::size_t>(r)];
    RankRow& row = rows[static_cast<std::size_t>(r)];
    row.beats = s.hb.beats_now();
    row.day = s.hb.day_now();
    row.op = s.hb.op_now();
    row.done = s.hb.is_done();
    if (row.beats > 0) {
      row.age = static_cast<double>(now - s.hb.beat_ns_now()) * 1e-9;
      if (min_day < 0.0 || row.day < min_day) min_day = row.day;
    }
    // try-lock: a rank mid-publish (or wedged there after a crash) only
    // costs this status tick its extras, never blocks the feed.
    const std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
    if (lk.owns_lock()) {
      if (s.prof != nullptr) {
        const std::uint64_t v = s.prof->sample();
        if (leaf_open(v)) row.region = par::region_name(leaf_region(v));
      }
      row.open = s.open;
      for (const auto& [name, value] : s.samples) {
        if (name.rfind("team.", 0) == 0) row.team.emplace_back(name, value);
        // Skip the per-peer breakdowns; the feed wants run-level totals.
        if (name.find(".peer") != std::string::npos) continue;
        counters[name] += value;
      }
    }
  }
  double day = final_day >= 0.0 ? final_day : std::max(min_day, 0.0);
  if (state == kFinished && final_day < 0.0) day = im.total_days;
  const double days_per_hour = wall > 0.0 ? day / wall * 3600.0 : 0.0;
  const double eta = (state == kRunning && day > 0.0 && im.total_days > day)
                         ? (im.total_days - day) * wall / day
                         : 0.0;

  os << "{\"kind\": \"foam.status\", \"schema\": 1, \"state\": \""
     << state_name(state) << "\",\n\"reason\": ";
  {
    const std::lock_guard<std::mutex> lk(im.reason_mu);
    if (im.reason.empty())
      os << "null";
    else
      json_quote(os, im.reason);
  }
  os << ",\n\"run\": ";
  json_quote(os, im.run_desc);
  os << ", \"world_size\": " << im.nranks << ", \"total_days\": ";
  put_num(os, im.total_days);
  os << ",\n\"simulated_day\": ";
  put_num(os, day);
  os << ", \"wall_seconds\": ";
  put_num(os, wall);
  os << ", \"days_per_hour\": ";
  put_num(os, days_per_hour);
  os << ", \"eta_seconds\": ";
  put_num(os, eta);
  os << ",\n\"ranks\": [";
  for (int r = 0; r < im.nranks; ++r) {
    const RankRow& row = rows[static_cast<std::size_t>(r)];
    os << (r == 0 ? "\n" : ",\n") << "{\"rank\": " << r
       << ", \"beats\": " << row.beats << ", \"day\": ";
    put_num(os, row.day);
    os << ", \"age_seconds\": ";
    put_num(os, row.age);
    os << ", \"done\": " << (row.done ? "true" : "false")
       << ", \"region\": ";
    json_quote(os, row.region);
    os << ", \"op\": ";
    if (row.op != nullptr)
      json_quote(os, row.op);
    else
      os << "null";
    os << ", \"open_spans\": [";
    for (std::size_t i = 0; i < row.open.size(); ++i) {
      if (i > 0) os << ", ";
      json_quote(os, row.open[i]);
    }
    os << "]";
    if (!row.team.empty()) {
      // Threads inside the rank: members, helper busy seconds and the
      // rank thread's join wait — the CPU figure explained per rank.
      os << ", \"team\": {";
      for (std::size_t i = 0; i < row.team.size(); ++i) {
        if (i > 0) os << ", ";
        json_quote(os, row.team[i].first.substr(5));
        os << ": ";
        put_num(os, row.team[i].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\n\"counters\": {";
  // Top counters by magnitude keep the feed small and scannable.
  std::vector<std::pair<std::string, double>> top(counters.begin(),
                                                  counters.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return std::abs(a.second) > std::abs(b.second);
  });
  if (top.size() > 12) top.resize(12);
  std::sort(top.begin(), top.end());
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    json_quote(os, top[i].first);
    os << ": ";
    put_num(os, top[i].second);
  }
  os << "\n}\n}\n";
  out.commit();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

bool RunObserver::dump(const std::string& reason) {
  Impl& im = *impl_;
  bool expected = false;
  if (!im.dumped.compare_exchange_strong(expected, true)) return false;

  // The aborting rank's own trace — including its open spans — goes in
  // live; everyone else contributes their last published snapshot.
  publish_self();
  {
    const std::lock_guard<std::mutex> lk(im.reason_mu);
    im.reason = reason;
  }
  im.state.store(kAborted, std::memory_order_release);

  bool wrote = false;
  if (opts_.flight_recorder) {
    struct RankMeta {
      bool published = false;
      double day = 0.0;
      std::uint64_t beats = 0;
      double age = 0.0;
      const char* op = nullptr;
      std::vector<std::string> open;
      std::uint64_t dropped = 0;
      std::vector<std::pair<std::string, double>> samples;
    };
    std::vector<RankTrace> ranks(static_cast<std::size_t>(im.nranks));
    std::vector<RankMeta> meta(static_cast<std::size_t>(im.nranks));
    const std::int64_t now = now_ns();
    for (int r = 0; r < im.nranks; ++r) {
      Impl::Slot& s = *im.slots[static_cast<std::size_t>(r)];
      RankMeta& m = meta[static_cast<std::size_t>(r)];
      m.day = s.hb.day_now();
      m.beats = s.hb.beats_now();
      m.op = s.hb.op_now();
      if (m.beats > 0)
        m.age = static_cast<double>(now - s.hb.beat_ns_now()) * 1e-9;
      // try-lock with a short grace: a rank wedged mid-publish (crash
      // inside the slot lock) must not wedge the postmortem.
      std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
      for (int attempt = 0; !lk.owns_lock() && attempt < 50; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        (void)lk.try_lock();
      }
      if (lk.owns_lock() && s.has_published) {
        m.published = true;
        ranks[static_cast<std::size_t>(r)] = s.published;
        m.open = s.open;
        m.dropped = s.published.dropped;
        m.samples = s.samples;
      }
    }

    // mo: process-wide filename counter; only uniqueness matters.
    const std::uint64_t seq =
        g_postmortem_seq.fetch_add(1, std::memory_order_relaxed);
    const std::string base =
        opts_.dir + "/postmortem." +
        std::to_string(static_cast<long long>(std::time(nullptr))) + "." +
        std::to_string(seq);
    const std::string trace_path = base + ".trace.json";

    // The postmortem is itself a Chrome trace document (Perfetto loads it
    // directly); the extra foamPostmortem key carries the diagnosis.
    AtomicJsonFile out(trace_path);
    if (out.ok()) {
      std::ostream& os = out.stream();
      os << "{\n\"foamPostmortem\": {\"schema\": 1, \"reason\": ";
      json_quote(os, reason);
      os << ",\n\"run\": ";
      json_quote(os, im.run_desc);
      os << ", \"world_size\": " << im.nranks << ",\n\"ranks\": [";
      for (int r = 0; r < im.nranks; ++r) {
        const RankMeta& m = meta[static_cast<std::size_t>(r)];
        os << (r == 0 ? "\n" : ",\n") << "{\"rank\": " << r
           << ", \"published\": " << (m.published ? "true" : "false")
           << ", \"day\": ";
        put_num(os, m.day);
        os << ", \"beats\": " << m.beats << ", \"heartbeat_age_seconds\": ";
        put_num(os, m.age);
        os << ", \"last_comm_op\": ";
        if (m.op != nullptr)
          json_quote(os, m.op);
        else
          os << "null";
        os << ", \"dropped_spans\": " << m.dropped << ", \"open_spans\": [";
        for (std::size_t i = 0; i < m.open.size(); ++i) {
          if (i > 0) os << ", ";
          json_quote(os, m.open[i]);
        }
        os << "]}";
      }
      os << "\n]},\n\"traceEvents\": [";
      chrome_trace_events(os, ranks);
      os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
      wrote = out.commit();
    }

    if (wrote) {
      AtomicJsonFile counters(base + ".counters.json");
      if (counters.ok()) {
        std::ostream& os = counters.stream();
        os << "{\"kind\": \"foam.postmortem.counters\", \"schema\": 1, "
              "\"reason\": ";
        json_quote(os, reason);
        os << ",\n\"ranks\": [";
        for (int r = 0; r < im.nranks; ++r) {
          const RankMeta& m = meta[static_cast<std::size_t>(r)];
          os << (r == 0 ? "\n" : ",\n") << "{\"rank\": " << r
             << ", \"counters\": {";
          for (std::size_t i = 0; i < m.samples.size(); ++i) {
            os << (i == 0 ? "" : ", ");
            json_quote(os, m.samples[i].first);
            os << ": ";
            put_num(os, m.samples[i].second);
          }
          os << "}}";
        }
        os << "\n]}\n";
        counters.commit();
      }
      {
        const std::lock_guard<std::mutex> lk(g_last_mu);
        g_last_postmortem = trace_path;
      }
      FOAM_LOG_ERROR << "flight recorder: wrote " << trace_path << " ("
                     << reason << ")";
    } else {
      FOAM_LOG_ERROR << "flight recorder: failed to write " << trace_path;
    }
  }

  if (opts_.status) write_status(-1.0);
  return wrote;
}

// ---------------------------------------------------------------------------
// Monitor thread: profiler sampling + status feed + watchdog
// ---------------------------------------------------------------------------

void RunObserver::monitor_loop() {
  Impl& im = *impl_;
  const bool profiling = opts_.profile;
  const bool status = opts_.status;
  const double watchdog = opts_.watchdog_seconds;

  double base_s = 0.05;
  if (status) base_s = std::min(base_s, opts_.status_interval_seconds);
  if (watchdog > 0.0) base_s = std::min(base_s, watchdog / 4.0);
  if (profiling) base_s = opts_.profile_interval_seconds;
  base_s = std::max(base_s, 1e-5);
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(base_s * 1e9));
  const auto status_iv = std::chrono::nanoseconds(
      static_cast<std::int64_t>(
          std::max(opts_.status_interval_seconds, 1e-3) * 1e9));
  const auto watch_iv = std::chrono::nanoseconds(static_cast<std::int64_t>(
      std::max(watchdog / 4.0, 1e-3) * 1e9));

  auto next = Clock::now() + period;
  auto next_status = Clock::now() + status_iv;
  auto next_watch = Clock::now() + watch_iv;
  while (!im.stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_until(next);
    const auto now = Clock::now();
    next += period;
    if (next < now) next = now + period;

    if (profiling) {
      // Real tick timestamps drive the effective sampling interval:
      // sleep_until overshoot would otherwise bias time attribution low.
      const std::int64_t ns = now.time_since_epoch().count();
      // mo: monitor-thread-only counter; readers pair with the release
      // stores of the tick timestamps below.
      if (im.ticks.fetch_add(1, std::memory_order_relaxed) == 0)
        im.first_tick_ns.store(ns, std::memory_order_release);
      im.last_tick_ns.store(ns, std::memory_order_release);
      for (const auto& slot : im.slots) {
        const std::unique_lock<std::mutex> lk(slot->mu, std::try_to_lock);
        if (!lk.owns_lock() || slot->prof == nullptr) continue;
        const std::uint64_t v = slot->prof->sample();
        if (leaf_open(v)) ++slot->samples_by_leaf[v];
      }
    }

    if (status && now >= next_status) {
      if (im.state.load(std::memory_order_acquire) == kRunning)
        write_status(-1.0);
      next_status = now + status_iv;
    }

    if (watchdog > 0.0 && now >= next_watch) {
      check_watchdog();
      next_watch = now + watch_iv;
    }
  }
}

void RunObserver::check_watchdog() {
  Impl& im = *impl_;
  if (im.watchdog_fired.load(std::memory_order_acquire)) return;
  if (im.state.load(std::memory_order_acquire) != kRunning) return;
  const std::int64_t now = now_ns();
  if (im.watch_sig.empty()) {
    im.watch_sig.resize(static_cast<std::size_t>(im.nranks));
    im.watch_change_ns.assign(static_cast<std::size_t>(im.nranks), now);
  }
  // Heartbeat age alone cannot name a stalled rank: beats land once per
  // exchange, so a rank slowly *computing* its way through an interval is
  // indistinguishable from a wedged one, and a wedged rank drags its
  // peers into blocked waits on the same timescale. Two semantic signals
  // fix both failure modes: (a) progress — a live rank constantly churns
  // its tracer leaf word (region/span begin-end) and its liveness pulse
  // (every FOAM_TRACE_SCOPE entry at every trace level, so a rank deep in
  // compute inside one long region still advances it), and only a rank
  // whose whole signature has been static past the deadline counts;
  // (b) blame — the victims are parked *inside* tracked comm waits
  // (wait_depth > 0, Comm::wait_state) waiting for the culprit, which is
  // stuck outside any wait (Comm::stall deliberately does not mark one).
  int worst = -1;
  double worst_age = 0.0;
  for (int r = 0; r < im.nranks; ++r) {
    Impl::Slot& s = *im.slots[static_cast<std::size_t>(r)];
    Impl::WatchSig sig;
    sig.beats = s.hb.beats_now();
    sig.op = s.hb.op_now();
    sig.wait_depth = s.hb.wait_depth_now();
    bool alive = false;
    {
      const std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
      if (lk.owns_lock()) {
        if (s.prof != nullptr) {
          sig.leaf = s.prof->sample();
          sig.pulses = s.prof->pulses();
        }
      } else {
        // Mid-publish: the rank is alive by definition.
        alive = true;
      }
    }
    if (alive || !(sig == im.watch_sig[static_cast<std::size_t>(r)])) {
      im.watch_sig[static_cast<std::size_t>(r)] = sig;
      im.watch_change_ns[static_cast<std::size_t>(r)] = now;
      continue;
    }
    // No beat yet (still starting) or already done (teardown skew): the
    // deadline only applies to ranks mid-run; a static rank parked in a
    // tracked wait is a victim, never the wedge.
    if (sig.beats == 0) continue;
    if (s.hb.is_done()) continue;
    if (sig.wait_depth > 0) continue;
    const double age =
        static_cast<double>(
            now - im.watch_change_ns[static_cast<std::size_t>(r)]) *
        1e-9;
    if (age > opts_.watchdog_seconds && age > worst_age) {
      worst = r;
      worst_age = age;
    }
  }
  if (worst >= 0) {
    const int r = worst;
    const double age = worst_age;
    Impl::Slot& s = *im.slots[static_cast<std::size_t>(r)];

    std::string region = "?";
    std::string open;
    {
      const std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
      if (lk.owns_lock()) {
        if (s.prof != nullptr) {
          const std::uint64_t v = s.prof->sample();
          if (leaf_open(v)) region = par::region_name(leaf_region(v));
        }
        if (!s.open.empty()) open = s.open.back();
      }
    }
    const char* op = s.hb.op_now();
    std::ostringstream msg;
    msg << "watchdog: rank " << r << " stalled " << age << "s (deadline "
        << opts_.watchdog_seconds << "s) at day " << s.hb.day_now()
        << ", region " << region;
    if (!open.empty()) msg << ", span \"" << open << '"';
    if (op != nullptr) msg << ", last comm op " << op;
    im.watchdog_fired.store(true, std::memory_order_release);
    FOAM_LOG_ERROR << msg.str();
    // The whole point: land the postmortem before the deadlock detector's
    // abort tears the ranks down.
    dump(msg.str());
    return;
  }
}

// ---------------------------------------------------------------------------
// ScopedRankObserver + free hooks
// ---------------------------------------------------------------------------

ScopedRankObserver::ScopedRankObserver(const ObservabilityOptions& opts,
                                       int rank, int nranks,
                                       const std::string& run_desc,
                                       double total_days) {
  if (!opts.any()) return;
  {
    const std::lock_guard<std::mutex> lk(g_mu);
    if (!g_run)
      g_run = std::make_shared<RunObserver>(opts, nranks, run_desc,
                                            total_days);
    ++g_attached;
    obs_ = g_run;
  }
  rank_ = rank;
  obs_->attach_rank(rank);
}

ScopedRankObserver::~ScopedRankObserver() {
  if (!obs_) return;
  // Running during exception unwind means this rank is dying with the
  // telemetry session still installed — the last chance to capture its
  // live trace (open spans included) before the stack frame goes away.
  if (std::uncaught_exceptions() > 0)
    obs_->dump("rank " + std::to_string(rank_) + " aborted by exception");
  obs_->detach_rank(rank_);
  {
    const std::lock_guard<std::mutex> lk(g_mu);
    // obs_ still holds a reference, so the observer (and its monitor
    // join) is never destroyed while g_mu is held.
    if (--g_attached == 0) g_run.reset();
  }
  obs_.reset();
}

void observe_comm_op(const char* what) {
  if (t_obs != nullptr) t_obs->set_comm_op(what);
}

ScopedCommWait::ScopedCommWait(const char* what) {
  if (t_obs == nullptr) return;
  t_obs->set_comm_op(what);
  t_obs->comm_wait(+1);
}

ScopedCommWait::~ScopedCommWait() {
  if (t_obs != nullptr) t_obs->comm_wait(-1);
}

void observe_publish() {
  if (t_obs != nullptr) t_obs->publish_self();
}

bool observe_abort(const std::string& reason) {
  std::shared_ptr<RunObserver> run;
  {
    const std::lock_guard<std::mutex> lk(g_mu);
    run = g_run;
  }
  if (!run) return false;
  return run->dump(reason);
}

}  // namespace foam::telemetry
