#pragma once

/// \file team.hpp
/// A deterministic fork-join team inside one rank.
///
/// foam::par ranks are threads that talk by message passing. A Team adds
/// threads *inside* a rank — the hybrid layout of large coupled models:
/// messages between ranks, threads within one. Member 0 is the rank thread
/// that owns the team; members 1..size()-1 are helper threads that live as
/// long as the team. The one primitive, for_chunks, runs a body over
/// [0, n) in static contiguous chunks (par::block_range: member m gets
/// block m, remainders to the lowest members) and returns once every
/// member has finished.
///
/// Determinism contract, kept by every caller: each output element has
/// exactly one writer, and no value is reduced across members. A chunk then
/// computes exactly what the serial loop computes on those indices, so the
/// result is bitwise independent of the member count.
///
/// Helpers own no par::Comm (a Comm refuses calls from any thread but its
/// rank's when FOAM_PAR_VERIFY is on), record no telemetry (the session is
/// the rank thread's) and must not allocate in a body. An idle helper spins
/// for a bounded time (Team::kSpinNs, with a pause instruction) and then
/// parks on std::atomic::wait, so a team between batches costs no CPU.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "par/decomp.hpp"
#include "par/spsc.hpp"

namespace foam::par {

/// CPUs this process may run on: the count of its affinity mask
/// (sched_getaffinity), or std::thread::hardware_concurrency where the mask
/// is unavailable; at least 1.
int usable_cpus();

/// Largest team a rank gets: the rank thread plus three helpers. The
/// bitwise tests cover every team size up to it; the dynamics batches
/// carry only 3 fields, so a bigger team would leave members idle there.
inline constexpr int kMaxTeamMembers = 4;

/// Helpers per rank when the caller does not say: the CPUs left after one
/// per rank thread, shared evenly between the ranks, capped so a team has
/// at most kMaxTeamMembers members. 1+1 ranks on 4 CPUs get 1 helper each;
/// 10 ranks on 4 CPUs get none.
int auto_team_helpers(int cpus, int world_size);

/// One PAUSE-class instruction: tells the core this is a spin-wait.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

namespace detail {

/// The publish/complete handshake of a Team, templated over the atomics
/// policy like SpscRing so tests/mc can explore it exhaustively
/// (mc::ModelAtomics) and prove its orderings load-bearing
/// (mc::DemoteRelease).
///
/// The caller writes the job, then publish() bumps epoch_ with a release
/// store; a helper acquires the new epoch in await_epoch (so it sees the
/// job), runs its chunk and reports with complete(), an acq_rel increment
/// of done_. done_ counts completions over all epochs: epoch e is joined
/// when done_ == e * helpers (mod 2^32), so it is never reset and no reset
/// can race with a late helper.
///
/// Every wait re-checks the value it last loaded: wait(v) returns at once
/// when the atomic no longer holds v, so a wake-up between the load and
/// the wait cannot be lost. Waiting on a value loaded *after* the check
/// (the classic lost wake-up: the final increment lands in between, and
/// the waiter then sleeps on the final value forever) is exactly what the
/// McTeam check would report as a livelock.
template <typename Policy = StdAtomics>
class ForkJoin {
 public:
  /// \p helpers threads join each epoch; waiters spin for up to \p spin_ns
  /// nanoseconds before parking (0: park at once).
  ForkJoin(int helpers, std::int64_t spin_ns)
      : helpers_(static_cast<std::uint32_t>(helpers)), spin_ns_(spin_ns) {}
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  /// Caller: publish the next epoch (the job must be written before).
  std::uint32_t publish() {
    // mo: caller-owned counter; only the caller stores epoch_.
    const std::uint32_t e = epoch_.load(std::memory_order_relaxed) + 1;
    // Release publishes the job written before this call to every
    // helper's acquire in await_epoch. THE publish edge of the team:
    // relaxed here lets a helper run a job it cannot see (tests/mc
    // mutation gate TeamPublish).
    epoch_.store(e, std::memory_order_release);
    epoch_.notify_all();
    return e;
  }

  /// Caller: block until every helper has completed epoch \p e.
  void await_helpers(std::uint32_t e) const {
    const std::uint32_t target = e * helpers_;
    await(done_, [target](std::uint32_t v) { return v == target; });
  }

  /// Helper: block until an epoch after \p seen is published; returns it.
  std::uint32_t await_epoch(std::uint32_t seen) const {
    return await(epoch_, [seen](std::uint32_t v) { return v != seen; });
  }

  /// Helper: report epoch \p e's chunk done (after every write of it).
  /// Release publishes those writes to the caller; acquire chains the
  /// earlier helpers' increments, so the last one carries them all.
  void complete(std::uint32_t e) {
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == e * helpers_)
      done_.notify_one();
  }

 private:
  using Atomic = typename Policy::template atomic_t<std::uint32_t>;

  template <typename Ready>
  std::uint32_t await(const Atomic& a, Ready ready) const {
    std::uint32_t v = a.load(std::memory_order_acquire);
    if (!ready(v) && spin_ns_ > 0) {
      const auto t0 = std::chrono::steady_clock::now();
      for (unsigned i = 1; !ready(v); ++i) {
        cpu_relax();
        v = a.load(std::memory_order_acquire);
        if (i % 64 == 0 && std::chrono::steady_clock::now() - t0 >
                               std::chrono::nanoseconds(spin_ns_))
          break;
      }
    }
    while (!ready(v)) {
      a.wait(v, std::memory_order_acquire);
      v = a.load(std::memory_order_acquire);
    }
    return v;
  }

  const std::uint32_t helpers_;
  const std::int64_t spin_ns_;
  alignas(kCacheLine) Atomic epoch_{0};
  alignas(kCacheLine) Atomic done_{0};
};

}  // namespace detail

/// A fixed set of members: the constructing (rank) thread plus size() - 1
/// helper threads. Not copyable or movable; only the owning thread may call
/// for_chunks or read the accounting.
class Team {
 public:
  /// How long an idle helper (or the joining caller) spins before parking.
  /// Short on purpose: in alternating runs of the 1+1 full-core day on a
  /// 4-vCPU host (one helper per rank), 3 us matched 20 and 50 us in wall
  /// time and used 5-9 % less process CPU than 50 us.
  static constexpr std::int64_t kSpinNs = 3'000;

  /// A team of \p members (1 <= members <= kMaxTeamMembers); the
  /// members - 1 helpers start here and park until the first job.
  explicit Team(int members);
  /// Stops and joins the helpers, parked or spinning.
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int size() const { return static_cast<int>(slots_.size()); }

  /// The chunk of [0, n) that member \p m runs in a team of \p members.
  static Range chunk(int n, int members, int m) {
    return block_range(n, members, m);
  }

  /// Run body(member, lo, hi) over [0, n): member m gets chunk(n, size(),
  /// m) (the caller is member 0), empty chunks are skipped, and the call
  /// returns when every member is done. An exception from any member is
  /// rethrown here after all members finished — the caller's own first,
  /// then the helpers' by member — and the team stays usable.
  template <typename Body>
  void for_chunks(int n, Body&& body) {
    if (n <= 0) return;
    if (size() == 1 || n == 1) {
      body(0, 0, n);
      return;
    }
    using B = std::remove_reference_t<Body>;
    run_job(n,
            [](void* ctx, int m, int lo, int hi) {
              (*static_cast<B*>(ctx))(m, lo, hi);
            },
            const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// Seconds the helpers spent running bodies, summed over helpers.
  double helper_busy_seconds() const;
  /// Seconds the caller waited at joins after finishing its own chunk.
  double join_wait_seconds() const {
    return static_cast<double>(join_wait_ns_) * 1e-9;
  }

 private:
  using Thunk = void (*)(void* ctx, int member, int lo, int hi);
  struct Job {
    Thunk fn = nullptr;  // nullptr = stop
    void* ctx = nullptr;
    int n = 0;
  };
  /// Per-member results, each on its own cache line: written by its helper
  /// before complete(), read by the caller after the join.
  struct alignas(kCacheLine) Slot {
    std::exception_ptr error;
    std::int64_t busy_ns = 0;
  };

  void run_job(int n, Thunk fn, void* ctx);
  void helper_loop(int member);
  void stop_helpers();

  Job job_;
  std::vector<Slot> slots_;  // [0] is the caller's
  detail::ForkJoin<> sync_;
  std::int64_t join_wait_ns_ = 0;
  std::vector<std::thread> helpers_;
};

/// for_chunks on \p team, or the whole range inline on the calling thread
/// as member 0 when \p team is null.
template <typename Body>
void for_chunks(Team* team, int n, Body&& body) {
  if (team != nullptr) {
    team->for_chunks(n, std::forward<Body>(body));
  } else if (n > 0) {
    body(0, 0, n);
  }
}

}  // namespace foam::par
