#pragma once

/// \file mc.hpp
/// foam_mc — a loom/Relacy-style deterministic model checker for the
/// lock-free primitives of the foam runtime (par::SpscRing, par::StubQueue,
/// par::SpscChannel, par::detail::ForkJoin, telemetry::HeartbeatSlotT,
/// telemetry::ProfileLeafT).
///
/// The checker runs a test body many times, exploring a different thread
/// interleaving (and a different set of legal weak-memory read results) on
/// every execution, until the bounded schedule space is exhausted:
///
///  * mc::atomic<T> / mc::raw<T> are drop-in storage types for the
///    production templates' atomics-policy parameter (mc::ModelAtomics
///    mirrors par::StdAtomics). Every atomic load/store/RMW is a
///    schedulable event; raw<T> cells are race-checked plain storage.
///  * Scheduling is a cooperative turnstile over real OS threads: exactly
///    one virtual thread runs at a time, and at every visible operation
///    the checker consults a DFS decision stack to pick who runs next.
///    Replay of the decision prefix makes executions deterministic; new
///    suffixes are explored depth-first with a CHESS-style bounded number
///    of preemptions (switching away from a thread that could continue).
///  * Weak memory is simulated operationally: every atomic location keeps
///    its full modification-order store history plus per-thread
///    vector-clock knowledge. A relaxed load may legally return any store
///    that is neither coherence-forbidden nor known (via happens-before)
///    to be stale — each legal value is a DFS branch. Acquire loads that
///    read a release store join the releaser's clock; RMWs read the
///    newest store and continue release sequences. This reproduces
///    store-buffering outcomes; IRIW-style non-multi-copy-atomic results
///    are not modeled (all locations here are single-writer, where the
///    distinction cannot be observed), and seq_cst is conservatively
///    treated as acq/rel (no global S order — none of the checked
///    protocols relies on one).
///  * raw<T> accesses are FastTrack-style race-checked against the clocks:
///    two unordered accesses (at least one a write) fail the execution.
///    Destroying an mc::atomic / mc::raw marks the address dead, so a
///    use-after-free in queue-node reclamation fails deterministically.
///  * mc::yield() marks the calling thread blocked until some other
///    thread stores to an atomic — spin loops must call it, which
///    both prunes the spin-wait state explosion and turns lost-wakeup bugs
///    into "livelock: all live threads yielded" failures.
///  * mc::atomic::wait / notify_* model the futex behind std::atomic::wait:
///    a waiter whose value is still current parks until a notify on that
///    atomic, so a missing or mis-ordered notify (a lost wake-up) leaves
///    it parked and the execution fails as a livelock.
///
/// The mutation gate: mc::DemoteRelease<Policy> wraps any atomics policy
/// and weakens every store/RMW ordering one notch (release->relaxed,
/// acq_rel->acquire). Running the *production* templates under
/// DemoteRelease<ModelAtomics> must make the checker fail — that is what
/// proves each release edge in spsc.hpp / slots.hpp is load-bearing
/// (tests/mc/test_mc.cpp, gates RingPublish / StubQueuePush /
/// HeartbeatPublish). See the memory-model section of DESIGN.md.
///
/// Limits: at most kMaxThreads virtual threads (main + spawned workers);
/// atomic values at most 8 trivially-copyable bytes; all checked state
/// must be constructed inside the test body (each execution constructs
/// and destroys a fresh instance).

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace foam::mc {

/// Virtual-thread limit (main = 0, workers 1..kMaxThreads-1). Fixed so
/// vector clocks are flat arrays on the checker's hot path.
inline constexpr int kMaxThreads = 8;

/// Exploration bounds. The defaults exhaust the protocols in tests/mc in
/// seconds; `complete` in the Result says whether the bound was reached.
struct Options {
  /// CHESS-style preemption bound: how many times a schedule may switch
  /// away from a thread that could have continued. Empirically 2-3 finds
  /// essentially all SPSC ordering bugs; higher explodes the space.
  int max_preemptions = 3;
  /// Hard cap on explored executions (deterministic budget, no clocks).
  std::uint64_t max_executions = 1'000'000;
  /// Per-execution bound on loads that return a stale (non-newest) value.
  /// Models eventual visibility: on real hardware a spinning reader sees a
  /// store in finite time, so unboundedly re-reading the same stale value
  /// adds no behaviors — without this bound every spin loop would give the
  /// DFS tree infinite depth. 8 is far above the stale depth any of the
  /// checked protocols can react to.
  int max_stale_reads = 8;
  /// Per-execution cap on scheduling decisions (runaway-loop backstop).
  std::uint64_t max_steps = 200'000;
};

/// Outcome of an explore() call.
struct Result {
  std::uint64_t executions = 0;
  /// True when the whole bounded schedule space was explored without
  /// hitting max_executions. Exhaustiveness claims require this.
  bool complete = false;
  bool failed = false;
  std::string failure;
  /// Event log of the failing execution (empty on success).
  std::vector<std::string> trace;
};

namespace detail {

/// Thrown by MC_ASSERT / internal checks to unwind the failing thread.
struct Failure {
  std::string what;
};
/// Thrown into every other thread to unwind it once a failure is latched.
struct Abort {};

class Scheduler;
Scheduler* tls();

static_assert(std::endian::native == std::endian::little,
              "mc value encoding assumes little-endian");

template <typename T>
std::uint64_t enc(const T& v) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>,
                "mc::atomic supports trivially-copyable values <= 8 bytes");
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(T));
  return u;
}

template <typename T>
T dec(std::uint64_t u) {
  T v;
  std::memcpy(&v, &u, sizeof(T));
  return v;
}

using VClock = std::array<std::uint32_t, kMaxThreads>;

/// The per-explore() engine: turnstile scheduler + DFS decision stack +
/// store histories + race/UAF detection. One instance per explore() call;
/// reached by the instrumented types through a thread-local pointer.
class Scheduler {
 public:
  explicit Scheduler(const Options& opts);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- instrumented-type hooks -------------------------------------------
  void reg_atomic(const void* loc, std::uint64_t init);
  void unreg_atomic(const void* loc);
  std::uint64_t atomic_load(const void* loc, std::memory_order mo);
  void atomic_store(const void* loc, std::uint64_t v, std::memory_order mo);
  std::uint64_t atomic_rmw_add(const void* loc, std::uint64_t delta,
                               std::memory_order mo);
  /// Futex wait: if the newest store of \p loc equals \p old (the kernel's
  /// check, under its lock: no stale value, no synchronization), park the
  /// caller until atomic_notify(loc); otherwise return at once.
  void atomic_wait(const void* loc, std::uint64_t old);
  /// Futex wake of every thread parked on \p loc (no synchronization).
  void atomic_notify(const void* loc);
  void reg_raw(const void* loc);
  void unreg_raw(const void* loc);
  void raw_read(const void* loc);
  void raw_write(const void* loc);
  void yield();
  /// Latch the first failure and unwind the calling thread (returns only
  /// when called mid-unwind, where throwing again would terminate).
  void fail(std::string what);

  // --- explore() driver API ----------------------------------------------
  void begin_execution();
  /// Advance the DFS to the next unexplored schedule; false = exhausted.
  bool advance();
  int spawn(std::function<void()> fn);
  void join_all();
  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  std::vector<std::string> format_trace() const;

 private:
  struct Store {
    std::uint64_t value = 0;
    int tid = 0;
    std::uint32_t epoch = 0;
    VClock msg{};  // releaser's clock; all-zero for relaxed stores
    bool release = false;
  };
  struct AtomicLoc {
    int id = 0;
    bool alive = true;
    std::vector<Store> hist;  // modification order (append order)
    /// Per-thread coherence floor: lowest history index the thread may
    /// still legally read (raised by its own reads and writes).
    std::array<std::uint32_t, kMaxThreads> floor{};
  };
  struct RawLoc {
    int id = 0;
    bool alive = true;
    int w_tid = -1;
    std::uint32_t w_epoch = 0;
    /// Reads since the last write (cleared by the next write).
    std::vector<std::pair<int, std::uint32_t>> readers;
  };
  /// One DFS decision: which thread runs next, or which visible store a
  /// load returns. cands[0] is the default (deepest-first) choice.
  struct Node {
    bool thread_choice = false;
    std::vector<int> cands;
    std::size_t chosen_idx = 0;
    int prev_tid = -1;       // thread choices: who ran before this point
    bool prev_enabled = false;
    int preempts_before = 0;
  };
  struct ThreadRec {
    std::thread th;
    std::function<void()> fn;
    bool finished = false;
    bool yielded = false;
    std::uint64_t yield_mark = 0;
    const void* futex = nullptr;  // location parked on in atomic_wait
    VClock clock{};
    std::uint32_t epoch = 0;
  };
  struct Ev {
    std::uint8_t kind = 0;  // 'L','S','A','r','w','y','f','!'
    std::uint8_t tid = 0;
    std::uint8_t mo = 0;
    std::int32_t loc = -1;
    std::uint64_t val = 0;
  };

  // All private methods below require mu_ held.
  AtomicLoc* lookup_atomic(const void* loc);
  RawLoc* lookup_raw(const void* loc);
  void bump_epoch(int tid);
  void mark_failed(std::string what);
  /// Latch \p msg and unwind the calling thread (returns 0 only when the
  /// thread is already unwinding and must not throw again).
  std::uint64_t op_fail(std::string msg);
  /// DFS choice point; cands must list the default first. Returns the
  /// (replayed or default) choice; single candidates create no node.
  int choose(bool thread_choice, std::vector<int> cands, int prev_tid,
             bool prev_enabled);
  /// Clear yield blocks whose mark has passed; list enabled worker tids.
  std::vector<int> enabled_workers();
  /// All-yielded resolution: un-yield (with coherence floors raised to the
  /// newest store everywhere — full eventual visibility) every live thread
  /// that has not yet observed some location's newest store. Returns true
  /// if any thread was woken; false means a genuine livelock.
  bool grant_pending_visibility();
  /// Pick and grant the next runner after \p me's visible op (mu_ held by
  /// \p lk); blocks until \p me is granted again. Throws on failure/abort.
  void schedule_next(int me, std::unique_lock<std::mutex>& lk);
  void worker_entry(int tid);
  void log(std::uint8_t kind, int tid, std::int32_t loc, std::uint64_t val,
           std::memory_order mo = std::memory_order_relaxed);

  Options opts_;
  std::mutex mu_;
  std::condition_variable cv_;

  // DFS state (persists across executions).
  std::vector<Node> decisions_;
  std::size_t pos_ = 0;  // replay cursor into decisions_

  // Per-execution state.
  std::vector<ThreadRec> threads_;  // index = tid; [0] is main (no th)
  int running_ = 0;
  bool concurrent_ = false;
  bool aborting_ = false;
  std::uint64_t stores_ = 0;  // atomic stores + RMWs (yield wake-ups)
  std::uint64_t steps_ = 0;
  int cur_preempts_ = 0;
  int stale_used_ = 0;  // stale loads taken this execution (max_stale_reads)
  int next_loc_id_ = 0;
  std::unordered_map<const void*, AtomicLoc> atomics_;
  std::unordered_map<const void*, RawLoc> raws_;
  std::vector<Ev> events_;

  bool failed_ = false;
  std::string failure_;
};

void assert_fail(const char* what);

}  // namespace detail

/// Instrumented counterpart of std::atomic<T> (loads, stores, fetch_add).
/// Must be constructed inside an explore() body; falls back to plain
/// storage when no checker is active so helper code stays usable.
template <typename T>
class atomic {
 public:
  atomic() : atomic(T{}) {}
  atomic(T v) : val_(v), sched_(detail::tls()) {  // NOLINT(*-explicit-*)
    if (sched_ != nullptr) sched_->reg_atomic(this, detail::enc(v));
  }
  ~atomic() {
    if (sched_ != nullptr) sched_->unreg_atomic(this);
  }
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    if (sched_ != nullptr) return detail::dec<T>(sched_->atomic_load(this, mo));
    return val_;
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    val_ = v;
    if (sched_ != nullptr) sched_->atomic_store(this, detail::enc(v), mo);
  }
  T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
    static_assert(std::is_integral_v<T>, "fetch_add needs an integral type");
    if (sched_ != nullptr) {
      const T old = detail::dec<T>(
          sched_->atomic_rmw_add(this, detail::enc(d), mo));
      val_ = static_cast<T>(old + d);
      return old;
    }
    const T old = val_;
    val_ = static_cast<T>(old + d);
    return old;
  }

  /// Futex model of std::atomic::wait (Scheduler::atomic_wait): block
  /// while the newest store is \p old, until a notify on this atomic. No
  /// ordering either way, so a protocol cannot lean on wait/notify for
  /// happens-before. Callers re-check the value after it returns.
  void wait(T old, std::memory_order /*mo*/ = std::memory_order_seq_cst)
      const {
    if (sched_ != nullptr) sched_->atomic_wait(this, detail::enc(old));
  }
  /// Wakes every waiter (one-waiter protocols cannot tell the difference).
  void notify_one() { notify_all(); }
  void notify_all() {
    if (sched_ != nullptr) sched_->atomic_notify(this);
  }

 private:
  T val_;
  detail::Scheduler* sched_;
};

/// Race-checked plain storage — the model policy's slot type. Every
/// access is ordered against the clocks; unordered conflicting accesses
/// (and any access after destruction) fail the execution.
template <typename T>
class raw {
 public:
  raw() : sched_(detail::tls()) {
    if (sched_ != nullptr) sched_->reg_raw(this);
  }
  ~raw() {
    if (sched_ != nullptr) sched_->unreg_raw(this);
  }
  raw(const raw&) = delete;
  raw& operator=(const raw&) = delete;

  const T& read() const {
    if (sched_ != nullptr) sched_->raw_read(this);
    return v_;
  }
  T& write() {
    if (sched_ != nullptr) sched_->raw_write(this);
    return v_;
  }

 private:
  T v_{};
  detail::Scheduler* sched_;
};

/// The model atomics policy: plug into the production templates'
/// Policy parameter to put every shared access under the checker.
/// Mirrors par::StdAtomics (spsc.hpp).
struct ModelAtomics {
  template <typename T>
  using atomic_t = mc::atomic<T>;
  template <typename T>
  using slot_t = mc::raw<T>;
  template <typename T>
  static const T& read(const raw<T>& slot) {
    return slot.read();
  }
  template <typename T>
  static T& write(raw<T>& slot) {
    return slot.write();
  }
};

/// Mutation-gate policy wrapper: every store/RMW ordering is weakened one
/// notch (release->relaxed, acq_rel->acquire; seq_cst likewise). A
/// protocol whose release edges matter must fail under
/// DemoteRelease<ModelAtomics> — tests/mc asserts exactly that for the
/// RingPublish, StubQueuePush and HeartbeatPublish edges.
template <typename Base>
struct DemoteRelease {
  static constexpr std::memory_order demote_store(std::memory_order mo) {
    return (mo == std::memory_order_release ||
            mo == std::memory_order_seq_cst)
               ? std::memory_order_relaxed
               : mo;
  }
  static constexpr std::memory_order demote_rmw(std::memory_order mo) {
    if (mo == std::memory_order_release) return std::memory_order_relaxed;
    if (mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst)
      return std::memory_order_acquire;
    return mo;
  }

  template <typename T>
  class atomic_t {
   public:
    atomic_t() = default;
    atomic_t(T v) : a_(v) {}  // NOLINT(*-explicit-*)
    T load(std::memory_order mo = std::memory_order_seq_cst) const {
      return a_.load(mo);
    }
    void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
      a_.store(v, demote_store(mo));
    }
    T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
      return a_.fetch_add(d, demote_rmw(mo));
    }
    void wait(T old, std::memory_order mo = std::memory_order_seq_cst) const {
      a_.wait(old, mo);
    }
    void notify_one() { a_.notify_one(); }
    void notify_all() { a_.notify_all(); }

   private:
    typename Base::template atomic_t<T> a_;
  };
  template <typename T>
  using slot_t = typename Base::template slot_t<T>;
  template <typename S>
  static decltype(auto) read(const S& slot) {
    return Base::read(slot);
  }
  template <typename S>
  static decltype(auto) write(S& slot) {
    return Base::write(slot);
  }
};

/// One execution of the test body: spawn worker threads, then join_all()
/// runs them to completion under the explored schedule. Spawning is only
/// legal before join_all(); checks after join_all() run single-threaded.
class Execution {
 public:
  explicit Execution(detail::Scheduler& s) : s_(&s) {}
  /// Returns the worker's thread id (1-based; main is 0).
  int spawn(std::function<void()> fn) { return s_->spawn(std::move(fn)); }
  void join_all() { s_->join_all(); }
  /// True once this execution latched a failure (skip post-checks).
  bool failed() const { return s_->failed(); }

 private:
  detail::Scheduler* s_;
};

/// Spin-loop hint: block the calling thread until another thread performs
/// an atomic store or RMW (another thread's load cannot change what the
/// spinner reads). Required in every model-checked spin loop.
void yield();

/// Run \p body under every schedule in the bounded space (or until the
/// execution budget runs out). The body must construct fresh state, spawn
/// its threads, join_all(), and may then run single-threaded post-checks.
Result explore(const Options& opts,
               const std::function<void(Execution&)>& body);

}  // namespace foam::mc

/// Checker assertion: usable from worker threads and post-checks alike.
/// On failure the execution unwinds and explore() reports the schedule.
#define MC_ASSERT(cond)                               \
  do {                                                \
    if (!(cond)) ::foam::mc::detail::assert_fail(     \
        "MC_ASSERT failed: " #cond);                  \
  } while (0)
