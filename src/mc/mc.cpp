#include "mc/mc.hpp"

#include <algorithm>
#include <sstream>

namespace foam::mc {
namespace detail {

namespace {

thread_local Scheduler* t_sched = nullptr;
thread_local int t_tid = 0;
thread_local bool t_unwinding = false;

/// Event-log cap: tests/mc executions run a few hundred ops, so the cap
/// only matters for runaway loops the step budget is about to kill.
constexpr std::size_t kMaxEvents = 1 << 16;

void join_clock(VClock& into, const VClock& from) {
  for (int t = 0; t < kMaxThreads; ++t)
    into[static_cast<std::size_t>(t)] = std::max(
        into[static_cast<std::size_t>(t)], from[static_cast<std::size_t>(t)]);
}

bool is_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

bool is_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

const char* mo_name(std::uint8_t mo) {
  switch (static_cast<std::memory_order>(mo)) {
    case std::memory_order_relaxed:
      return "relaxed";
    case std::memory_order_consume:
      return "consume";
    case std::memory_order_acquire:
      return "acquire";
    case std::memory_order_release:
      return "release";
    case std::memory_order_acq_rel:
      return "acq_rel";
    case std::memory_order_seq_cst:
      return "seq_cst";
  }
  return "?";
}

}  // namespace

Scheduler* tls() { return t_sched; }

void assert_fail(const char* what) {
  if (Scheduler* s = t_sched) s->fail(what);
  throw Failure{what};
}

Scheduler::Scheduler(const Options& opts) : opts_(opts) {}

void Scheduler::begin_execution() {
  threads_.clear();
  threads_.resize(1);
  threads_[0].epoch = 1;
  threads_[0].clock[0] = 1;
  running_ = 0;
  concurrent_ = false;
  aborting_ = false;
  stores_ = 0;
  steps_ = 0;
  cur_preempts_ = 0;
  stale_used_ = 0;
  next_loc_id_ = 0;
  atomics_.clear();
  raws_.clear();
  events_.clear();
  pos_ = 0;
  failed_ = false;
  failure_.clear();
  t_sched = this;
  t_tid = 0;
  t_unwinding = false;
}

void Scheduler::bump_epoch(int tid) {
  ThreadRec& r = threads_[static_cast<std::size_t>(tid)];
  ++r.epoch;
  r.clock[static_cast<std::size_t>(tid)] = r.epoch;
}

void Scheduler::mark_failed(std::string what) {
  if (!failed_) {
    failed_ = true;
    failure_ = std::move(what);
    log('!', t_tid, -1, 0);
  }
  aborting_ = true;
  cv_.notify_all();
}

std::uint64_t Scheduler::op_fail(std::string msg) {
  mark_failed(std::move(msg));
  if (!t_unwinding) {
    if (t_tid > 0) t_unwinding = true;
    throw Failure{failure_};
  }
  return 0;
}

void Scheduler::fail(std::string what) {
  std::unique_lock<std::mutex> lk(mu_);
  // Throws unless the thread is already unwinding, where throwing again
  // would terminate; the failure is latched either way.
  (void)op_fail(std::move(what));
}

void Scheduler::log(std::uint8_t kind, int tid, std::int32_t loc,
                    std::uint64_t val, std::memory_order mo) {
  if (events_.size() >= kMaxEvents) return;
  Ev e;
  e.kind = kind;
  e.tid = static_cast<std::uint8_t>(tid);
  e.mo = static_cast<std::uint8_t>(mo);
  e.loc = loc;
  e.val = val;
  events_.push_back(e);
}

std::vector<std::string> Scheduler::format_trace() const {
  std::vector<std::string> out;
  out.reserve(events_.size());
  for (const Ev& e : events_) {
    std::ostringstream os;
    os << 'T' << static_cast<int>(e.tid) << ' ';
    switch (e.kind) {
      case 'L':
        os << "load    a" << e.loc << " (" << mo_name(e.mo) << ") = "
           << e.val;
        break;
      case 'S':
        os << "store   a" << e.loc << " (" << mo_name(e.mo) << ") = "
           << e.val;
        break;
      case 'A':
        os << "rmw     a" << e.loc << " (" << mo_name(e.mo) << ") -> "
           << e.val;
        break;
      case 'r':
        os << "read    r" << e.loc;
        break;
      case 'w':
        os << "write   r" << e.loc;
        break;
      case 'y':
        os << "yield";
        break;
      case 'W':
        os << "wait    a" << e.loc << " (parks while = " << e.val << ")";
        break;
      case 'N':
        os << "notify  a" << e.loc;
        break;
      case 'f':
        os << "finish";
        break;
      case '!':
        os << "FAILURE";
        break;
      default:
        os << '?';
        break;
    }
    out.push_back(os.str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// DFS decision stack
// ---------------------------------------------------------------------------

int Scheduler::choose(bool thread_choice, std::vector<int> cands,
                      int prev_tid, bool prev_enabled) {
  if (++steps_ > opts_.max_steps) {
    mark_failed("mc: per-execution step budget exceeded");
    return cands.empty() ? -1 : cands[0];
  }
  if (cands.size() <= 1) return cands.empty() ? -1 : cands[0];
  if (pos_ < decisions_.size()) {
    Node& n = decisions_[pos_];
    if (n.thread_choice != thread_choice || n.cands != cands) {
      mark_failed("mc internal: nondeterministic body (replay mismatch)");
      return cands[0];
    }
    ++pos_;
    const int chosen = n.cands[n.chosen_idx];
    if (thread_choice && prev_enabled && chosen != prev_tid) ++cur_preempts_;
    return chosen;
  }
  Node n;
  n.thread_choice = thread_choice;
  n.cands = std::move(cands);
  n.chosen_idx = 0;
  n.prev_tid = prev_tid;
  n.prev_enabled = prev_enabled;
  n.preempts_before = cur_preempts_;
  decisions_.push_back(std::move(n));
  ++pos_;
  // cands[0] is the non-preempting default by construction.
  return decisions_.back().cands[0];
}

bool Scheduler::advance() {
  while (!decisions_.empty()) {
    Node& n = decisions_.back();
    std::size_t i = n.chosen_idx + 1;
    // Every non-default alternative of a thread node preempts the thread
    // that just ran (cands[0] == prev when prev could continue), so the
    // whole node is spent once the preemption budget is.
    if (n.thread_choice && n.prev_enabled &&
        n.preempts_before >= opts_.max_preemptions)
      i = n.cands.size();
    if (i < n.cands.size()) {
      n.chosen_idx = i;
      return true;
    }
    decisions_.pop_back();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Turnstile scheduling
// ---------------------------------------------------------------------------

std::vector<int> Scheduler::enabled_workers() {
  int unfinished = 0;
  for (std::size_t i = 1; i < threads_.size(); ++i)
    if (!threads_[i].finished) ++unfinished;
  std::vector<int> out;
  for (std::size_t i = 1; i < threads_.size(); ++i) {
    ThreadRec& r = threads_[i];
    if (r.finished) continue;
    // A yield block lifts when another thread has stored to an atomic (a
    // load elsewhere cannot change what the spinner will read, and counting
    // loads would let two pollers wake each other forever),
    // or when the thread runs alone — eventual visibility then guarantees
    // its retry reads the newest state (see atomic_load), so keeping it
    // parked would misreport a livelock.
    if (r.yielded && (r.yield_mark < stores_ || unfinished == 1))
      r.yielded = false;
    if (!r.yielded && r.futex == nullptr) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool Scheduler::grant_pending_visibility() {
  // Every live thread is parked in yield. On real hardware that is not yet
  // a lost wakeup if some spinner simply has not *seen* the newest store of
  // the location it polls — stores become visible in finite time. Model
  // that: wake every yielded thread that still has an unobserved newest
  // store, raising its coherence floors everywhere so its retry reads only
  // newest values (full eventual visibility, no clock joins — acquire
  // synchronization still only happens when it reads a release store).
  bool woke = false;
  for (std::size_t i = 1; i < threads_.size(); ++i) {
    ThreadRec& r = threads_[i];
    if (r.finished || !r.yielded) continue;
    bool pending = false;
    for (auto& [addr, L] : atomics_) {
      if (!L.alive || L.hist.empty()) continue;
      if (L.floor[i] < L.hist.size() - 1) {
        pending = true;
        break;
      }
    }
    if (!pending) continue;
    for (auto& [addr, L] : atomics_) {
      if (!L.alive || L.hist.empty()) continue;
      L.floor[i] = static_cast<std::uint32_t>(L.hist.size() - 1);
    }
    r.yielded = false;
    woke = true;
  }
  return woke;
}

void Scheduler::schedule_next(int me, std::unique_lock<std::mutex>& lk) {
  std::vector<int> cands;
  {
    const std::vector<int> en = enabled_workers();
    cands.reserve(en.size());
    cands.push_back(me);  // default: keep running (never a preemption)
    for (const int t : en)
      if (t != me) cands.push_back(t);
  }
  const int next = choose(true, std::move(cands), me, true);
  if (aborting_) {
    if (!t_unwinding) {
      t_unwinding = true;
      throw Abort{};
    }
    return;
  }
  if (next == me) return;
  running_ = next;
  cv_.notify_all();
  cv_.wait(lk, [&] { return running_ == me || aborting_; });
  if (aborting_ && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
}

int Scheduler::spawn(std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (concurrent_) return static_cast<int>(op_fail("mc: spawn after join_all"));
  const int tid = static_cast<int>(threads_.size());
  if (tid >= kMaxThreads)
    return static_cast<int>(op_fail("mc: too many threads"));
  bump_epoch(0);  // spawn is an ordering point: child inherits the clock
  threads_.emplace_back();
  ThreadRec& r = threads_.back();
  r.fn = std::move(fn);
  r.clock = threads_[0].clock;
  r.epoch = 1;
  r.clock[static_cast<std::size_t>(tid)] = 1;
  r.th = std::thread([this, tid] { worker_entry(tid); });
  return tid;
}

void Scheduler::worker_entry(int tid) {
  t_sched = this;
  t_tid = tid;
  t_unwinding = false;
  try {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return running_ == tid || aborting_; });
      if (aborting_) throw Abort{};
      fn = std::move(threads_[static_cast<std::size_t>(tid)].fn);
    }
    fn();
  } catch (const Abort&) {
  } catch (Failure& f) {
    std::unique_lock<std::mutex> lk(mu_);
    mark_failed(std::move(f.what));  // first failure wins
  }
  // Exit protocol: hand the turn off (or detect livelock). Never throws.
  std::unique_lock<std::mutex> lk(mu_);
  ThreadRec& me = threads_[static_cast<std::size_t>(tid)];
  me.finished = true;
  me.yielded = false;
  log('f', tid, -1, 0);
  if (!aborting_) {
    std::vector<int> en = enabled_workers();
    if (en.empty() && grant_pending_visibility()) en = enabled_workers();
    if (en.empty()) {
      bool any_unfinished = false;
      for (std::size_t i = 1; i < threads_.size(); ++i)
        if (!threads_[i].finished) any_unfinished = true;
      if (any_unfinished)
        mark_failed("mc: livelock — all live threads yielded (lost wakeup)");
    } else {
      std::vector<int> cands(en);
      const int next = choose(true, std::move(cands), tid,
                              /*prev_enabled=*/false);
      if (!aborting_) running_ = next;
    }
  }
  cv_.notify_all();
}

void Scheduler::join_all() {
  std::unique_lock<std::mutex> lk(mu_);
  bool any_unfinished = false;
  for (std::size_t i = 1; i < threads_.size(); ++i)
    if (!threads_[i].finished) any_unfinished = true;
  if (any_unfinished && !concurrent_) {
    concurrent_ = true;
    if (!aborting_) {
      std::vector<int> cands = enabled_workers();
      running_ = choose(true, std::move(cands), /*prev_tid=*/-1,
                        /*prev_enabled=*/false);
    }
    cv_.notify_all();
    cv_.wait(lk, [&] {
      for (std::size_t i = 1; i < threads_.size(); ++i)
        if (!threads_[i].finished) return false;
      return true;
    });
    concurrent_ = false;
  }
  running_ = 0;
  lk.unlock();
  for (std::size_t i = 1; i < threads_.size(); ++i)
    if (threads_[i].th.joinable()) threads_[i].th.join();
  // join_all is the teardown barrier: main inherits every worker's clock,
  // so post-checks read final values and teardown raw access is ordered.
  for (std::size_t i = 1; i < threads_.size(); ++i)
    join_clock(threads_[0].clock, threads_[i].clock);
  bump_epoch(0);
}

// ---------------------------------------------------------------------------
// Atomic locations
// ---------------------------------------------------------------------------

Scheduler::AtomicLoc* Scheduler::lookup_atomic(const void* loc) {
  const auto it = atomics_.find(loc);
  if (it == atomics_.end() || !it->second.alive) return nullptr;
  return &it->second;
}

Scheduler::RawLoc* Scheduler::lookup_raw(const void* loc) {
  const auto it = raws_.find(loc);
  if (it == raws_.end() || !it->second.alive) return nullptr;
  return &it->second;
}

void Scheduler::reg_atomic(const void* loc, std::uint64_t init) {
  std::unique_lock<std::mutex> lk(mu_);
  AtomicLoc fresh;  // address reuse after delete re-registers cleanly
  fresh.id = next_loc_id_++;
  Store s;
  s.value = init;
  s.tid = t_tid;
  s.epoch = threads_[static_cast<std::size_t>(t_tid)].epoch;
  // Initialization is NOT a release store: readers that find it without
  // synchronizing see the value (coherence) but inherit no ordering.
  fresh.hist.push_back(s);
  atomics_[loc] = std::move(fresh);
}

void Scheduler::unreg_atomic(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = atomics_.find(loc);
  if (it != atomics_.end()) it->second.alive = false;
}

std::uint64_t Scheduler::atomic_load(const void* loc, std::memory_order mo) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  AtomicLoc* L = lookup_atomic(loc);
  if (L == nullptr) {
    if (aborting_) return 0;  // latched failure; teardown must not throw
    return op_fail("mc: atomic load from dead location");
  }
  ThreadRec& T = threads_[static_cast<std::size_t>(tid)];
  const bool scheduled = concurrent_ && tid > 0 && !aborting_;

  const int newest = static_cast<int>(L->hist.size()) - 1;
  // A load may not return a store older than (a) what this thread already
  // read/wrote here (coherence floor) or (b) the newest store it knows of
  // via happens-before.
  int lb = static_cast<int>(L->floor[static_cast<std::size_t>(tid)]);
  for (int k = newest; k > lb; --k) {
    const Store& s = L->hist[static_cast<std::size_t>(k)];
    if (T.clock[static_cast<std::size_t>(s.tid)] >= s.epoch) {
      lb = k;
      break;
    }
  }
  int idx = newest;
  if (scheduled && lb < newest) {
    // Stale results are explored only while another live thread exists
    // (a thread running alone models eventual visibility: newest only,
    // which is what makes quiescent spin loops terminate) and only while
    // the per-execution stale budget lasts — without the budget a spin
    // loop re-reading the same stale value would give the DFS tree
    // infinite depth.
    bool other_live = false;
    for (std::size_t i = 1; i < threads_.size(); ++i)
      if (static_cast<int>(i) != tid && !threads_[i].finished)
        other_live = true;
    if (other_live && stale_used_ < opts_.max_stale_reads) {
      std::vector<int> cands;
      cands.reserve(static_cast<std::size_t>(newest - lb) + 1);
      for (int k = newest; k >= lb; --k) cands.push_back(k);
      idx = choose(false, std::move(cands), -1, false);
      if (idx != newest) ++stale_used_;
      if (aborting_ && !t_unwinding) {
        t_unwinding = true;
        throw Abort{};
      }
    }
  }
  const Store& s = L->hist[static_cast<std::size_t>(idx)];
  L->floor[static_cast<std::size_t>(tid)] =
      std::max(L->floor[static_cast<std::size_t>(tid)],
               static_cast<std::uint32_t>(idx));
  if (is_acquire(mo)) join_clock(T.clock, s.msg);
  bump_epoch(tid);
  log('L', tid, L->id, s.value, mo);
  const std::uint64_t v = s.value;
  // L/s may dangle once another thread runs: nothing below touches them.
  if (scheduled) schedule_next(tid, lk);
  return v;
}

void Scheduler::atomic_store(const void* loc, std::uint64_t v,
                             std::memory_order mo) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  AtomicLoc* L = lookup_atomic(loc);
  if (L == nullptr) {
    if (!aborting_) (void)op_fail("mc: atomic store to dead location");
    return;
  }
  ThreadRec& T = threads_[static_cast<std::size_t>(tid)];
  const bool scheduled = concurrent_ && tid > 0 && !aborting_;
  bump_epoch(tid);
  Store s;
  s.value = v;
  s.tid = tid;
  s.epoch = T.epoch;
  s.release = is_release(mo);
  if (s.release) s.msg = T.clock;
  L->hist.push_back(s);
  L->floor[static_cast<std::size_t>(tid)] =
      static_cast<std::uint32_t>(L->hist.size() - 1);
  log('S', tid, L->id, v, mo);
  ++stores_;
  if (scheduled) schedule_next(tid, lk);
}

std::uint64_t Scheduler::atomic_rmw_add(const void* loc, std::uint64_t delta,
                                        std::memory_order mo) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  AtomicLoc* L = lookup_atomic(loc);
  if (L == nullptr) {
    if (aborting_) return 0;
    return op_fail("mc: atomic rmw on dead location");
  }
  ThreadRec& T = threads_[static_cast<std::size_t>(tid)];
  const bool scheduled = concurrent_ && tid > 0 && !aborting_;
  // An RMW reads the newest store in modification order (atomicity).
  const Store prev = L->hist.back();
  if (is_acquire(mo)) join_clock(T.clock, prev.msg);
  bump_epoch(tid);
  Store s;
  s.value = prev.value + delta;
  s.tid = tid;
  s.epoch = T.epoch;
  s.release = is_release(mo);
  // Continue the release sequence: an acquire of this RMW's store still
  // synchronizes with the head release store.
  s.msg = prev.msg;
  if (s.release) join_clock(s.msg, T.clock);
  L->hist.push_back(s);
  L->floor[static_cast<std::size_t>(tid)] =
      static_cast<std::uint32_t>(L->hist.size() - 1);
  log('A', tid, L->id, s.value, mo);
  ++stores_;
  if (scheduled) schedule_next(tid, lk);
  return prev.value;
}

void Scheduler::atomic_wait(const void* loc, std::uint64_t old) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  AtomicLoc* L = lookup_atomic(loc);
  if (L == nullptr) {
    if (!aborting_) (void)op_fail("mc: atomic wait on dead location");
    return;
  }
  const bool scheduled = concurrent_ && tid > 0 && !aborting_;
  // The futex check reads the newest store (the kernel compares under its
  // lock); it raises the coherence floor but joins no clock.
  const std::uint64_t cur = L->hist.back().value;
  L->floor[static_cast<std::size_t>(tid)] =
      static_cast<std::uint32_t>(L->hist.size() - 1);
  bump_epoch(tid);
  log('W', tid, L->id, old);
  if (!scheduled) return;
  if (cur != old) {
    schedule_next(tid, lk);
    return;
  }
  ThreadRec& me = threads_[static_cast<std::size_t>(tid)];
  me.futex = loc;
  std::vector<int> en = enabled_workers();  // excludes me now
  if (en.empty() && grant_pending_visibility()) en = enabled_workers();
  if (en.empty()) {
    me.futex = nullptr;
    (void)op_fail("mc: livelock — all live threads parked (lost wakeup)");
    return;
  }
  const int next = choose(true, std::move(en), tid, /*prev_enabled=*/false);
  if (aborting_) {
    if (!t_unwinding) {
      t_unwinding = true;
      throw Abort{};
    }
    return;
  }
  running_ = next;
  cv_.notify_all();
  cv_.wait(lk, [&] { return running_ == tid || aborting_; });
  if (aborting_ && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
}

void Scheduler::atomic_notify(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  AtomicLoc* L = lookup_atomic(loc);
  if (L == nullptr) {
    if (!aborting_) (void)op_fail("mc: atomic notify on dead location");
    return;
  }
  for (std::size_t i = 1; i < threads_.size(); ++i)
    if (threads_[i].futex == loc) threads_[i].futex = nullptr;
  bump_epoch(tid);
  log('N', tid, L->id, 0);
  if (concurrent_ && tid > 0 && !aborting_) schedule_next(tid, lk);
}

// ---------------------------------------------------------------------------
// Raw (race-checked) cells
// ---------------------------------------------------------------------------

void Scheduler::reg_raw(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  RawLoc fresh;
  fresh.id = next_loc_id_++;
  fresh.w_tid = t_tid;
  fresh.w_epoch = threads_[static_cast<std::size_t>(t_tid)].epoch;
  raws_[loc] = std::move(fresh);
}

void Scheduler::unreg_raw(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = raws_.find(loc);
  if (it != raws_.end()) it->second.alive = false;
}

void Scheduler::raw_read(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  if (aborting_) return;  // unwinding teardown: checks are moot
  RawLoc* R = lookup_raw(loc);
  if (R == nullptr) {
    (void)op_fail("mc: use-after-free — read of destroyed slot");
    return;
  }
  ThreadRec& T = threads_[static_cast<std::size_t>(tid)];
  if (R->w_tid >= 0 && R->w_tid != tid &&
      T.clock[static_cast<std::size_t>(R->w_tid)] < R->w_epoch) {
    std::ostringstream os;
    os << "mc: data race — T" << tid << " reads slot r" << R->id
       << " unordered with T" << R->w_tid << "'s write";
    (void)op_fail(os.str());
    return;
  }
  bump_epoch(tid);
  for (auto& [rt, re] : R->readers) {
    if (rt == tid) {
      re = T.epoch;
      log('r', tid, R->id, 0);
      return;
    }
  }
  R->readers.emplace_back(tid, T.epoch);
  log('r', tid, R->id, 0);
}

void Scheduler::raw_write(const void* loc) {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  if (aborting_) return;
  RawLoc* R = lookup_raw(loc);
  if (R == nullptr) {
    (void)op_fail("mc: use-after-free — write to destroyed slot");
    return;
  }
  ThreadRec& T = threads_[static_cast<std::size_t>(tid)];
  if (R->w_tid >= 0 && R->w_tid != tid &&
      T.clock[static_cast<std::size_t>(R->w_tid)] < R->w_epoch) {
    std::ostringstream os;
    os << "mc: data race — T" << tid << " writes slot r" << R->id
       << " unordered with T" << R->w_tid << "'s write";
    (void)op_fail(os.str());
    return;
  }
  for (const auto& [rt, re] : R->readers) {
    if (rt != tid && T.clock[static_cast<std::size_t>(rt)] < re) {
      std::ostringstream os;
      os << "mc: data race — T" << tid << " writes slot r" << R->id
         << " unordered with T" << rt << "'s read";
      (void)op_fail(os.str());
      return;
    }
  }
  bump_epoch(tid);
  R->w_tid = tid;
  R->w_epoch = T.epoch;
  R->readers.clear();
  log('w', tid, R->id, 0);
}

// ---------------------------------------------------------------------------
// yield
// ---------------------------------------------------------------------------

void Scheduler::yield() {
  std::unique_lock<std::mutex> lk(mu_);
  const int tid = t_tid;
  if (aborting_ && tid > 0 && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
  if (!concurrent_ || tid == 0 || aborting_) return;
  int unfinished_others = 0;
  for (std::size_t i = 1; i < threads_.size(); ++i)
    if (static_cast<int>(i) != tid && !threads_[i].finished)
      ++unfinished_others;
  // Running alone: retries read the newest state (eventual visibility),
  // so just keep spinning — a spin that can never succeed then burns the
  // deterministic step budget, which reports the bug.
  if (unfinished_others == 0) return;
  ThreadRec& me = threads_[static_cast<std::size_t>(tid)];
  me.yielded = true;
  me.yield_mark = stores_;
  log('y', tid, -1, 0);
  std::vector<int> en = enabled_workers();  // excludes me now
  if (en.empty() && grant_pending_visibility()) en = enabled_workers();
  if (en.empty()) {
    me.yielded = false;
    // Every other live thread is parked in yield too and nobody has an
    // unobserved store left: nobody can ever perform the visible op each
    // of us is spinning for (lost wakeup).
    (void)op_fail("mc: livelock — all live threads yielded");
    return;
  }
  if (!me.yielded) {
    // grant_pending_visibility woke us: retry immediately with the raised
    // floors instead of parking.
    return;
  }
  const int next = choose(true, std::vector<int>(en), tid,
                          /*prev_enabled=*/false);
  if (aborting_) {
    if (!t_unwinding) {
      t_unwinding = true;
      throw Abort{};
    }
    return;
  }
  running_ = next;
  cv_.notify_all();
  cv_.wait(lk, [&] { return running_ == tid || aborting_; });
  if (aborting_ && !t_unwinding) {
    t_unwinding = true;
    throw Abort{};
  }
}

}  // namespace detail

void yield() {
  if (detail::Scheduler* s = detail::tls()) s->yield();
}

Result explore(const Options& opts,
               const std::function<void(Execution&)>& body) {
  detail::Scheduler sched(opts);
  Result res;
  for (;;) {
    sched.begin_execution();
    Execution ex(sched);
    try {
      body(ex);
    } catch (detail::Failure& f) {
      // Failure is latched in the scheduler by op_fail; nothing to do.
      (void)f;
    } catch (const detail::Abort&) {
    }
    sched.join_all();  // idempotent: reaps workers even if the body threw
    detail::t_sched = nullptr;
    ++res.executions;
    if (sched.failed()) {
      res.failed = true;
      res.failure = sched.failure();
      res.trace = sched.format_trace();
      return res;
    }
    if (res.executions >= opts.max_executions) return res;
    if (!sched.advance()) {
      res.complete = true;
      return res;
    }
  }
}

}  // namespace foam::mc
