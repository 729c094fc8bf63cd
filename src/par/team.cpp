#include "par/team.hpp"

#include <sched.h>

#include <algorithm>

#include "base/error.hpp"

namespace foam::par {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int checked_members(int members) {
  FOAM_REQUIRE(members >= 1 && members <= kMaxTeamMembers,
               "team of " << members << " members (1.." << kMaxTeamMembers
                          << ")");
  return members;
}

}  // namespace

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int auto_team_helpers(int cpus, int world_size) {
  FOAM_REQUIRE(world_size > 0, "world size " << world_size);
  const int spare = std::max(0, cpus - world_size) / world_size;
  return std::min(spare, kMaxTeamMembers - 1);
}

Team::Team(int members)
    : slots_(static_cast<std::size_t>(checked_members(members))),
      sync_(members - 1, kSpinNs) {
  helpers_.reserve(static_cast<std::size_t>(members - 1));
  try {
    for (int m = 1; m < members; ++m)
      helpers_.emplace_back([this, m] { helper_loop(m); });
  } catch (...) {
    stop_helpers();  // the ones already started
    throw;
  }
}

Team::~Team() { stop_helpers(); }

void Team::stop_helpers() {
  if (helpers_.empty()) return;
  job_ = Job{};  // fn == nullptr: stop
  sync_.publish();
  for (auto& t : helpers_) t.join();
  helpers_.clear();
}

double Team::helper_busy_seconds() const {
  std::int64_t ns = 0;
  for (std::size_t m = 1; m < slots_.size(); ++m) ns += slots_[m].busy_ns;
  return static_cast<double>(ns) * 1e-9;
}

void Team::run_job(int n, Thunk fn, void* ctx) {
  job_ = Job{fn, ctx, n};
  const std::uint32_t epoch = sync_.publish();
  std::exception_ptr own;
  const Range mine = chunk(n, size(), 0);
  if (mine.count() > 0) {
    try {
      fn(ctx, 0, mine.lo, mine.hi);
    } catch (...) {
      // Held, not swallowed: rethrown below once every helper has joined,
      // because the helpers may still be writing into the caller's frame.
      own = std::current_exception();
    }
  }
  const std::int64_t t0 = now_ns();
  sync_.await_helpers(epoch);
  join_wait_ns_ += now_ns() - t0;
  // One job, one rethrown error: the caller's own first, then the helpers'
  // by member; every slot is cleared so the next job starts clean.
  std::exception_ptr first = std::move(own);
  for (std::size_t m = 1; m < slots_.size(); ++m) {
    if (!first) first = slots_[m].error;
    slots_[m].error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void Team::helper_loop(int member) {
  Slot& slot = slots_[static_cast<std::size_t>(member)];
  std::uint32_t seen = 0;
  for (;;) {
    seen = sync_.await_epoch(seen);
    const Job job = job_;
    if (job.fn == nullptr) return;
    const Range r = chunk(job.n, size(), member);
    if (r.count() > 0) {
      const std::int64_t t0 = now_ns();
      try {
        job.fn(job.ctx, member, r.lo, r.hi);
      } catch (...) {
        // Collected for the caller, which rethrows it after the join.
        slot.error = std::current_exception();
      }
      slot.busy_ns += now_ns() - t0;
    }
    sync_.complete(seen);
  }
}

}  // namespace foam::par
