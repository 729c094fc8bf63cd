/// \file test_mc.cpp
/// The model-checking suite for the lock-free runtime.
///
/// Part 1 — litmus self-tests: known weak-memory and concurrency outcomes
/// that validate the checker itself (stale relaxed reads are explored,
/// release/acquire edges synchronize, races / use-after-free / livelock
/// are detected).
///
/// Part 2 — exhaustive protocol checks: the *production* templates from
/// par/spsc.hpp and telemetry/slots.hpp instantiated with mc::ModelAtomics
/// and explored over every schedule in the bounded space (r.complete is
/// asserted, so these are proofs over the bound, not samples): FIFO order
/// with ring wraparound, ring -> spill overflow with sequence merge,
/// stub-queue reclamation safety, heartbeat done-publication, and the
/// par::Team fork-join handshake (publish, complete, park/wake).
///
/// Part 3 — mutation gates: the same protocols under
/// mc::DemoteRelease<ModelAtomics> (every release edge weakened to
/// relaxed) must FAIL. A gate that passes would mean the checker cannot
/// see the bug class the ordering exists to prevent — so the gates guard
/// the checker and the comments in spsc.hpp / slots.hpp at once.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "mc/mc.hpp"
#include "par/comm.hpp"
#include "par/spsc.hpp"
#include "par/team.hpp"
#include "telemetry/slots.hpp"

namespace mc = foam::mc;
namespace par = foam::par;
namespace telemetry = foam::telemetry;

namespace {

mc::Options small_opts() {
  mc::Options o;
  o.max_preemptions = 3;
  return o;
}

// ---------------------------------------------------------------------------
// Part 1: litmus self-tests.
// ---------------------------------------------------------------------------

// Store buffering: with relaxed ordering both threads may read the other's
// location as still 0 (each misses the other's unsynchronized store). The
// checker must reach that outcome — it is what distinguishes a weak-memory
// model from naive sequential consistency.
TEST(McLitmus, StoreBufferingRelaxedBothZeroReachable) {
  bool both_zero = false;
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    mc::atomic<int> x{0};
    mc::atomic<int> y{0};
    int r1 = -1;
    int r2 = -1;
    ex.spawn([&] {
      x.store(1, std::memory_order_relaxed);
      r1 = y.load(std::memory_order_relaxed);
    });
    ex.spawn([&] {
      y.store(1, std::memory_order_relaxed);
      r2 = x.load(std::memory_order_relaxed);
    });
    ex.join_all();
    if (!ex.failed()) {
      MC_ASSERT(r1 == 0 || r1 == 1);
      MC_ASSERT(r2 == 0 || r2 == 1);
      if (r1 == 0 && r2 == 0) both_zero = true;
    }
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.executions, 1u);
  EXPECT_TRUE(both_zero);
}

// Message passing done right: release store of the flag, acquire load by
// the reader. Every schedule must be race-free and the reader, once it
// sees the flag, must see the data.
TEST(McLitmus, MessagePassingReleaseAcquireClean) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    mc::raw<int> data;
    mc::atomic<bool> flag{false};
    ex.spawn([&] {
      data.write() = 42;
      flag.store(true, std::memory_order_release);
    });
    ex.spawn([&] {
      if (flag.load(std::memory_order_acquire)) MC_ASSERT(data.read() == 42);
    });
    ex.join_all();
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
}

// Message passing done wrong: a relaxed flag store publishes nothing, so
// the reader's plain access to the data is a data race the checker must
// catch (this is exactly the bug class the mutation gates reintroduce).
TEST(McLitmus, MessagePassingRelaxedIsRace) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    mc::raw<int> data;
    mc::atomic<bool> flag{false};
    ex.spawn([&] {
      data.write() = 42;
      flag.store(true, std::memory_order_relaxed);
    });
    ex.spawn([&] {
      if (flag.load(std::memory_order_acquire)) (void)data.read();
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
  EXPECT_FALSE(r.trace.empty());
}

// Two unsynchronized writers to one plain cell.
TEST(McLitmus, ConcurrentRawWritesAreRace) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    mc::raw<int> cell;
    ex.spawn([&] { cell.write() = 1; });
    ex.spawn([&] { cell.write() = 2; });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

// Access to a destroyed slot is reported as use-after-free, not as silent
// garbage — the property the stub-queue reclamation checks lean on.
TEST(McLitmus, UseAfterFreeDetected) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    alignas(mc::raw<int>) std::byte buf[sizeof(mc::raw<int>)];
    auto* cell = new (buf) mc::raw<int>();
    cell->write() = 7;
    cell->~raw();
    // Read through the dead object (storage itself stays valid — this is
    // deliberately the bug under test, so silence the lifetime warning).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
    (void)std::launder(cell)->read();
#pragma GCC diagnostic pop
    ex.join_all();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("use-after-free"), std::string::npos) << r.failure;
}

// All live threads parked in mc::yield() with nobody left to wake them is
// the checker's model of a lost wakeup.
TEST(McLitmus, AllYieldedIsLivelock) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    ex.spawn([&] { mc::yield(); });
    ex.spawn([&] { mc::yield(); });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("livelock"), std::string::npos) << r.failure;
}

// A spin that can never succeed burns the per-execution step budget — the
// backstop that keeps a broken protocol from hanging the suite.
TEST(McLitmus, RunawaySpinHitsStepBudget) {
  mc::Options o = small_opts();
  o.max_steps = 500;
  const auto r = mc::explore(o, [&](mc::Execution& ex) {
    mc::atomic<int> never{0};
    ex.spawn([&] {
      while (never.load(std::memory_order_acquire) == 0) mc::yield();
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("step budget"), std::string::npos) << r.failure;
}

// ---------------------------------------------------------------------------
// Part 2: exhaustive protocol checks (production templates, ModelAtomics).
// ---------------------------------------------------------------------------

// SpscRing: every interleaving of a producer pushing kN values through a
// capacity-2 ring (forcing wraparound and the full-ring retry path) against
// a consumer popping them delivers exactly kN values in FIFO order.
TEST(McRing, ExhaustiveFifoThroughWraparound) {
  constexpr int kN = 3;
  mc::Options o = small_opts();
  o.max_preemptions = 2;  // 2 switches reach every index/slot hazard pair
  const auto r = mc::explore(o, [&](mc::Execution& ex) {
    par::SpscRing<int, 2, mc::ModelAtomics> ring;
    ex.spawn([&] {  // producer
      for (int i = 1; i <= kN; ++i) {
        int v = i;
        while (!ring.try_push(std::move(v))) mc::yield();
      }
    });
    ex.spawn([&] {  // consumer
      for (int i = 1; i <= kN; ++i) {
        mc::raw<int>* f = nullptr;
        while ((f = ring.front()) == nullptr) mc::yield();
        MC_ASSERT(mc::ModelAtomics::read(*f) == i);  // FIFO, no loss/dup
        ring.pop();
      }
    });
    ex.join_all();
    if (!ex.failed()) MC_ASSERT(ring.front() == nullptr);  // drained
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete) << "schedule space not exhausted: " << r.executions;
  EXPECT_GT(r.executions, 1u);
}

// StubQueue: FIFO delivery while the consumer reclaims nodes concurrently
// with the producer appending — r.complete makes this an exhaustive proof
// that pop()'s delete can never free a node the producer still touches.
TEST(McStubQueue, ExhaustiveFifoAndReclamation) {
  constexpr int kN = 3;
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    par::StubQueue<int, mc::ModelAtomics> q;
    ex.spawn([&] {  // producer
      for (int i = 1; i <= kN; ++i) q.push(int{i});
    });
    ex.spawn([&] {  // consumer
      for (int i = 1; i <= kN; ++i) {
        mc::raw<int>* f = nullptr;
        while ((f = q.front()) == nullptr) mc::yield();
        MC_ASSERT(mc::ModelAtomics::read(*f) == i);
        q.pop();
      }
    });
    ex.join_all();
    if (!ex.failed()) MC_ASSERT(q.front() == nullptr);
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete) << "schedule space not exhausted: " << r.executions;
}

// StubQueue teardown with messages still queued: the destructor walk must
// be safe in every schedule (the consumer stops early; nodes it never
// popped are reclaimed single-threaded after join).
TEST(McStubQueue, DestructorReclaimsQueuedNodes) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    par::StubQueue<int, mc::ModelAtomics> q;
    ex.spawn([&] {
      q.push(1);
      q.push(2);
      q.push(3);
    });
    ex.spawn([&] {  // consumes at most one, then walks away
      mc::raw<int>* f = q.front();
      if (f != nullptr) {
        MC_ASSERT(mc::ModelAtomics::read(*f) == 1);
        q.pop();
      }
    });
    ex.join_all();
  });  // ~StubQueue runs here, inside the execution, with nodes queued
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
}

// SpscChannel: a 2-slot ring forces overflow into the spill lane; the
// consumer must reassemble exact send order from the two lanes via the
// channel_seq merge in every interleaving.
TEST(McChannel, ExhaustiveRingSpillMerge) {
  struct Msg {
    std::uint64_t channel_seq = 0;
    int payload = 0;
  };
  constexpr int kN = 4;  // 2 ring slots + up to 2 spilled
  mc::Options o = small_opts();
  o.max_preemptions = 2;  // 2 switches reach every lane mix; keeps CI fast
  const auto r = mc::explore(o, [&](mc::Execution& ex) {
    par::SpscChannel<Msg, 2, mc::ModelAtomics> ch;
    ex.spawn([&] {  // producer: never blocks (ring first, spill after)
      for (int i = 1; i <= kN; ++i) ch.push(Msg{0, i});
    });
    ex.spawn([&] {  // consumer
      for (int i = 1; i <= kN; ++i) {
        Msg m;
        while (!ch.pop_next(m)) mc::yield();
        MC_ASSERT(m.payload == i);  // exact send order across both lanes
        MC_ASSERT(m.channel_seq == static_cast<std::uint64_t>(i - 1));
      }
    });
    ex.join_all();
    if (!ex.failed()) {
      Msg m;
      MC_ASSERT(!ch.pop_next(m));          // nothing left
      MC_ASSERT(ch.depth_estimate() == 0);  // producer's view agrees
    }
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete) << "schedule space not exhausted: " << r.executions;
}

// The runtime's real Message (inline Payload fast path and zero-copy
// rendezvous adopt/try_move_out) through the model-checked channel: the
// handoff must deliver intact bytes / buffers in order, with no race on
// the slot and no use-after-free from the spill lane's reclamation.
TEST(McChannel, MessagePayloadHandoff) {
  bool moved_out = false;
  mc::Options o = small_opts();
  o.max_preemptions = 2;
  const auto r = mc::explore(o, [&](mc::Execution& ex) {
    par::SpscChannel<par::detail::Message, 2, mc::ModelAtomics> ch;
    ex.spawn([&] {  // producer: one inline (fast path), one adopted vector
      par::detail::Message small;
      small.tag = 7;
      const std::int32_t word = 0x5ca1ab1e;
      small.payload.assign(&word, sizeof word);
      ch.push(std::move(small));

      par::detail::Message big;
      big.tag = 8;
      big.payload.adopt(std::vector<double>{1.5, 2.5, 3.5});
      ch.push(std::move(big));
    });
    ex.spawn([&] {  // consumer
      for (int i = 0; i < 2; ++i) {
        par::detail::Message m;
        while (!ch.pop_next(m)) mc::yield();
        if (i == 0) {
          MC_ASSERT(m.tag == 7);
          MC_ASSERT(m.payload.inlined());
          MC_ASSERT(m.payload.size() == sizeof(std::int32_t));
          std::int32_t w = 0;
          std::memcpy(&w, m.payload.data(), sizeof w);
          MC_ASSERT(w == 0x5ca1ab1e);
        } else {
          MC_ASSERT(m.tag == 8);
          MC_ASSERT(m.payload.owned());
          std::vector<double> v;
          MC_ASSERT(m.payload.try_move_out(v));
          MC_ASSERT(v.size() == 3 && v[0] == 1.5 && v[2] == 3.5);
          moved_out = true;
        }
      }
    });
    ex.join_all();
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(moved_out);
}

// HeartbeatSlot: a reader that acquires done == true must observe the
// final beat count and day — the invariant the run-status feed's "rank
// finished" line relies on.
TEST(McHeartbeat, DonePublishesFinalCounts) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    telemetry::HeartbeatSlotT<mc::ModelAtomics> hb;
    ex.spawn([&] {  // owning rank
      hb.beat_at(1.0, 11);
      hb.beat_at(2.0, 22);
      hb.set_op("halo");
      hb.mark_done();
    });
    ex.spawn([&] {  // monitor
      while (!hb.is_done()) mc::yield();
      MC_ASSERT(hb.beats_now() == 2);
      MC_ASSERT(hb.day_now() == 2.0);
    });
    ex.join_all();
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
}

// ProfileLeaf: a racy sample returns some actually-published word (never a
// torn or invented one), and the pulse counter is monotone per reader.
TEST(McProfileLeaf, SampleIsSomePublishedWord) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    telemetry::ProfileLeafT<mc::ModelAtomics> leaf;
    ex.spawn([&] {  // tracer
      leaf.publish(0x70001);
      leaf.pulse();
      leaf.publish(0x70002);
      leaf.pulse();
    });
    ex.spawn([&] {  // monitor
      const std::uint64_t w = leaf.sample();
      MC_ASSERT(w == 0 || w == 0x70001 || w == 0x70002);
      const std::uint64_t p1 = leaf.pulses();
      const std::uint64_t p2 = leaf.pulses();
      MC_ASSERT(p1 <= p2 && p2 <= 2);
    });
    ex.join_all();
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.complete);
}

// The par::Team fork-join handshake: a caller publishing \p jobs jobs to
// \p helpers helpers (then the stop job), each helper writing its own
// result slot. Every schedule must finish (no lost wake-up: a waiter that
// parks on atomic::wait is always woken), the helpers must see each job
// the caller wrote, and the caller must see every helper's result after
// the join — the raw slots turn any missing edge into a reported race.
template <typename Policy>
void fork_join_rounds(mc::Execution& ex, par::detail::ForkJoin<Policy>& fj,
                      int helpers, int jobs, mc::raw<int>& job,
                      std::array<mc::raw<int>, 2>& out) {
  ex.spawn([&, helpers, jobs] {  // member 0: the rank thread
    for (int j = 1; j <= jobs; ++j) {
      job.write() = j;
      const std::uint32_t e = fj.publish();
      fj.await_helpers(e);
      for (int h = 0; h < helpers; ++h)
        MC_ASSERT(out[static_cast<std::size_t>(h)].read() == 10 * j + h);
    }
    job.write() = 0;  // stop
    fj.publish();
  });
  for (int h = 0; h < helpers; ++h) {
    ex.spawn([&, h] {  // helpers
      std::uint32_t seen = 0;
      for (;;) {
        seen = fj.await_epoch(seen);
        const int j = job.read();
        if (j == 0) return;
        out[static_cast<std::size_t>(h)].write() = 10 * j + h;
        fj.complete(seen);
      }
    });
  }
  ex.join_all();
}

// Two bounds, each exhausted: one helper through two jobs and the stop
// (epoch reuse, park/wake across rounds) at 3 preemptions, and two helpers
// through one job (the completion count chaining both helpers' writes to
// the caller) at 1 — two helpers at higher bounds run for minutes.
TEST(McTeam, ForkJoinCompletesWithoutLostWakeup) {
  struct Bound {
    int helpers, jobs, preemptions;
  };
  for (const Bound b : {Bound{1, 2, 3}, Bound{2, 1, 1}}) {
    mc::Options o = small_opts();
    o.max_preemptions = b.preemptions;
    const auto r = mc::explore(o, [&](mc::Execution& ex) {
      par::detail::ForkJoin<mc::ModelAtomics> fj(b.helpers, /*spin_ns=*/0);
      mc::raw<int> job;
      std::array<mc::raw<int>, 2> out;
      fork_join_rounds(ex, fj, b.helpers, b.jobs, job, out);
    });
    EXPECT_FALSE(r.failed) << b.helpers << " helper(s): " << r.failure;
    EXPECT_TRUE(r.complete) << b.helpers << " helper(s): schedule space not "
                            << "exhausted after " << r.executions;
    EXPECT_GT(r.executions, 1u);
  }
}

// The checker's wait model must catch the lost wake-up the team's waits
// avoid: re-loading the counter to pick the value to wait on. When the
// last increment lands between the check and that re-load, the waiter
// sleeps on the final value and nothing ever notifies it again.
TEST(McTeam, ReloadedWaitValueLosesWakeup) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    mc::atomic<std::uint32_t> done{0};
    ex.spawn([&] {
      while (done.load(std::memory_order_acquire) != 1)
        done.wait(done.load(std::memory_order_acquire),
                  std::memory_order_acquire);
    });
    ex.spawn([&] {
      done.fetch_add(1, std::memory_order_acq_rel);
      done.notify_one();
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed) << "a lost wake-up was not caught";
  EXPECT_NE(r.failure.find("livelock"), std::string::npos) << r.failure;
}

// ---------------------------------------------------------------------------
// Part 3: mutation gates. Each gate weakens every release edge of one
// production protocol (DemoteRelease) and asserts the checker FAILS —
// proving both that the ordering is load-bearing and that the checker can
// see the bug class it prevents.
// ---------------------------------------------------------------------------

using Demoted = mc::DemoteRelease<mc::ModelAtomics>;

// Gate RingPublish: tail_.store(release) in SpscRing::try_push demoted to
// relaxed. The consumer can now observe the new tail without the slot
// write — a data race on the slot.
TEST(McMutation, RingPublishWeakeningCaught) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    par::SpscRing<int, 2, Demoted> ring;
    ex.spawn([&] {
      int v = 1;
      while (!ring.try_push(std::move(v))) mc::yield();
    });
    ex.spawn([&] {
      mc::raw<int>* f = nullptr;
      while ((f = ring.front()) == nullptr) mc::yield();
      (void)Demoted::read(*f);
      ring.pop();
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed) << "weakened RingPublish edge was not caught";
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

// Gate StubQueuePush: tail_->next.store(release) in StubQueue::push
// demoted. The consumer can reach the node before its value write is
// published — a data race on the node value.
TEST(McMutation, StubQueuePushWeakeningCaught) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    par::StubQueue<int, Demoted> q;
    ex.spawn([&] { q.push(1); });
    ex.spawn([&] {
      mc::raw<int>* f = nullptr;
      while ((f = q.front()) == nullptr) mc::yield();
      (void)Demoted::read(*f);
      q.pop();
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed) << "weakened StubQueuePush edge was not caught";
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

// Gate HeartbeatPublish: mark_done()'s release demoted. A monitor that
// sees done == true may now legally read a stale beat count — the
// done-implies-final-counts invariant breaks.
TEST(McMutation, HeartbeatPublishWeakeningCaught) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    telemetry::HeartbeatSlotT<Demoted> hb;
    ex.spawn([&] {
      hb.beat_at(1.0, 11);
      hb.beat_at(2.0, 22);
      hb.mark_done();
    });
    ex.spawn([&] {
      while (!hb.is_done()) mc::yield();
      MC_ASSERT(hb.beats_now() == 2);
    });
    ex.join_all();
  });
  EXPECT_TRUE(r.failed) << "weakened HeartbeatPublish edge was not caught";
  EXPECT_NE(r.failure.find("MC_ASSERT"), std::string::npos) << r.failure;
}

// Gate TeamPublish: epoch_.store(release) in ForkJoin::publish demoted to
// relaxed (and complete()'s acq_rel to acquire). A helper can now see the
// new epoch without the job the caller wrote — a data race on the job.
TEST(McMutation, TeamPublishWeakeningCaught) {
  const auto r = mc::explore(small_opts(), [&](mc::Execution& ex) {
    par::detail::ForkJoin<Demoted> fj(1, /*spin_ns=*/0);
    mc::raw<int> job;
    std::array<mc::raw<int>, 2> out;
    fork_join_rounds(ex, fj, /*helpers=*/1, /*jobs=*/1, job, out);
  });
  EXPECT_TRUE(r.failed) << "weakened TeamPublish edge was not caught";
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

}  // namespace
