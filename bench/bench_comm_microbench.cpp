// Messaging-runtime microbenchmark — latency/throughput of foam::par
// point-to-point messaging over the lock-free SPSC channels:
//
//  * pingpong_latency — round-trip time of a blocking send/recv pair over
//    message size, 2 ranks, min of several trials (each trial averages
//    thousands of round trips).
//  * pingpong_pipelined_latency — the same with a window of messages in
//    flight per direction, isolating per-message cost from context
//    switches.
//  * ring_throughput — aggregate message rate of a ring flood (every rank
//    streams to its successor) over rank count and message size.
//  * rendezvous_bandwidth — isend_move -> recv_vec ownership-handoff
//    transfers, counter-verified zero-copy: the run asserts (gated) that
//    the sender recorded only zero_copy_handoffs, the receiver only
//    zero_copy_recvs, and *neither side counted a single payload memcpy
//    byte* (comm.payload_memcpy_bytes == 0).
//  * small-message fast path — an 8-byte stream must ride the inline slot
//    path (comm.fastpath_msgs, gated nonzero).
//
// Results land in BENCH_comm_microbench.json. FOAM_BENCH_QUICK=1 shortens
// every sweep for CI smoke use.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.hpp"
#include "par/comm.hpp"
#include "telemetry/telemetry.hpp"

using namespace foam;

namespace {

constexpr int kTag = 7;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Min-of-trials round-trip latency [s] of a blocking ping-pong, 2 ranks.
double pingpong_seconds(std::size_t bytes, int reps, int trials) {
  double best = 1e300;
  par::run(2, [&](par::Comm& comm) {
    std::vector<char> buf(std::max<std::size_t>(bytes, 1), 0);
    for (int trial = 0; trial < trials; ++trial) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      if (comm.rank() == 0) {
        for (int i = 0; i < reps; ++i) {
          comm.send_bytes(1, kTag, buf.data(), bytes);
          comm.recv_bytes(1, kTag, buf.data(), buf.size());
        }
        best = std::min(best, seconds_since(t0) / reps);
      } else {
        for (int i = 0; i < reps; ++i) {
          comm.recv_bytes(0, kTag, buf.data(), buf.size());
          comm.send_bytes(0, kTag, buf.data(), bytes);
        }
      }
    }
  });
  return best;
}

/// Per-message round-trip [s] of a *pipelined* ping-pong: \p window
/// messages in flight per direction. Amortizing scheduler handoffs across
/// the window exposes the per-message runtime cost (queue ops, matching)
/// rather than context-switch latency — the honest number on hosts
/// without a spare core per rank.
double pingpong_windowed_seconds(std::size_t bytes, int window, int iters,
                                 int trials) {
  double best = 1e300;
  par::run(2, [&](par::Comm& comm) {
    std::vector<char> buf(std::max<std::size_t>(bytes, 1), 0);
    for (int trial = 0; trial < trials; ++trial) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      if (comm.rank() == 0) {
        for (int i = 0; i < iters; ++i) {
          for (int w = 0; w < window; ++w)
            comm.send_bytes(1, kTag, buf.data(), bytes);
          for (int w = 0; w < window; ++w)
            comm.recv_bytes(1, kTag, buf.data(), buf.size());
        }
        best = std::min(best, seconds_since(t0) / (iters * window));
      } else {
        for (int i = 0; i < iters; ++i) {
          for (int w = 0; w < window; ++w)
            comm.recv_bytes(0, kTag, buf.data(), buf.size());
          for (int w = 0; w < window; ++w)
            comm.send_bytes(0, kTag, buf.data(), bytes);
        }
      }
    }
  });
  return best;
}

/// Aggregate message rate [msg/s] of a ring flood: every rank streams
/// \p msgs messages to its successor while draining its predecessor.
double ring_rate(int nranks, std::size_t bytes, int msgs) {
  double rate = 0.0;
  par::run(nranks, [&](par::Comm& comm) {
    const int n = comm.size();
    const int dst = (comm.rank() + 1) % n;
    const int src = (comm.rank() + n - 1) % n;
    std::vector<char> out(std::max<std::size_t>(bytes, 1), 0);
    std::vector<char> in(out.size(), 0);
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < msgs; ++i) {
      comm.send_bytes(dst, kTag, out.data(), bytes);
      comm.recv_bytes(src, kTag, in.data(), in.size());
    }
    comm.barrier();
    if (comm.rank() == 0)
      rate = static_cast<double>(msgs) * n / seconds_since(t0);
  });
  return rate;
}

struct PathCounters {
  std::uint64_t fastpath = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t zc_recvs = 0;
  std::uint64_t memcpy_bytes = 0;
};

/// K ownership-handoff transfers of \p count doubles, rank 0 -> rank 1,
/// with per-rank telemetry sessions; returns bandwidth and both ranks'
/// zero-copy counters for the gates.
double rendezvous_run(std::size_t count, int transfers,
                      PathCounters per_rank[2]) {
  double bandwidth = 0.0;
  par::run(2, [&](par::Comm& comm) {
    telemetry::Telemetry tel;
    telemetry::ScopedSession session(tel);
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int i = 0; i < transfers; ++i) {
      if (comm.rank() == 0) {
        std::vector<double> block(count, static_cast<double>(i));
        comm.isend_move(1, kTag, std::move(block));
      } else {
        std::vector<double> block;
        comm.recv_vec(0, kTag, block);
        sink += block[0] + block[count - 1];  // touch the moved-in buffer
      }
    }
    comm.barrier();
    const double elapsed = seconds_since(t0);
    if (comm.rank() == 1 && sink < 0.0) std::printf("unreachable\n");
    if (comm.rank() == 0)
      bandwidth = static_cast<double>(transfers) * count * sizeof(double) /
                  elapsed;
    const telemetry::CommStats& cs = tel.comm();
    per_rank[comm.rank()] = {cs.fastpath_msgs, cs.zero_copy_handoffs,
                             cs.zero_copy_recvs, cs.payload_memcpy_bytes};
  });
  return bandwidth;
}

/// A small-message stream with a telemetry session: counts fast-path use.
PathCounters fastpath_run(int msgs) {
  PathCounters sender;
  par::run(2, [&](par::Comm& comm) {
    telemetry::Telemetry tel;
    telemetry::ScopedSession session(tel);
    double v = 0.0;
    if (comm.rank() == 0) {
      for (int i = 0; i < msgs; ++i) comm.send(1, kTag, v);
      sender = {tel.comm().fastpath_msgs, tel.comm().zero_copy_handoffs,
                tel.comm().zero_copy_recvs, tel.comm().payload_memcpy_bytes};
    } else {
      for (int i = 0; i < msgs; ++i) comm.recv(0, kTag, v);
    }
    comm.barrier();
  });
  return sender;
}

}  // namespace

int main() {
  const bool quick = std::getenv("FOAM_BENCH_QUICK") != nullptr;
  bench::BenchJson json("comm_microbench");
  json.set_common("quick", quick);

  // --- ping-pong latency sweep -----------------------------------------
  const std::size_t sizes[] = {0, 8, 256, 4096, 65536};
  const int trials = quick ? 2 : 3;
  std::printf("%-10s %16s\n", "bytes", "spsc [us]");
  for (const std::size_t bytes : sizes) {
    const int reps =
        (quick ? 2000 : 20000) / (bytes >= 65536 ? 10 : 1);
    const double s = pingpong_seconds(bytes, reps, trials);
    json.add("pingpong_latency", s, "s/roundtrip",
             {{"transport", "spsc"},
              {"bytes", static_cast<std::int64_t>(bytes)},
              {"ranks", 2}});
    std::printf("%-10zu %16.3f\n", bytes, s * 1e6);
  }

  // Pipelined variant: window of messages in flight per direction, so the
  // per-message number reflects runtime cost, not context switches.
  const int window = 64;
  const int witers = (quick ? 2000 : 20000) / window;
  for (const std::size_t bytes : {std::size_t{8}, std::size_t{256}}) {
    const double s = pingpong_windowed_seconds(bytes, window, witers, trials);
    json.add("pingpong_pipelined_latency", s, "s/msg",
             {{"transport", "spsc"},
              {"bytes", static_cast<std::int64_t>(bytes)},
              {"window", window},
              {"ranks", 2}});
    std::printf("pipelined %5zu B: %.3f us/msg\n", bytes, s * 1e6);
  }

  // --- ring throughput over rank count ----------------------------------
  const int rank_counts_full[] = {2, 4, 8, 16};
  const int rank_counts_quick[] = {2, 8};
  const auto* rank_counts = quick ? rank_counts_quick : rank_counts_full;
  const int n_rank_counts = quick ? 2 : 4;
  const int msgs = quick ? 2000 : 10000;
  for (int i = 0; i < n_rank_counts; ++i) {
    const int nr = rank_counts[i];
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{4096}}) {
      const double rate = ring_rate(nr, bytes, msgs);
      json.add("ring_throughput", rate, "msg/s",
               {{"transport", "spsc"},
                {"bytes", static_cast<std::int64_t>(bytes)},
                {"ranks", nr}});
      std::printf("ring %2d ranks, %5zu B: %10.0f msg/s\n", nr, bytes, rate);
    }
  }

  // --- rendezvous path: bandwidth + zero-copy counters ------------------
  const std::size_t count = std::size_t{1} << 17;  // 1 MiB of doubles
  const int transfers = quick ? 50 : 400;
  PathCounters rv[2];
  const double bw = rendezvous_run(count, transfers, rv);
  json.add("rendezvous_bandwidth", bw, "B/s",
           {{"transport", "spsc"},
            {"bytes", static_cast<std::int64_t>(count * sizeof(double))}});
  json.add("rendezvous_memcpy_bytes",
           static_cast<double>(rv[0].memcpy_bytes + rv[1].memcpy_bytes),
           "B", {{"transport", "spsc"}});
  std::printf("rendezvous: %.2f GB/s, handoffs=%llu moves=%llu "
              "memcpy_bytes=%llu (gate == 0)\n",
              bw / 1e9, static_cast<unsigned long long>(rv[0].handoffs),
              static_cast<unsigned long long>(rv[1].zc_recvs),
              static_cast<unsigned long long>(rv[0].memcpy_bytes +
                                              rv[1].memcpy_bytes));

  // --- small-message fast path ------------------------------------------
  const PathCounters fp = fastpath_run(quick ? 2000 : 20000);
  json.add("fastpath_msgs", static_cast<double>(fp.fastpath), "msgs",
           {{"transport", "spsc"}, {"bytes", 8}});

  // --- gates ------------------------------------------------------------
  FOAM_REQUIRE(rv[0].handoffs == static_cast<std::uint64_t>(transfers),
               "rendezvous gate: sender recorded " << rv[0].handoffs
                                                   << " handoffs, expected "
                                                   << transfers);
  FOAM_REQUIRE(rv[1].zc_recvs == static_cast<std::uint64_t>(transfers),
               "rendezvous gate: receiver recorded "
                   << rv[1].zc_recvs << " zero-copy move-outs, expected "
                   << transfers);
  FOAM_REQUIRE(rv[0].memcpy_bytes == 0 && rv[1].memcpy_bytes == 0,
               "rendezvous gate: payload memcpy bytes must be zero, got "
                   << rv[0].memcpy_bytes << " (send) / "
                   << rv[1].memcpy_bytes << " (recv)");
  FOAM_REQUIRE(fp.fastpath > 0,
               "fast-path gate: no messages took the inline-slot path");
  std::printf("all gates passed\n");
  return 0;
}
