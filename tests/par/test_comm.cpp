#include "par/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <vector>

namespace foam::par {
namespace {

TEST(Comm, RunLaunchesAllRanks) {
  std::atomic<int> count{0};
  run(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 5);
    ++count;
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(Comm, PointToPointDelivers) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double x = 42.5;
      comm.send(1, 7, x);
    } else {
      double x = 0.0;
      const RecvStatus st = comm.recv(0, 7, x);
      EXPECT_DOUBLE_EQ(x, 42.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(Comm, TagMatchingIsSelective) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(1, 10, a);
      comm.send(1, 20, b);
    } else {
      int v = 0;
      // Receive the later tag first: matching must skip the tag-10 message.
      comm.recv(0, 20, v);
      EXPECT_EQ(v, 2);
      comm.recv(0, 10, v);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Comm, FifoOrderWithinTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        comm.recv(0, 3, v);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Comm, AnySourceAndAnyTag) {
  run(4, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, comm.rank(), comm.rank());
    } else {
      int sum = 0;
      for (int n = 0; n < 3; ++n) {
        int v = 0;
        const RecvStatus st = comm.recv(kAnySource, kAnyTag, v);
        EXPECT_EQ(st.source, v);
        EXPECT_EQ(st.tag, v);
        sum += v;
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    }
  });
}

TEST(Comm, VectorRoundTrip) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(1000);
      std::iota(v.begin(), v.end(), 0.0);
      comm.send_vec(1, 0, v);
    } else {
      std::vector<double> v;
      comm.recv_vec(0, 0, v);
      ASSERT_EQ(v.size(), 1000u);
      EXPECT_DOUBLE_EQ(v[999], 999.0);
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  // After the barrier, every rank must observe every other rank's
  // pre-barrier increment.
  std::atomic<int> before{0};
  run(6, [&](Comm& comm) {
    ++before;
    comm.barrier();
    EXPECT_EQ(before.load(), 6);
  });
}

TEST(Comm, BcastFromEveryRoot) {
  run(3, [](Comm& comm) {
    for (int root = 0; root < 3; ++root) {
      double v = (comm.rank() == root) ? 100.0 + root : -1.0;
      comm.bcast(v, root);
      EXPECT_DOUBLE_EQ(v, 100.0 + root);
    }
  });
}

TEST(Comm, BcastVectorResizes) {
  run(2, [](Comm& comm) {
    std::vector<double> v;
    if (comm.rank() == 0) v = {1.0, 2.0, 3.0};
    comm.bcast_vec(v, 0);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[2], 3.0);
  });
}

TEST(Comm, AllreduceSumMinMax) {
  run(4, [](Comm& comm) {
    const double r = comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(r, ReduceOp::kSum), 6.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(r, ReduceOp::kMin), 0.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(r, ReduceOp::kMax), 3.0);
  });
}

TEST(Comm, AllreduceVector) {
  run(3, [](Comm& comm) {
    std::vector<double> in = {1.0 * comm.rank(), 10.0};
    std::vector<double> out(2);
    comm.allreduce(std::span<const double>(in), std::span<double>(out),
                   ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 30.0);
  });
}

TEST(Comm, GatherAndAllgather) {
  run(4, [](Comm& comm) {
    const double mine[2] = {comm.rank() * 1.0, comm.rank() * 10.0};
    std::vector<double> all(8, -1.0);
    comm.gather(mine, 2, all.data(), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(all[2 * r], r);
        EXPECT_DOUBLE_EQ(all[2 * r + 1], 10.0 * r);
      }
    }
    std::vector<double> everywhere(8, -1.0);
    comm.allgather(mine, 2, everywhere.data());
    for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(everywhere[2 * r], r);
  });
}

TEST(Comm, GathervVariableBlocks) {
  run(3, [](Comm& comm) {
    std::vector<double> mine(comm.rank() + 1, 1.0 * comm.rank());
    const std::vector<int> counts = {1, 2, 3};
    std::vector<double> out;
    comm.gatherv(mine, out, counts, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(out.size(), 6u);
      EXPECT_DOUBLE_EQ(out[0], 0.0);
      EXPECT_DOUBLE_EQ(out[1], 1.0);
      EXPECT_DOUBLE_EQ(out[2], 1.0);
      EXPECT_DOUBLE_EQ(out[5], 2.0);
    }
  });
}

TEST(Comm, AlltoallTransposes) {
  run(4, [](Comm& comm) {
    // Rank r sends value 100*r + s to rank s.
    std::vector<double> in(4), out(4);
    for (int s = 0; s < 4; ++s) in[s] = 100.0 * comm.rank() + s;
    comm.alltoall(in.data(), out.data(), 1);
    for (int s = 0; s < 4; ++s)
      EXPECT_DOUBLE_EQ(out[s], 100.0 * s + comm.rank());
  });
}

TEST(Comm, SplitByColor) {
  run(6, [](Comm& comm) {
    // Even ranks form one group, odd ranks the other — the FOAM pattern of
    // carving atmosphere and ocean communicators out of the world.
    const int color = comm.rank() % 2;
    auto sub = comm.split(color, comm.rank());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->size(), 3);
    EXPECT_EQ(sub->rank(), comm.rank() / 2);
    // Sub-communicator collectives see only the group.
    const double sum =
        sub->allreduce_scalar(static_cast<double>(comm.rank()),
                              ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, color == 0 ? 0.0 + 2.0 + 4.0 : 1.0 + 3.0 + 5.0);
  });
}

TEST(Comm, SplitNegativeColorExcluded) {
  run(4, [](Comm& comm) {
    const int color = (comm.rank() == 3) ? -1 : 0;
    auto sub = comm.split(color, 0);
    if (comm.rank() == 3) {
      EXPECT_EQ(sub, nullptr);
    } else {
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->size(), 3);
    }
  });
}

TEST(Comm, SplitKeyControlsOrdering) {
  run(3, [](Comm& comm) {
    // Reverse the rank order within the sub-communicator via the key.
    auto sub = comm.split(0, -comm.rank());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->rank(), 2 - comm.rank());
  });
}

TEST(Comm, MessagesInParentAndChildDoNotMix) {
  run(2, [](Comm& comm) {
    auto sub = comm.split(0, comm.rank());
    ASSERT_NE(sub, nullptr);
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(1, 5, a);
      sub->send(1, 5, b);
    } else {
      int v = 0;
      sub->recv(0, 5, v);
      EXPECT_EQ(v, 2);
      comm.recv(0, 5, v);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Comm, ExceptionOnOneRankPropagatesWithoutDeadlock) {
  EXPECT_THROW(run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 1) throw Error("rank 1 failed");
                     // Other ranks block in a receive that will never be
                     // satisfied; the abort must wake them.
                     double v;
                     comm.recv(1, 0, v);
                   }),
               Error);
}

TEST(Comm, OversizeMessageThrows) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       const double big[4] = {1, 2, 3, 4};
                       comm.send_bytes(1, 0, big, sizeof(big));
                       // Keep rank 0 alive until rank 1 fails.
                       comm.barrier();
                     } else {
                       double small = 0.0;
                       comm.recv_bytes(0, 0, &small, sizeof(small));
                       comm.barrier();
                     }
                   }),
               Error);
}

TEST(Comm, SingleRankDegenerateCollectives) {
  run(1, [](Comm& comm) {
    comm.barrier();
    double v = 5.0;
    comm.bcast(v, 0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(v, ReduceOp::kSum), 5.0);
    std::vector<double> in = {1.0}, out(1);
    comm.alltoall(in.data(), out.data(), 1);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
  });
}

TEST(Comm, ManyRanksStress) {
  // Ring pass-around: each rank sends to the next, result returns home.
  run(16, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    int token = comm.rank();
    for (int hop = 0; hop < comm.size(); ++hop) {
      comm.send(next, 1, token);
      comm.recv(prev, 1, token);
    }
    EXPECT_EQ(token, comm.rank());
  });
}

}  // namespace
}  // namespace foam::par

namespace foam::par {
namespace {

TEST(Comm, ScatterDistributesBlocks) {
  run(4, [](Comm& comm) {
    std::vector<double> all;
    if (comm.rank() == 1) {  // non-zero root
      all.resize(8);
      for (int r = 0; r < 4; ++r) {
        all[2 * r] = 10.0 * r;
        all[2 * r + 1] = 10.0 * r + 1.0;
      }
    }
    double mine[2] = {-1.0, -1.0};
    comm.scatter(all.data(), 2, mine, 1);
    EXPECT_DOUBLE_EQ(mine[0], 10.0 * comm.rank());
    EXPECT_DOUBLE_EQ(mine[1], 10.0 * comm.rank() + 1.0);
  });
}

TEST(Comm, ScatterGatherRoundTrip) {
  run(3, [](Comm& comm) {
    std::vector<double> all(6);
    if (comm.rank() == 0) {
      for (int n = 0; n < 6; ++n) all[n] = n * n;
    }
    double mine[2];
    comm.scatter(all.data(), 2, mine, 0);
    std::vector<double> back(6, -1.0);
    comm.gather(mine, 2, back.data(), 0);
    if (comm.rank() == 0) {
      for (int n = 0; n < 6; ++n) EXPECT_DOUBLE_EQ(back[n], n * n);
    }
  });
}

}  // namespace
}  // namespace foam::par
