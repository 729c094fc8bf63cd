/// par::Team — the deterministic fork-join team inside a rank: the static
/// partition, who runs member 0, exception propagation, teardown of parked
/// helpers, the CPU count that sizes teams and the auto sizing rule.

#include "par/team.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"

namespace foam::par {
namespace {

TEST(Team, PartitionCoversRangeExactlyOnce) {
  for (int members = 1; members <= kMaxTeamMembers; ++members) {
    Team team(members);
    for (const int n : {0, 1, 2, 3, 5, 17, 100}) {
      // Each index is written only by the member whose chunk holds it, so
      // the per-index counters need no synchronization.
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      std::vector<int> owner(static_cast<std::size_t>(n), -1);
      int calls = 0;
      std::array<int, kMaxTeamMembers> member_calls{};
      team.for_chunks(n, [&](int m, int lo, int hi) {
        ++member_calls[static_cast<std::size_t>(m)];
        EXPECT_LT(lo, hi) << "empty chunks are skipped";
        for (int i = lo; i < hi; ++i) {
          ++hits[static_cast<std::size_t>(i)];
          owner[static_cast<std::size_t>(i)] = m;
        }
      });
      for (const int c : member_calls) calls += c;
      if (n == 0) {
        EXPECT_EQ(calls, 0);
      }
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "index " << i << " of " << n << ", " << members << " members";
        // Static contiguous chunks: Team::chunk names the owner.
        const int m = owner[static_cast<std::size_t>(i)];
        EXPECT_TRUE(Team::chunk(n, team.size(), m).contains(i));
      }
      // Fewer items than members: the low members take one each.
      if (n > 0 && n < members) {
        for (int m = 0; m < members; ++m) {
          EXPECT_EQ(member_calls[static_cast<std::size_t>(m)], m < n ? 1 : 0);
        }
      }
    }
  }
}

TEST(Team, MemberZeroIsTheCaller) {
  Team team(kMaxTeamMembers);
  std::array<std::thread::id, kMaxTeamMembers> who{};
  team.for_chunks(kMaxTeamMembers, [&](int m, int, int) {
    who[static_cast<std::size_t>(m)] = std::this_thread::get_id();
  });
  EXPECT_EQ(who[0], std::this_thread::get_id());
  for (int a = 1; a < kMaxTeamMembers; ++a) {
    EXPECT_NE(who[static_cast<std::size_t>(a)], std::this_thread::get_id());
    for (int b = a + 1; b < kMaxTeamMembers; ++b)
      EXPECT_NE(who[static_cast<std::size_t>(a)],
                who[static_cast<std::size_t>(b)]);
  }
  // No team: the whole range runs inline as member 0.
  int calls = 0;
  for_chunks(nullptr, 7, [&](int m, int lo, int hi) {
    ++calls;
    EXPECT_EQ(m, 0);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Team, HelperThrowIsRethrownAfterEveryMemberFinishes) {
  Team team(3);
  for (int round = 0; round < 3; ++round) {
    std::array<bool, 3> finished{};
    bool threw = false;
    try {
      team.for_chunks(3, [&](int m, int, int) {
        if (m == 1) throw Error("helper failed");
        // The others outlast the throw: the rethrow must still wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        finished[static_cast<std::size_t>(m)] = true;
      });
    } catch (const Error& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("helper failed"),
                std::string::npos);
    }
    EXPECT_TRUE(threw);
    EXPECT_TRUE(finished[0]);
    EXPECT_TRUE(finished[2]);
    // The team stays usable, with no stale error left behind.
    int sum = 0;
    std::array<int, 3> part{};
    team.for_chunks(30, [&](int m, int lo, int hi) {
      for (int i = lo; i < hi; ++i) part[static_cast<std::size_t>(m)] += i;
    });
    for (const int p : part) sum += p;
    EXPECT_EQ(sum, 435);
  }
}

TEST(Team, CallerThrowWaitsForHelpersAndWins) {
  Team team(2);
  bool helper_done = false;
  try {
    team.for_chunks(2, [&](int m, int, int) {
      if (m == 0) throw std::runtime_error("caller failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      helper_done = true;
      throw Error("helper failed too");
    });
    ADD_FAILURE() << "for_chunks was expected to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller failed");
  }
  EXPECT_TRUE(helper_done);
  team.for_chunks(2, [](int, int, int) {});  // no stale error
}

TEST(Team, DestroyingParkedTeamJoinsHelpers) {
  for (int members = 1; members <= kMaxTeamMembers; ++members) {
    auto team = std::make_unique<Team>(members);
    team->for_chunks(members, [](int, int, int) {});
    // Well past the spin window: the helpers are parked on the futex.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    team.reset();  // must wake, stop and join them (a hang fails the test)
  }
  // A team that never ran a job.
  { Team idle(kMaxTeamMembers); }
}

TEST(Team, AccountsHelperBusyAndJoinWait) {
  Team team(2);
  EXPECT_EQ(team.helper_busy_seconds(), 0.0);
  team.for_chunks(2, [](int m, int, int) {
    if (m == 1) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  EXPECT_GT(team.helper_busy_seconds(), 0.0);
  EXPECT_GT(team.join_wait_seconds(), 0.0);
}

TEST(Team, RejectsBadMemberCounts) {
  EXPECT_THROW(Team(0), Error);
  EXPECT_THROW(Team(kMaxTeamMembers + 1), Error);
}

TEST(TeamSizing, AutoHelpersShareSpareCpus) {
  EXPECT_EQ(auto_team_helpers(4, 2), 1);   // 1+1 on 4 vCPUs
  EXPECT_EQ(auto_team_helpers(4, 10), 0);  // 8+2x1 and up
  EXPECT_EQ(auto_team_helpers(4, 4), 0);
  EXPECT_EQ(auto_team_helpers(64, 2), kMaxTeamMembers - 1);  // capped
  EXPECT_EQ(auto_team_helpers(1, 1), 0);
  EXPECT_THROW(auto_team_helpers(4, 0), Error);
}

TEST(TeamSizing, UsableCpusFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(usable_cpus(), CPU_COUNT(&saved));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = usable_cpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(usable_cpus(), CPU_COUNT(&saved));
}

}  // namespace
}  // namespace foam::par
