// The global timestamp counter (txn/timestamp.h): the invariants the MV
// hot path leans on. Next() is one atomic increment; Current() a load of
// the largest drawn timestamp. The safety property under test throughout: a
// Current() observation is never overtaken -- every Next() that starts
// after it returns a strictly greater value.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "txn/timestamp.h"

namespace mvstore {
namespace {

TEST(TimestampTest, ConcurrentUniqueness) {
  TimestampGenerator gen;
  constexpr int kThreads = 8, kPer = 5000;
  std::vector<std::vector<Timestamp>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      drawn[t].reserve(kPer);
      for (int i = 0; i < kPer; ++i) drawn[t].push_back(gen.Next());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Timestamp> all;
  Timestamp max_drawn = 0;
  for (auto& v : drawn) {
    Timestamp prev = 0;
    for (Timestamp t : v) {
      EXPECT_GT(t, prev);  // per-thread monotone
      prev = t;
      if (t > max_drawn) max_drawn = t;
    }
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPer);
  // After every drawer finished, the clock reads exactly the max draw.
  EXPECT_EQ(gen.Current(), max_drawn);
}

/// The begin-timestamp rule: an observed Current() value B is strictly
/// below every timestamp drawn after the observation. A violation here is
/// a transaction committing into an open snapshot's past.
TEST(TimestampTest, ObservationNeverOvertaken) {
  TimestampGenerator gen;
  constexpr int kDrawers = 4, kObservers = 3, kPer = 20000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDrawers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        Timestamp before = gen.Current();
        Timestamp t2 = gen.Next();
        if (t2 <= before) failed.store(true);
      }
    });
  }
  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&] {
      Timestamp prev = 0;
      for (int i = 0; i < kPer; ++i) {
        Timestamp now = gen.Current();
        if (now < prev) failed.store(true);  // clock must be monotone
        prev = now;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

/// Current() reflects a finished draw immediately: no "committed but not
/// yet observable" window across threads (read-your-writes after a join).
TEST(TimestampTest, FreshnessAfterJoin) {
  TimestampGenerator gen;
  (void)gen.Next();
  Timestamp worker_ts = 0;
  std::thread worker([&] {
    for (int i = 0; i < 100; ++i) worker_ts = gen.Next();
  });
  worker.join();
  EXPECT_GE(gen.Current(), worker_ts);
  EXPECT_GT(gen.Next(), worker_ts);  // main's next draw lands above them
}

/// AdvanceTo (recovery) raises the clock so post-recovery commits draw
/// above replayed history; a floor below the clock changes nothing.
TEST(TimestampTest, AdvanceToRaisesClock) {
  TimestampGenerator gen;
  EXPECT_EQ(gen.Next(), 1u);
  gen.AdvanceTo(1000);
  EXPECT_EQ(gen.Current(), 1000u);
  Timestamp after = gen.Next();
  EXPECT_EQ(after, 1001u);
  EXPECT_EQ(gen.Current(), after);
  // AdvanceTo below the clock is a no-op, never a regression.
  gen.AdvanceTo(5);
  EXPECT_EQ(gen.Current(), after);
}

}  // namespace
}  // namespace mvstore
