// Transaction infrastructure: timestamp/ID generation, the transaction
// table, wake/wait events, and the deadlock detector's graph construction.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cc/deadlock.h"
#include "txn/commit_dep.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"
#include "txn/txn_table.h"

namespace mvstore {
namespace {

TEST(TimestampTest, MonotoneAndUnique) {
  TimestampGenerator gen;
  Timestamp prev = 0;
  for (int i = 0; i < 1000; ++i) {
    Timestamp t = gen.Next();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(gen.Current(), prev);
}

TEST(TxnIdTest, CappedAt54Bits) {
  TxnIdGenerator gen;
  TxnId id = gen.Next();
  EXPECT_LE(id, kMaxTxnId);
  EXPECT_GE(id, 1u);
}

TEST(TxnTableTest, InsertFindRemove) {
  TxnTable table;
  Transaction txn(42, IsolationLevel::kSerializable, false, false);
  table.Insert(&txn);
  EXPECT_EQ(table.Find(42), &txn);
  EXPECT_EQ(table.Find(43), nullptr);
  EXPECT_EQ(table.Size(), 1u);
  table.Remove(42);
  EXPECT_EQ(table.Find(42), nullptr);
  EXPECT_EQ(table.Size(), 0u);
}

TEST(TxnTableTest, SnapshotSeesAll) {
  TxnTable table;
  std::vector<std::unique_ptr<Transaction>> txns;
  for (TxnId id = 1; id <= 100; ++id) {
    txns.push_back(std::make_unique<Transaction>(
        id, IsolationLevel::kReadCommitted, false, false));
    table.Insert(txns.back().get());
  }
  EXPECT_EQ(table.Snapshot().size(), 100u);
}

TEST(TxnTableTest, MinActiveBeginTreatsUnsetAsZero) {
  TxnTable table;
  Transaction pending(1, IsolationLevel::kReadCommitted, false, false);
  table.Insert(&pending);  // begin_ts still 0 (publication window)
  EXPECT_EQ(table.MinActiveBeginTs(/*fallback=*/1000), 0u);
  pending.begin_ts.store(500);
  EXPECT_EQ(table.MinActiveBeginTs(1000), 500u);
  table.Remove(1);
  EXPECT_EQ(table.MinActiveBeginTs(1000), 1000u);
}

TEST(TransactionTest, WaitEventWakesOnNotify) {
  Transaction txn(1, IsolationLevel::kReadCommitted, true, false);
  txn.wait_for_counter.store(1);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    txn.WaitEvent([&] { return txn.wait_for_counter.load() == 0; });
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  txn.wait_for_counter.store(0);
  txn.NotifyEvent();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CommitDepTest, CountAndDrain) {
  TxnTable table;
  Transaction provider(1, IsolationLevel::kReadCommitted, false, false);
  Transaction dep_a(2, IsolationLevel::kReadCommitted, false, false);
  Transaction dep_b(3, IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Insert(&provider);
  table.Insert(&dep_a);
  table.Insert(&dep_b);

  EXPECT_EQ(RegisterCommitDependency(&dep_a, &provider),
            CommitDepOutcome::kRegistered);
  EXPECT_EQ(RegisterCommitDependency(&dep_b, &provider),
            CommitDepOutcome::kRegistered);
  EXPECT_EQ(dep_a.commit_dep_counter.load(), 1u);
  EXPECT_EQ(dep_b.commit_dep_counter.load(), 1u);

  provider.state.store(TxnState::kCommitted);
  ResolveCommitDependencies(&provider, true, table);
  EXPECT_EQ(dep_a.commit_dep_counter.load(), 0u);
  EXPECT_EQ(dep_b.commit_dep_counter.load(), 0u);
  EXPECT_FALSE(dep_a.abort_now.load());
}

TEST(CommitDepTest, DrainedProviderRejectsLateRegistration) {
  TxnTable table;
  Transaction provider(1, IsolationLevel::kReadCommitted, false, false);
  Transaction late(2, IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Insert(&provider);
  table.Insert(&late);

  provider.state.store(TxnState::kCommitted);
  ResolveCommitDependencies(&provider, true, table);
  // Late registration sees the committed state: no wait needed.
  EXPECT_EQ(RegisterCommitDependency(&late, &provider),
            CommitDepOutcome::kProviderCommitted);
  EXPECT_EQ(late.commit_dep_counter.load(), 0u);
}

TEST(CommitDepTest, MissingDependentIsSkipped) {
  TxnTable table;
  Transaction provider(1, IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Insert(&provider);
  {
    SpinLatchGuard g(provider.dep_latch);
    provider.commit_dep_set.push_back(999);  // dependent no longer exists
  }
  provider.state.store(TxnState::kAborted);
  ResolveCommitDependencies(&provider, false, table);  // must not crash
}

/// Deadlock detector unit test: construct an explicit two-cycle via
/// WaitingTxnLists and verify the youngest is chosen as victim.
TEST(DeadlockDetectorTest, ExplicitCycleVictimIsYoungest) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction t1(10, IsolationLevel::kSerializable, true, false);
  Transaction t2(20, IsolationLevel::kSerializable, true, false);
  table.Insert(&t1);
  table.Insert(&t2);
  // t2 waits for t1 and vice versa (edges from WaitingTxnLists).
  t1.waiting_txn_list.push_back(20);  // t2 -> t1
  t2.waiting_txn_list.push_back(10);  // t1 -> t2
  t1.wait_for_counter.store(1);
  t2.wait_for_counter.store(1);
  t1.blocked.store(true);
  t2.blocked.store(true);

  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 1u);
  EXPECT_TRUE(t2.abort_now.load());   // youngest (highest id)
  EXPECT_FALSE(t1.abort_now.load());
  EXPECT_EQ(t2.kill_reason.load(), AbortReason::kDeadlock);
  EXPECT_EQ(stats.Get(Stat::kDeadlocksDetected), 1u);
}

TEST(DeadlockDetectorTest, NoCycleNoVictim) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction t1(10, IsolationLevel::kSerializable, true, false);
  Transaction t2(20, IsolationLevel::kSerializable, true, false);
  table.Insert(&t1);
  table.Insert(&t2);
  t1.waiting_txn_list.push_back(20);  // t2 waits for t1, no back edge
  t1.blocked.store(true);
  t2.blocked.store(true);

  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 0u);
  EXPECT_FALSE(t1.abort_now.load());
  EXPECT_FALSE(t2.abort_now.load());
}

TEST(DeadlockDetectorTest, UnblockedMemberSuppressesFalsePositive) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction t1(10, IsolationLevel::kSerializable, true, false);
  Transaction t2(20, IsolationLevel::kSerializable, true, false);
  table.Insert(&t1);
  table.Insert(&t2);
  t1.waiting_txn_list.push_back(20);
  t2.waiting_txn_list.push_back(10);
  t1.blocked.store(true);
  t2.blocked.store(false);  // not actually blocked: stale graph

  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 0u);
}

TEST(DeadlockDetectorTest, ThreeCycleDetected) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction a(1, IsolationLevel::kSerializable, true, false);
  Transaction b(2, IsolationLevel::kSerializable, true, false);
  Transaction c(3, IsolationLevel::kSerializable, true, false);
  for (Transaction* t : {&a, &b, &c}) {
    table.Insert(t);
    t->blocked.store(true);
    t->wait_for_counter.store(1);
  }
  // a waits for b waits for c waits for a:
  b.waiting_txn_list.push_back(1);  // a -> b
  c.waiting_txn_list.push_back(2);  // b -> c
  a.waiting_txn_list.push_back(3);  // c -> a
  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 1u);
  EXPECT_TRUE(c.abort_now.load());  // youngest
}

}  // namespace
}  // namespace mvstore
