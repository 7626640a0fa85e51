// Transaction infrastructure: timestamp generation, the transaction table
// and its ID encoding, wake/wait events, and the deadlock detector's graph
// construction.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cc/deadlock.h"
#include "cc/mv_engine.h"
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

TEST(TxnTableTest, PublishFindUnpublish) {
  TxnTable table;
  Transaction txn(IsolationLevel::kSerializable, false, false);
  table.Publish(&txn);
  const TxnId id = txn.id;
  EXPECT_GE(id, 1u);
  EXPECT_LE(id, kMaxTxnId);
  EXPECT_EQ(table.Find(id), &txn);
  EXPECT_EQ(table.Find(id + 1), nullptr);  // a slot never registered
  EXPECT_EQ(table.Size(), 1u);
  table.Unpublish(&txn);
  EXPECT_EQ(table.Find(id), nullptr);
  EXPECT_EQ(table.Size(), 0u);
}

TEST(TxnTableTest, StaleIdOfRecycledSlotIsNotFound) {
  TxnTable table;
  Transaction txn(IsolationLevel::kReadCommitted, false, false);
  table.Publish(&txn);
  const TxnId first = txn.id;
  table.Unpublish(&txn);
  txn.Reset(IsolationLevel::kReadCommitted, false, false);
  table.Publish(&txn);
  // Same object, same slot, next incarnation: the old ID names nobody.
  EXPECT_EQ(txn.id & TxnTable::kSlotMask, first & TxnTable::kSlotMask);
  EXPECT_EQ(txn.id, first + TxnTable::kIncarnationStep);
  EXPECT_EQ(table.Find(first), nullptr);
  EXPECT_EQ(table.Find(txn.id), &txn);
  EXPECT_EQ(table.Size(), 1u);
}

/// The ID step: the next incarnation of the same slot until the slot runs
/// out, then the first incarnation of a fresh slot. No step yields 0,
/// kNoWriter or an ID seen before.
TEST(TxnTableTest, IdStepMovesToFreshSlotAtIncarnationLimit) {
  uint32_t fresh_draws = 0;
  uint32_t next_fresh = 1;
  auto fresh = [&] {
    ++fresh_draws;
    return next_fresh++;
  };
  // A never-published object takes a fresh slot.
  const TxnId first = TxnTable::NextId(0, fresh);
  EXPECT_EQ(first, TxnTable::kIncarnationStep | 1);
  EXPECT_EQ(fresh_draws, 1u);
  EXPECT_EQ(TxnTable::NextId(first, fresh), first + TxnTable::kIncarnationStep);
  EXPECT_EQ(fresh_draws, 1u);

  // Walk the top slot and slot 0 across their last incarnations.
  for (TxnId slot : {TxnTable::kSlotMask, TxnId{0}}) {
    std::set<TxnId> seen;
    TxnId id = ((TxnTable::kMaxIncarnation - 3) << TxnTable::kSlotBits) | slot;
    const uint32_t draws_before = fresh_draws;
    for (int i = 0; i < 8; ++i) {
      id = TxnTable::NextId(id, fresh);
      EXPECT_NE(id, 0u);
      EXPECT_NE(id, lockword::kNoWriter);
      EXPECT_LE(id, kMaxTxnId);
      EXPECT_TRUE(seen.insert(id).second) << "repeated id " << id;
    }
    // Three more incarnations of `slot`, then one move to a fresh slot.
    EXPECT_EQ(fresh_draws, draws_before + 1);
    EXPECT_NE(id & TxnTable::kSlotMask, slot);
  }
}

/// An object whose slot is exhausted moves: the table finds it under the
/// fresh slot only, and visits it once.
TEST(TxnTableTest, ExhaustedObjectMovesToFreshSlot) {
  TxnTable table;
  Transaction txn(IsolationLevel::kReadCommitted, false, false);
  table.Publish(&txn);
  const TxnId old_slot = txn.id & TxnTable::kSlotMask;
  table.Unpublish(&txn);
  txn.id = (TxnTable::kMaxIncarnation << TxnTable::kSlotBits) | old_slot;
  table.Publish(&txn);
  EXPECT_NE(txn.id & TxnTable::kSlotMask, old_slot);
  EXPECT_EQ(txn.id >> TxnTable::kSlotBits, 1u);
  EXPECT_EQ(table.Find(txn.id), &txn);
  EXPECT_EQ(table.Size(), 1u);
}

TEST(TxnTableTest, ForEachSeesAll) {
  TxnTable table;
  std::vector<std::unique_ptr<Transaction>> txns;
  for (int i = 0; i < 2000; ++i) {  // spans two directory chunks
    txns.push_back(std::make_unique<Transaction>(
        IsolationLevel::kReadCommitted, false, false));
    table.Publish(txns.back().get());
  }
  EXPECT_EQ(table.Size(), txns.size());
  for (auto& t : txns) EXPECT_EQ(table.Find(t->id), t.get());
}

TEST(TxnTableTest, MinActiveBeginTreatsUnsetAsZero) {
  TxnTable table;
  Transaction pending(IsolationLevel::kReadCommitted, false, false);
  table.Publish(&pending);  // begin_ts still 0 (publication window)
  EXPECT_EQ(table.MinActiveBeginTs(/*fallback=*/1000), 0u);
  pending.begin_ts.store(500);
  EXPECT_EQ(table.MinActiveBeginTs(1000), 500u);
  table.Unpublish(&pending);
  EXPECT_EQ(table.MinActiveBeginTs(1000), 1000u);
}

/// Begin/Commit churn on two threads while two others look up IDs they saw
/// earlier (fresh ones and stale ones): every lookup that finds an object
/// finds the transaction with exactly that ID. Run under TSan this also
/// checks that the latch-free Find races with nothing.
TEST(TxnTableTest, ConcurrentFindReturnsOnlyExactId) {
  DatabaseOptions opts;
  opts.log_mode = LogMode::kDisabled;
  Substrate substrate(opts);
  MVEngine engine(substrate);
  constexpr int kChurners = 2, kFinders = 2, kPerChurner = 20000;
  constexpr uint32_t kRing = 64;
  std::array<std::atomic<TxnId>, kRing> recent{};
  std::atomic<int> churning{kChurners};
  std::atomic<uint64_t> found{0}, mismatched{0};
  std::vector<TxnId> all_ids[kChurners];
  std::vector<std::thread> threads;
  for (int c = 0; c < kChurners; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kPerChurner; ++i) {
        Transaction* txn = engine.Begin(IsolationLevel::kReadCommitted,
                                        /*pessimistic=*/c % 2 == 1);
        all_ids[c].push_back(txn->id);
        recent[(i * kChurners + c) % kRing].store(txn->id);
        EXPECT_TRUE(engine.Commit(txn).ok());
      }
      churning.fetch_sub(1);
    });
  }
  for (int f = 0; f < kFinders; ++f) {
    threads.emplace_back([&, f] {
      constexpr uint32_t kSeen = 4096;
      std::vector<TxnId> seen;
      uint32_t i = f;
      while (churning.load() > 0) {
        TxnId id = recent[i++ % kRing].load();
        if (id == 0) continue;
        if (seen.size() < kSeen) {
          seen.push_back(id);
        } else {
          seen[i % kSeen] = id;
        }
        // Alternate fresh IDs with ones seen long ago.
        if (i % 2 == 0) id = seen[(i / 2) % seen.size()];
        EpochGuard guard(substrate.epoch());
        if (Transaction* t = engine.txn_table().Find(id)) {
          found.fetch_add(1);
          if (t->id != id) mismatched.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatched.load(), 0u);
  // Everything terminated: no ID names a transaction any more, and none
  // was handed out twice.
  std::set<TxnId> unique;
  for (auto& ids : all_ids) {
    for (TxnId id : ids) {
      EXPECT_EQ(engine.txn_table().Find(id), nullptr);
      unique.insert(id);
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kChurners) * kPerChurner);
  EXPECT_EQ(engine.txn_table().Size(), 0u);
  RecordProperty("found", static_cast<int64_t>(found.load()));
}

TEST(TransactionTest, WaitEventWakesOnNotify) {
  Transaction txn(IsolationLevel::kReadCommitted, true, false);
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
  Transaction provider(IsolationLevel::kReadCommitted, false, false);
  Transaction dep_a(IsolationLevel::kReadCommitted, false, false);
  Transaction dep_b(IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Publish(&provider);
  table.Publish(&dep_a);
  table.Publish(&dep_b);

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
  Transaction provider(IsolationLevel::kReadCommitted, false, false);
  Transaction late(IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Publish(&provider);
  table.Publish(&late);

  provider.state.store(TxnState::kCommitted);
  ResolveCommitDependencies(&provider, true, table);
  // Late registration sees the committed state: no wait needed.
  EXPECT_EQ(RegisterCommitDependency(&late, &provider),
            CommitDepOutcome::kProviderCommitted);
  EXPECT_EQ(late.commit_dep_counter.load(), 0u);
}

TEST(CommitDepTest, MissingDependentIsSkipped) {
  TxnTable table;
  Transaction provider(IsolationLevel::kReadCommitted, false, false);
  provider.state.store(TxnState::kPreparing);
  table.Publish(&provider);
  {
    SpinLatchGuard g(provider.dep_latch);
    // Dependent no longer exists: the provider's slot, one incarnation on.
    provider.commit_dep_set.push_back(provider.id +
                                      TxnTable::kIncarnationStep);
  }
  provider.state.store(TxnState::kAborted);
  ResolveCommitDependencies(&provider, false, table);  // must not crash
}

/// Deadlock detector unit tests. Slot IDs say nothing about age, so the
/// cycles below publish their members oldest-last: the smallest ID belongs
/// to the youngest (largest begin timestamp) member, which must be the
/// victim.

/// An explicit two-cycle via WaitingTxnLists; the youngest is the victim.
TEST(DeadlockDetectorTest, ExplicitCycleVictimIsYoungest) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction t1(IsolationLevel::kSerializable, true, false);
  Transaction t2(IsolationLevel::kSerializable, true, false);
  table.Publish(&t1);
  table.Publish(&t2);
  ASSERT_LT(t1.id, t2.id);
  t1.begin_ts.store(20);  // t1 is younger
  t2.begin_ts.store(10);
  // t2 waits for t1 and vice versa (edges from WaitingTxnLists).
  t1.waiting_txn_list.push_back(t2.id);  // t2 -> t1
  t2.waiting_txn_list.push_back(t1.id);  // t1 -> t2
  t1.wait_for_counter.store(1);
  t2.wait_for_counter.store(1);
  t1.blocked.store(true);
  t2.blocked.store(true);

  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 1u);
  EXPECT_TRUE(t1.abort_now.load());  // youngest (largest begin_ts)
  EXPECT_FALSE(t2.abort_now.load());
  EXPECT_EQ(t1.kill_reason.load(), AbortReason::kDeadlock);
  EXPECT_EQ(stats.Get(Stat::kDeadlocksDetected), 1u);
}

TEST(DeadlockDetectorTest, NoCycleNoVictim) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction t1(IsolationLevel::kSerializable, true, false);
  Transaction t2(IsolationLevel::kSerializable, true, false);
  table.Publish(&t1);
  table.Publish(&t2);
  t1.waiting_txn_list.push_back(t2.id);  // t2 waits for t1, no back edge
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
  Transaction t1(IsolationLevel::kSerializable, true, false);
  Transaction t2(IsolationLevel::kSerializable, true, false);
  table.Publish(&t1);
  table.Publish(&t2);
  t1.waiting_txn_list.push_back(t2.id);
  t2.waiting_txn_list.push_back(t1.id);
  t1.blocked.store(true);
  t2.blocked.store(false);  // not actually blocked: stale graph

  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 0u);
}

TEST(DeadlockDetectorTest, ThreeCycleDetected) {
  TxnTable table;
  EpochManager epoch;
  StatsCollector stats;
  Transaction a(IsolationLevel::kSerializable, true, false);
  Transaction b(IsolationLevel::kSerializable, true, false);
  Transaction c(IsolationLevel::kSerializable, true, false);
  Timestamp begin = 30;  // a youngest, c oldest: the reverse of ID order
  for (Transaction* t : {&a, &b, &c}) {
    table.Publish(t);
    t->begin_ts.store(begin);
    begin -= 10;
    t->blocked.store(true);
    t->wait_for_counter.store(1);
  }
  ASSERT_LT(a.id, b.id);
  ASSERT_LT(b.id, c.id);
  // a waits for b waits for c waits for a:
  b.waiting_txn_list.push_back(a.id);  // a -> b
  c.waiting_txn_list.push_back(b.id);  // b -> c
  a.waiting_txn_list.push_back(c.id);  // c -> a
  DeadlockDetector detector(table, epoch, stats, 1000);
  EXPECT_EQ(detector.RunOnce(), 1u);
  EXPECT_TRUE(a.abort_now.load());  // youngest
  EXPECT_FALSE(b.abort_now.load());
  EXPECT_FALSE(c.abort_now.load());
}

}  // namespace
}  // namespace mvstore
