// Garbage collection: watermark computation, deferred reclamation of
// superseded versions, immediate reclamation of aborted versions, and
// cooperative draining (paper Section 2.3).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cc/mv_engine.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class GcTest : public ::testing::Test {
 protected:
  GcTest() { MakeEngine(/*cooperative_gc_budget=*/0); }

  /// A fresh engine and table. Manual control: no background thread, and
  /// with budget 0 no inline draining either.
  void MakeEngine(uint32_t cooperative_gc_budget) {
    engine_.reset();
    DatabaseOptions db_opts;
    db_opts.log_mode = LogMode::kDisabled;
    substrate_ = std::make_unique<Substrate>(db_opts);
    MVEngineOptions opts;
    opts.gc_interval_us = 0;
    opts.deadlock_interval_us = 0;
    opts.cooperative_gc_budget = cooperative_gc_budget;
    engine_ = std::make_unique<MVEngine>(*substrate_, opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = engine_->CreateTable(def);
  }

  void Put(uint64_t key, uint64_t value) {
    Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  void UpdateRow(uint64_t key, uint64_t value) {
    Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
    ASSERT_TRUE(engine_->Update(t, table_, 0, key, [value](void* p) {
                     static_cast<Row*>(p)->value = value;
                   }).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  uint64_t ReadValue(uint64_t key) {
    Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
    Row row{};
    EXPECT_TRUE(engine_->Read(t, table_, 0, key, &row).ok());
    EXPECT_TRUE(engine_->Commit(t).ok());
    return row.value;
  }

  uint64_t ChainLength(uint64_t key) {
    uint64_t n = 0;
    HashIndex& index = substrate_->table(table_).index(0);
    index.ScanBucket(key, [&](Version* v) {
      if (index.KeyOf(v) == key) ++n;
      return true;
    });
    return n;
  }

  std::unique_ptr<Substrate> substrate_;  // outlives engine_
  std::unique_ptr<MVEngine> engine_;
  TableId table_ = 0;
};

TEST_F(GcTest, SupersededVersionsCollected) {
  Put(1, 0);
  for (uint64_t i = 1; i <= 10; ++i) UpdateRow(1, i);
  EXPECT_EQ(ChainLength(1), 11u);  // original + 10 updates
  EXPECT_EQ(engine_->gc().PendingCount(), 10u);

  engine_->gc().RunOnce();  // no active txns: watermark passes everything
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  EXPECT_EQ(substrate_->stats().Get(Stat::kVersionsCollected), 10u);

  // The surviving version is the latest.
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);
  ASSERT_TRUE(engine_->Commit(t).ok());
}

TEST_F(GcTest, ActiveSnapshotBlocksReclamation) {
  Put(1, 0);
  // An open snapshot transaction pins its begin time.
  Transaction* pin = engine_->Begin(IsolationLevel::kSnapshot, false);
  Row row{};
  ASSERT_TRUE(engine_->Read(pin, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 0u);

  UpdateRow(1, 1);
  UpdateRow(1, 2);
  engine_->gc().RunOnce();
  // The versions superseded after `pin` began must survive; only version 0's
  // predecessors (none) could go. Chain: v0, v1, v2 all present.
  EXPECT_EQ(ChainLength(1), 3u);

  // The pinned snapshot still reads its version.
  ASSERT_TRUE(engine_->Read(pin, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 0u);
  ASSERT_TRUE(engine_->Commit(pin).ok());

  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 1u);
}

TEST_F(GcTest, AbortedVersionsCollectedImmediately) {
  Put(1, 0);
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 99;
                 }).ok());
  engine_->Abort(t);
  EXPECT_EQ(ChainLength(1), 2u);  // aborted new version still linked

  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 1u);  // reclaimed without any watermark wait
}

TEST_F(GcTest, DeletedRowFullyReclaimed) {
  Put(1, 0);
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine_->Delete(t, table_, 0, 1).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());
  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 0u);
}

TEST_F(GcTest, CooperateDrainsWithBudget) {
  Put(1, 0);
  for (uint64_t i = 1; i <= 32; ++i) UpdateRow(1, i);
  uint64_t before = engine_->gc().PendingCount();
  EXPECT_EQ(before, 32u);
  uint32_t drained = 0;
  for (int i = 0; i < 64 && drained < 32; ++i) {
    drained += engine_->gc().Cooperate(4);
  }
  EXPECT_EQ(drained, 32u);
  EXPECT_EQ(ChainLength(1), 1u);
}

TEST_F(GcTest, WatermarkIsMinActiveBegin) {
  Transaction* t1 = engine_->Begin(IsolationLevel::kSnapshot, false);
  Timestamp b1 = t1->begin_ts.load();
  Transaction* t2 = engine_->Begin(IsolationLevel::kSnapshot, false);
  EXPECT_EQ(engine_->gc().Watermark(/*now=*/1 << 20), b1);
  ASSERT_TRUE(engine_->Commit(t1).ok());
  EXPECT_EQ(engine_->gc().Watermark(1 << 20), t2->begin_ts.load());
  ASSERT_TRUE(engine_->Commit(t2).ok());
  EXPECT_EQ(engine_->gc().Watermark(1 << 20), Timestamp{1} << 20);
}

TEST_F(GcTest, HeavyChurnEventuallyBounded) {
  Put(1, 0);
  for (int round = 0; round < 20; ++round) {
    for (uint64_t i = 0; i < 16; ++i) UpdateRow(1, i);
    engine_->gc().RunOnce();
  }
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
}

// Per-thread queues (gc/garbage_collector.h): each thread queues the
// versions its own commits superseded; an exiting thread's queue moves to
// the orphan list.

TEST_F(GcTest, ExitedThreadQueueIsOrphanedThenReclaimed) {
  Put(1, 0);
  std::thread updater([&] {
    for (uint64_t i = 1; i <= 10; ++i) UpdateRow(1, i);
  });
  updater.join();
  // No background thread: the exited thread's queue sits on the orphan
  // list, still counted.
  EXPECT_EQ(engine_->gc().PendingCount(), 10u);
  EXPECT_EQ(ChainLength(1), 11u);

  EXPECT_EQ(engine_->gc().RunOnce(), 10u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(substrate_->stats().Get(Stat::kVersionsCollected), 10u);
  EXPECT_EQ(ReadValue(1), 10u);
}

TEST_F(GcTest, CooperateDrainsOnlyTheCallersQueue) {
  Put(1, 0);
  Put(2, 0);
  for (uint64_t i = 1; i <= 8; ++i) UpdateRow(1, i);  // this thread: A
  std::thread b([&] {
    for (uint64_t i = 1; i <= 3; ++i) UpdateRow(2, i);
    // The cached watermark refreshes at most every ~200us; retry until it
    // passes B's own commits.
    uint32_t drained = 0;
    for (int i = 0; i < 1000 && drained < 3; ++i) {
      drained += engine_->gc().Cooperate(64);
      if (drained < 3) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_EQ(drained, 3u);
    // A's queue is untouched: B drained only its own.
    EXPECT_EQ(engine_->gc().PendingCount(), 8u);
    EXPECT_EQ(engine_->gc().Cooperate(64), 0u);
  });
  b.join();
  EXPECT_EQ(ChainLength(1), 9u);
  EXPECT_EQ(ChainLength(2), 1u);

  uint32_t drained = 0;
  for (int i = 0; i < 1000 && drained < 8; ++i) {
    drained += engine_->gc().Cooperate(64);
    if (drained < 8) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(drained, 8u);
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  EXPECT_EQ(ReadValue(1), 8u);
  EXPECT_EQ(ReadValue(2), 3u);
}

TEST_F(GcTest, CooperatingUpdatersAgainstConcurrentSweeps) {
  MakeEngine(/*cooperative_gc_budget=*/16);
  constexpr uint64_t kKeys = 8;
  constexpr int kUpdaters = 3;
  constexpr int kCommitsEach = 2000;
  for (uint64_t k = 0; k < kKeys; ++k) Put(k, 0);

  std::atomic<bool> sweeping{true};
  std::thread sweeper([&] {
    while (sweeping.load()) engine_->gc().RunOnce();
  });
  // Updaters stay alive (parked) until the final check, so their queues
  // are drained as live slots, not as orphans. Shared keys make write
  // conflicts, so aborted versions go through the queues too.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> updaters;
  for (int u = 0; u < kUpdaters; ++u) {
    updaters.emplace_back([&, u] {
      for (int i = 0; i < kCommitsEach; ++i) {
        uint64_t key = static_cast<uint64_t>(u + i) % kKeys;
        Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
        Status s = engine_->Update(t, table_, 0, key, [](void* p) {
          static_cast<Row*>(p)->value += 1;
        });
        if (!s.ok()) {
          if (!s.IsAborted()) engine_->Abort(t);
          continue;
        }
        if (engine_->Commit(t).ok()) committed.fetch_add(1);
      }
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < kUpdaters) std::this_thread::yield();
  sweeping.store(false);
  sweeper.join();

  engine_->gc().RunOnce();
  uint64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ChainLength(k), 1u) << "key " << k;
    total += ReadValue(k);
  }
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  // Every committed increment survived reclamation.
  EXPECT_EQ(total, committed.load());
  release.store(true);
  for (auto& t : updaters) t.join();
}

}  // namespace
}  // namespace mvstore
