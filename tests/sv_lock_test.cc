// Unit tests for the 1V engine's partitioned lock table and the engine's
// locking behavior (paper Section 5: no central lock manager, key locks,
// timeout-based deadlock breaking).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "sv/lock_table.h"
#include "sv/sv_engine.h"

namespace mvstore {
namespace {

TEST(SVLockTableTest, SharedLocksCoexist) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 2, 1000));
  EXPECT_EQ(lock->readers.load(), 2u);
  SVLockTable::ReleaseShared(lock);
  SVLockTable::ReleaseShared(lock);
  EXPECT_EQ(lock->readers.load(), 0u);
}

TEST(SVLockTableTest, ExclusiveExcludesShared) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireExclusive(lock, 1, false, 1000));
  // Another transaction's S acquisition times out.
  EXPECT_FALSE(SVLockTable::AcquireShared(lock, 2, 500));
  // Same transaction's S succeeds (X implies S).
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 1, 500));
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, ExclusiveWaitsForReaders) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    EXPECT_TRUE(SVLockTable::AcquireExclusive(lock, 2, false, 200000));
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  SVLockTable::ReleaseShared(lock);
  writer.join();
  EXPECT_TRUE(acquired.load());
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, ExclusiveTimesOutAndRollsBack) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  EXPECT_FALSE(SVLockTable::AcquireExclusive(lock, 2, false, 1000));
  // Timed-out writer must not leave the writer word set.
  EXPECT_EQ(lock->writer.load(), 0u);
  SVLockTable::ReleaseShared(lock);
}

TEST(SVLockTableTest, UpgradeConsumesSharedSlot) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  ASSERT_TRUE(SVLockTable::AcquireExclusive(lock, 1, /*held_shared=*/true,
                                            10000));
  EXPECT_EQ(lock->readers.load(), 0u);
  EXPECT_EQ(lock->writer.load(), 1u);
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, TwoUpgradersBothTimeOutOrOneWins) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 2, 1000));
  std::atomic<int> wins{0};
  std::thread u1([&] {
    if (SVLockTable::AcquireExclusive(lock, 1, true, 5000)) wins.fetch_add(1);
  });
  std::thread u2([&] {
    if (SVLockTable::AcquireExclusive(lock, 2, true, 5000)) wins.fetch_add(1);
  });
  u1.join();
  u2.join();
  EXPECT_LE(wins.load(), 1);  // upgrade deadlock broken by timeout
}

TEST(SVLockTableTest, DistinctKeysUsuallyDistinctLocks) {
  SVLockTable table(1024);
  int collisions = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (table.LockFor(k) == table.LockFor(k + 1000)) ++collisions;
  }
  EXPECT_LT(collisions, 10);
}

/// --- engine-level locking semantics ------------------------------------------

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class SVEngineTest : public ::testing::Test {
 protected:
  /// Index buckets, which also size the engine's key-lock table.
  static constexpr uint64_t kBuckets = 4096;

  SVEngineTest() {
    DatabaseOptions db_opts;
    db_opts.scheme = Scheme::kSingleVersion;
    db_opts.log_mode = LogMode::kDisabled;
    substrate_ = std::make_unique<Substrate>(db_opts);
    SVEngineOptions opts;
    opts.lock_timeout_us = 3000;
    engine_ = std::make_unique<SVEngine>(*substrate_, opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, kBuckets, true});
    table_ = engine_->CreateTable(def);
  }

  void Put(uint64_t key, uint64_t value) {
    SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  std::unique_ptr<Substrate> substrate_;  // outlives engine_
  std::unique_ptr<SVEngine> engine_;
  TableId table_ = 0;
};

TEST_F(SVEngineTest, WriterBlocksWriter) {
  Put(1, 10);
  SVTransaction* t1 = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t1, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  SVTransaction* t2 = engine_->Begin(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(t2, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value = 12;
  });
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kLockTimeout);
  ASSERT_TRUE(engine_->Commit(t1).ok());
}

TEST_F(SVEngineTest, RepeatableReadHoldsLocksToCommit) {
  Put(1, 10);
  SVTransaction* reader = engine_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  // A concurrent updater times out against the held S lock.
  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(writer, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value = 11;
  });
  EXPECT_TRUE(s.IsAborted());
  ASSERT_TRUE(engine_->Commit(reader).ok());
}

TEST_F(SVEngineTest, ReadCommittedReleasesImmediately) {
  Put(1, 10);
  SVTransaction* reader = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  // Short lock already released: a writer proceeds while the reader is open.
  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  ASSERT_TRUE(engine_->Commit(writer).ok());
  ASSERT_TRUE(engine_->Commit(reader).ok());
}

/// Parameter: locks the transaction holds when it upgrades, few (as a
/// short transaction holds) and many (as a long reader holds), through
/// SVTransaction::FindLock's lock index.
class SVEngineUpgradeTest : public SVEngineTest,
                            public ::testing::WithParamInterface<size_t> {
 protected:
  /// `n` keys whose rows map to pairwise distinct key locks, so holding a
  /// lock on each one holds exactly `n` locks. Inserts each row with
  /// value 10.
  std::vector<uint64_t> PutDistinctLockKeys(size_t n) {
    SVLockTable probe(kBuckets);  // same size and hash as the engine's
    std::unordered_set<KeyLock*> seen;
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; keys.size() < n; ++k) {
      if (!seen.insert(probe.LockFor(k)).second) continue;
      keys.push_back(k);
      Put(k, 10);
    }
    return keys;
  }
};

TEST_P(SVEngineUpgradeTest, UpgradeWithinTransaction) {
  const size_t n = GetParam();
  std::vector<uint64_t> keys = PutDistinctLockKeys(n);
  auto increment = [](void* p) { static_cast<Row*>(p)->value += 1; };

  SVTransaction* t = engine_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  for (uint64_t k : keys) {
    ASSERT_TRUE(engine_->Read(t, table_, 0, k, &row).ok());  // S
  }
  ASSERT_EQ(t->locks.size(), n);
  // Re-reading a held key reuses its lock.
  ASSERT_TRUE(engine_->Read(t, table_, 0, keys[n / 2], &row).ok());
  EXPECT_EQ(t->locks.size(), n);
  // S -> X upgrade in place: no second entry.
  ASSERT_TRUE(engine_->Update(t, table_, 0, keys[n - 1], increment).ok());
  EXPECT_EQ(t->locks.size(), n);
  ASSERT_TRUE(engine_->Commit(t).ok());

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Read(check, table_, 0, keys[n - 1], &row).ok());
  EXPECT_EQ(row.value, 11u);
  ASSERT_TRUE(engine_->Commit(check).ok());

  // A failed upgrade: a second reader shares keys[0], so the upgrade times
  // out and the engine aborts `t`, undoing its earlier update. The keys go
  // in reverse order, so a lock index left over from the last transaction
  // on a recycled handle would point at the wrong entries.
  t = engine_->Begin(IsolationLevel::kRepeatableRead);
  for (auto k = keys.rbegin(); k != keys.rend(); ++k) {
    ASSERT_TRUE(engine_->Read(t, table_, 0, *k, &row).ok());
  }
  ASSERT_EQ(t->locks.size(), n);
  ASSERT_TRUE(engine_->Update(t, table_, 0, keys[n - 1], increment).ok());
  SVTransaction* rival = engine_->Begin(IsolationLevel::kRepeatableRead);
  ASSERT_TRUE(engine_->Read(rival, table_, 0, keys[0], &row).ok());
  Status s = engine_->Update(t, table_, 0, keys[0], increment);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kLockTimeout);
  ASSERT_TRUE(engine_->Commit(rival).ok());

  // Every lock was released exactly once: a missed release would make an X
  // acquisition below time out, and a double release would leave a reader
  // count that never drains.
  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  for (uint64_t k : keys) {
    ASSERT_TRUE(engine_->Update(writer, table_, 0, k, increment).ok()) << k;
  }
  ASSERT_TRUE(engine_->Commit(writer).ok());
  check = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Read(check, table_, 0, keys[n - 1], &row).ok());
  EXPECT_EQ(row.value, 12u);  // 11 + writer; the aborted increment undone
  ASSERT_TRUE(engine_->Commit(check).ok());
}

INSTANTIATE_TEST_SUITE_P(HeldLocks, SVEngineUpgradeTest,
                         ::testing::Values(size_t{4}, size_t{1000}),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST_F(SVEngineTest, AbortRestoresBeforeImage) {
  Put(1, 10);
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 999;
                 }).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, AbortRelinksDeletedRow) {
  Put(1, 10);
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Delete(t, table_, 0, 1).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  EXPECT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, AbortUnlinksInsertedRow) {
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{5, 50};
  ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(engine_->Read(check, table_, 0, 5, &row).IsNotFound());
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, KeyLockCoversPhantoms) {
  // A serializable scan of key K S-locks K's hash-key lock, so inserts of K
  // block until the scanner commits (the paper's free phantom protection).
  SVTransaction* scanner = engine_->Begin(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(scanner, table_, 0, 77, nullptr,
                            [&](const void*) {
                              ++seen;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(seen, 0);

  SVTransaction* inserter = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{77, 1};
  Status s = engine_->Insert(inserter, table_, &row);
  EXPECT_TRUE(s.IsAborted());  // blocked on the key lock until timeout
  ASSERT_TRUE(engine_->Commit(scanner).ok());
}

TEST_F(SVEngineTest, DeadlockBrokenByTimeout) {
  Put(1, 10);
  Put(2, 20);
  Status s1, s2;
  auto crossing = [&](uint64_t first, uint64_t second, Status* out) {
    SVTransaction* t = engine_->Begin(IsolationLevel::kRepeatableRead);
    Row row{};
    Status s = engine_->Read(t, table_, 0, first, &row);
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    s = engine_->Update(t, table_, 0, second, [](void* p) {
      static_cast<Row*>(p)->value += 1;
    });
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    *out = engine_->Commit(t);
  };
  std::thread t1([&] { crossing(1, 2, &s1); });
  std::thread t2([&] { crossing(2, 1, &s2); });
  t1.join();
  t2.join();
  // The timeout must break the deadlock: at least one side finishes, and
  // any failure is a lock timeout.
  EXPECT_TRUE(s1.ok() || s2.ok() || s1.IsAborted() || s2.IsAborted());
  if (!s1.ok()) {
    EXPECT_EQ(s1.abort_reason(), AbortReason::kLockTimeout);
  }
  if (!s2.ok()) {
    EXPECT_EQ(s2.abort_reason(), AbortReason::kLockTimeout);
  }
}

}  // namespace
}  // namespace mvstore
