// Phantom protection for ordered-index range scans, all three schemes
// (paper Section 2.6's validation discussion, Section 3.2's rescan check,
// and the 1V engine's lock-based coverage from Section 5, extended from
// hash keys to key ranges).
//
//  * MV/O and MV/L: a serializable transaction records every scanned range
//    and rescans it at precommit; a version that became visible during the
//    transaction's lifetime aborts it (AbortReason::kPhantom).
//  * 1V: a serializable range scan predicate-locks [lo, hi]; a conflicting
//    insert waits and times out while the scanner is open (lock-based
//    prevention — the *inserter* aborts instead).
//  * Snapshot isolation: the insert is simply excluded from the scanner's
//    read time (the "excluded" arm of the invariant).
#include <gtest/gtest.h>

#include <vector>

#include "core/database.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;    // primary
  uint64_t group;  // ordered secondary
  int64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }
uint64_t RowGroup(const void* p) { return static_cast<const Row*>(p)->group; }

class PhantomRangeTest : public ::testing::TestWithParam<Scheme> {
 protected:
  PhantomRangeTest() {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kDisabled;
    opts.lock_timeout_us = 20000;  // 1V: fast phantom-conflict timeouts
    db_ = std::make_unique<Database>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, /*unique=*/true});
    IndexDef ordered{&RowGroup, 256, /*unique=*/false};
    ordered.ordered = true;
    def.indexes.push_back(ordered);
    table_ = db_->CreateTable(def);
    for (uint64_t g : {10u, 20u, 30u}) Put(g, g);
  }

  void Put(uint64_t key, uint64_t group) {
    ASSERT_TRUE(db_->RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      Row row{key, group, 0};
                                      return db_->Insert(t, table_, &row);
                                    })
                    .ok());
  }

  /// One Read Committed insert attempt, no retry: the 1V cases assert that
  /// this attempt times out on the scanner's range lock.
  Status InsertOnce(const Row& row) {
    Txn* t = db_->Begin(IsolationLevel::kReadCommitted);
    Status s = db_->Insert(t, table_, &row);
    if (s.IsAborted()) return s;  // already rolled back
    if (!s.ok()) {
      db_->Abort(t);
      return s;
    }
    return db_->Commit(t);
  }

  /// Scan [lo, hi] on the ordered index inside `txn`; returns row count.
  size_t ScanCount(Txn* txn, uint64_t lo, uint64_t hi) {
    size_t n = 0;
    Status s = db_->ScanRange(txn, table_, 1, lo, hi, nullptr,
                              [&](const void*) {
                                ++n;
                                return true;
                              });
    EXPECT_TRUE(s.ok());
    return n;
  }

  std::unique_ptr<Database> db_;
  TableId table_ = 0;
};

TEST_P(PhantomRangeTest, ConflictingInsertAbortsScannerOrInserter) {
  Txn* scanner = db_->Begin(IsolationLevel::kSerializable);
  ASSERT_EQ(ScanCount(scanner, 5, 35), 3u);

  // A concurrent transaction inserts group 25 — inside the scanned range.
  Row phantom{99, 25, 0};
  Status insert_status = InsertOnce(phantom);

  if (GetParam() == Scheme::kSingleVersion) {
    // Lock-based prevention: the inserter hit the scanner's range lock and
    // timed out; the scanner commits untouched.
    EXPECT_TRUE(insert_status.IsAborted());
    EXPECT_TRUE(db_->Commit(scanner).ok());
    // With the range lock gone the same insert goes through.
    Status retry = db_->RunTransaction(
        IsolationLevel::kReadCommitted,
        [&](Txn* t) { return db_->Insert(t, table_, &phantom); });
    EXPECT_TRUE(retry.ok());
  } else {
    // Validation-based prevention: the insert committed, so the scanner's
    // precommit rescan finds a version born inside its range and aborts.
    ASSERT_TRUE(insert_status.ok());
    Status s = db_->Commit(scanner);
    ASSERT_TRUE(s.IsAborted());
    EXPECT_EQ(s.abort_reason(), AbortReason::kPhantom);
    EXPECT_GT(db_->stats().Get(Stat::kAbortPhantom), 0u);
  }
}

TEST_P(PhantomRangeTest, InsertOutsideScannedRangeIsHarmless) {
  Txn* scanner = db_->Begin(IsolationLevel::kSerializable);
  ASSERT_EQ(ScanCount(scanner, 5, 35), 3u);

  Row outside{98, 80, 0};
  Status insert_status = db_->RunTransaction(
      IsolationLevel::kReadCommitted,
      [&](Txn* t) { return db_->Insert(t, table_, &outside); });
  EXPECT_TRUE(insert_status.ok());
  EXPECT_TRUE(db_->Commit(scanner).ok());
}

TEST_P(PhantomRangeTest, EqualityProbeOnOrderedIndexIsPhantomSafe) {
  // Point Scan through the ordered index degenerates to [key, key] and
  // inherits the same protection.
  Txn* scanner = db_->Begin(IsolationLevel::kSerializable);
  size_t n = 0;
  ASSERT_TRUE(db_->Scan(scanner, table_, 1, 25, nullptr,
                        [&](const void*) {
                          ++n;
                          return true;
                        })
                  .ok());
  ASSERT_EQ(n, 0u);  // nothing with group 25 yet

  Row phantom{97, 25, 0};
  Status insert_status = InsertOnce(phantom);
  if (GetParam() == Scheme::kSingleVersion) {
    EXPECT_TRUE(insert_status.IsAborted());
    EXPECT_TRUE(db_->Commit(scanner).ok());
  } else {
    ASSERT_TRUE(insert_status.ok());
    Status s = db_->Commit(scanner);
    ASSERT_TRUE(s.IsAborted());
    EXPECT_EQ(s.abort_reason(), AbortReason::kPhantom);
  }
}

TEST_P(PhantomRangeTest, SnapshotScanExcludesConcurrentInsert) {
  if (GetParam() == Scheme::kSingleVersion) {
    GTEST_SKIP() << "1V has no snapshot scans";
  }
  Txn* scanner = db_->Begin(IsolationLevel::kSnapshot);
  ASSERT_EQ(ScanCount(scanner, 5, 35), 3u);

  Put(96, 25);  // commits mid-scan

  // The snapshot reader's repeat scan still sees its begin-time state, and
  // commits fine: exclusion, not abort.
  EXPECT_EQ(ScanCount(scanner, 5, 35), 3u);
  EXPECT_TRUE(db_->Commit(scanner).ok());

  // A fresh transaction sees the insert.
  Txn* after = db_->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(ScanCount(after, 5, 35), 4u);
  EXPECT_TRUE(db_->Commit(after).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PhantomRangeTest,
                         ::testing::Values(Scheme::kSingleVersion,
                                           Scheme::kMultiVersionLocking,
                                           Scheme::kMultiVersionOptimistic),
                         [](const auto& info) {
                           switch (info.param) {
                             case Scheme::kSingleVersion:
                               return std::string("SV");
                             case Scheme::kMultiVersionLocking:
                               return std::string("MVL");
                             default:
                               return std::string("MVO");
                           }
                         });

}  // namespace
}  // namespace mvstore
