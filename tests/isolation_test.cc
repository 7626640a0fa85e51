// Anomaly matrix: which isolation anomalies each (scheme, level) pair must
// prevent or permit.
//
//   * Dirty read       -- prevented at every level by every scheme.
//   * Non-repeatable read -- permitted at Read Committed, prevented at
//     Repeatable Read and above.
//   * Lost update      -- prevented by first-writer-wins (MV) / X locks (1V).
//   * Phantom          -- prevented at Serializable.
//   * Write skew       -- prevented at Serializable (read stability);
//     permitted under Snapshot isolation (the classic SI anomaly).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  int64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class IsolationTest : public ::testing::TestWithParam<Scheme> {
 protected:
  IsolationTest() {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kDisabled;
    opts.lock_timeout_us = 50000;
    db_ = std::make_unique<Database>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = db_->CreateTable(def);
  }

  bool IsSV() const { return GetParam() == Scheme::kSingleVersion; }

  void Put(uint64_t key, int64_t value) {
    Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
    Row row{key, value};
    ASSERT_TRUE(db_->Insert(txn, table_, &row).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  std::optional<int64_t> Get(uint64_t key) {
    Row row{};
    Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
    Status s = db_->Read(txn, table_, 0, key, &row);
    if (s.IsAborted()) return std::nullopt;
    db_->Commit(txn);
    if (!s.ok()) return std::nullopt;
    return row.value;
  }

  std::unique_ptr<Database> db_;
  TableId table_ = 0;
};

/// Dirty read: T2 must never observe T1's uncommitted write, at any level.
TEST_P(IsolationTest, NoDirtyRead) {
  Put(1, 100);
  Txn* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(db_->Update(t1, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = -1;
                 }).ok());

  // Reader in another thread (1V blocks on the lock; run it concurrently
  // and resolve by committing the writer).
  std::optional<int64_t> seen;
  std::thread reader([&] {
    Row row{};
    Txn* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    Status s = db_->Read(t2, table_, 0, 1, &row);
    if (s.ok()) {
      seen = row.value;
      db_->Commit(t2);
    } else if (!s.IsAborted()) {
      db_->Abort(t2);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(db_->Commit(t1).ok());
  reader.join();
  // The reader saw either the old value or the new committed value (1V:
  // after blocking), never a torn/dirty intermediate... -1 is the
  // uncommitted value only until commit, so both -1-after-commit and 100
  // are legal; what is illegal is -1 *before* t1 committed. Since the reader
  // may have read after commit, assert it saw a committed value.
  if (seen.has_value()) {
    EXPECT_TRUE(*seen == 100 || *seen == -1);
  }
  // Deterministic variant for MV schemes: uncommitted writes are invisible.
  if (!IsSV()) {
    Txn* t3 = db_->Begin(IsolationLevel::kReadCommitted);
    ASSERT_TRUE(db_->Update(t3, table_, 0, 1, [](void* p) {
                     static_cast<Row*>(p)->value = -2;
                   }).ok());
    EXPECT_EQ(Get(1).value_or(0), -1);  // still the committed value
    db_->Abort(t3);
  }
}

/// Non-repeatable read: permitted at RC, prevented at RR+.
TEST_P(IsolationTest, NonRepeatableReadAtReadCommitted) {
  Put(1, 100);
  Txn* t1 = db_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(db_->Read(t1, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 100);

  // Concurrent committed update (thread needed for 1V's short locks --
  // actually RC uses short locks, so this succeeds inline).
  Txn* t2 = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(db_->Update(t2, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 200;
                 }).ok());
  ASSERT_TRUE(db_->Commit(t2).ok());

  ASSERT_TRUE(db_->Read(t1, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 200);  // RC rereads the latest committed value
  ASSERT_TRUE(db_->Commit(t1).ok());
}

TEST_P(IsolationTest, RepeatableReadPreventsNonRepeatableRead) {
  Put(1, 100);
  Txn* t1 = db_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(db_->Read(t1, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 100);

  // Concurrent update. Under MV/L the updater installs the new version
  // eagerly but its *commit* waits for t1's read lock, so t1 must commit
  // before this thread can be joined.
  std::thread updater([&] {
    Txn* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    Status s = db_->Update(t2, table_, 0, 1, [](void* p) {
      static_cast<Row*>(p)->value = 200;
    });
    if (s.ok()) {
      db_->Commit(t2);
    } else if (!s.IsAborted()) {
      db_->Abort(t2);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  Status r2 = db_->Read(t1, table_, 0, 1, &row);
  int64_t second_read = row.value;
  Status c = r2.ok() ? db_->Commit(t1) : r2;
  updater.join();
  if (r2.ok() && c.ok()) {
    // If t1 committed, both its reads must have returned the same value.
    EXPECT_EQ(second_read, 100);
  }
  // Other legal outcomes: MV/O fails read validation; 1V's updater times
  // out; MV/L's updater waits until after t1's commit.
}

/// Lost update: concurrent increments must all be reflected in the total.
TEST_P(IsolationTest, NoLostUpdate) {
  Put(1, 0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int done = 0;
      while (done < kIncrements) {
        Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
        Status s = db_->Update(txn, table_, 0, 1, [](void* p) {
          static_cast<Row*>(p)->value += 1;
        });
        if (s.ok() && db_->Commit(txn).ok()) {
          ++done;
        } else if (!s.IsAborted() && !s.ok()) {
          db_->Abort(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(Get(1).value_or(-1), kThreads * kIncrements);
}

/// Phantom: serializable scans must not see new rows appear.
TEST_P(IsolationTest, SerializablePreventsPhantom) {
  Put(10, 1);
  // t1: serializable, scans key 11 (absent), then re-scans after t2 inserts.
  Txn* t1 = db_->Begin(IsolationLevel::kSerializable);
  int count1 = 0;
  ASSERT_TRUE(db_->Scan(t1, table_, 0, 11, nullptr, [&](const void*) {
                   ++count1;
                   return true;
                 }).ok());
  EXPECT_EQ(count1, 0);

  // t2 inserts key 11 concurrently.
  std::thread inserter([&] {
    Txn* t2 = db_->Begin(IsolationLevel::kReadCommitted);
    Row row{11, 7};
    Status s = db_->Insert(t2, table_, &row);
    if (s.ok()) {
      db_->Commit(t2);
    } else if (!s.IsAborted()) {
      db_->Abort(t2);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  int count2 = 0;
  Status rescan = db_->Scan(t1, table_, 0, 11, nullptr, [&](const void*) {
    ++count2;
    return true;
  });
  Status commit = rescan.IsAborted() ? rescan : db_->Commit(t1);
  inserter.join();

  if (commit.ok()) {
    // t1 committed: its two scans must agree (no phantom appeared).
    EXPECT_EQ(count1, count2);
  }
  // Otherwise t1 was aborted (validation/phantom/lock) -- also a correct way
  // to prevent the anomaly.
}

/// Write skew: two transactions read both rows, each updates one, violating
/// a constraint (sum >= 0). Serializable must prevent it; snapshot (MV) may
/// permit it -- the classic SI anomaly.
TEST_P(IsolationTest, SerializablePreventsWriteSkew) {
  Put(1, 50);
  Put(2, 50);
  auto skew_txn = [&](uint64_t read_key, uint64_t write_key) {
    Txn* txn = db_->Begin(IsolationLevel::kSerializable);
    Row a{}, b{};
    Status s = db_->Read(txn, table_, 0, read_key, &a);
    if (s.IsAborted()) return s;
    s = db_->Read(txn, table_, 0, write_key, &b);
    if (s.IsAborted()) return s;
    if (a.value + b.value >= 100) {
      s = db_->Update(txn, table_, 0, write_key, [](void* p) {
        static_cast<Row*>(p)->value -= 100;
      });
      if (s.IsAborted()) return s;
    }
    return db_->Commit(txn);
  };

  Status s1, s2;
  std::thread t1([&] { s1 = skew_txn(1, 2); });
  std::thread t2([&] { s2 = skew_txn(2, 1); });
  t1.join();
  t2.join();

  // At most one of the two may commit; the constraint must hold.
  int64_t sum = Get(1).value_or(0) + Get(2).value_or(0);
  EXPECT_GE(sum, -100 + 100);  // i.e. sum >= 0
  EXPECT_FALSE(s1.ok() && s2.ok() && sum < 0);
  EXPECT_GE(sum, 0);
}

TEST_P(IsolationTest, SnapshotAllowsWriteSkewOnMV) {
  if (IsSV()) GTEST_SKIP() << "1V maps snapshot to repeatable read";
  Put(1, 50);
  Put(2, 50);
  // Force the interleaving: both read under SI, then both write.
  Txn* t1 = db_->Begin(IsolationLevel::kSnapshot);
  Txn* t2 = db_->Begin(IsolationLevel::kSnapshot);
  Row row{};
  ASSERT_TRUE(db_->Read(t1, table_, 0, 1, &row).ok());
  ASSERT_TRUE(db_->Read(t1, table_, 0, 2, &row).ok());
  ASSERT_TRUE(db_->Read(t2, table_, 0, 1, &row).ok());
  ASSERT_TRUE(db_->Read(t2, table_, 0, 2, &row).ok());
  Status w1 = db_->Update(t1, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value -= 100;
  });
  Status w2 = db_->Update(t2, table_, 0, 2, [](void* p) {
    static_cast<Row*>(p)->value -= 100;
  });
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(db_->Commit(t1).ok());
  ASSERT_TRUE(db_->Commit(t2).ok());
  // Write skew admitted: both committed, constraint violated.
  EXPECT_LT(Get(1).value_or(0) + Get(2).value_or(0), 0);
}

/// Read-only snapshot transactions see a consistent point-in-time view even
/// while writers churn (the mechanism behind Figures 6-9).
TEST_P(IsolationTest, SnapshotReadsAreConsistent) {
  if (IsSV()) GTEST_SKIP() << "1V has no snapshots";
  Put(1, 500);
  Put(2, 500);

  std::atomic<bool> stop{false};
  // Writer: moves money between rows 1 and 2; sum invariant 1000.
  std::thread writer([&] {
    Random rng(1);
    while (!stop.load()) {
      Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
      Status s = db_->Update(txn, table_, 0, 1, [](void* p) {
        static_cast<Row*>(p)->value -= 10;
      });
      if (s.ok()) {
        s = db_->Update(txn, table_, 0, 2, [](void* p) {
          static_cast<Row*>(p)->value += 10;
        });
      }
      if (s.ok()) {
        db_->Commit(txn);
      } else if (!s.IsAborted()) {
        db_->Abort(txn);
      }
    }
  });

  for (int i = 0; i < 100; ++i) {
    Txn* txn = db_->Begin(IsolationLevel::kSnapshot, /*read_only=*/true);
    Row a{}, b{};
    Status s1 = db_->Read(txn, table_, 0, 1, &a);
    Status s2 = db_->Read(txn, table_, 0, 2, &b);
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(a.value + b.value, 1000);
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  stop.store(true);
  writer.join();
}

std::string SchemeName(const ::testing::TestParamInfo<Scheme>& info) {
  switch (info.param) {
    case Scheme::kSingleVersion:
      return "SV";
    case Scheme::kMultiVersionLocking:
      return "MVL";
    default:
      return "MVO";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, IsolationTest,
                         ::testing::Values(Scheme::kSingleVersion,
                                           Scheme::kMultiVersionLocking,
                                           Scheme::kMultiVersionOptimistic),
                         SchemeName);

/// Read Committed stress: two updaters and two readers on a few rows for
/// about a second. A row that exists is never NotFound. A reader that meets
/// a Preparing updater whose end timestamp is already at or below its read
/// time must read the new version speculatively: skipping to the older
/// version loses the row if the updater commits first, because the older
/// version's end is that same timestamp.
using ReadCommittedStressTest = IsolationTest;

TEST_P(ReadCommittedStressTest, ReadNeverMissesAnExistingRow) {
  constexpr uint64_t kRows = 4;
  for (uint64_t k = 0; k < kRows; ++k) Put(k, 0);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> not_found{0};
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Random rng(w + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
        Status s = db_->Update(txn, table_, 0, rng.Uniform(kRows),
                               [](void* p) { static_cast<Row*>(p)->value++; });
        if (s.ok()) {
          db_->Commit(txn);
        } else if (!s.IsAborted()) {
          db_->Abort(txn);
        }
      }
    });
  }
  for (uint64_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Random rng(r + 100);
      Row row{};
      while (!stop.load(std::memory_order_relaxed)) {
        Txn* txn = db_->Begin(IsolationLevel::kReadCommitted);
        Status s = db_->Read(txn, table_, 0, rng.Uniform(kRows), &row);
        if (s.IsNotFound()) not_found.fetch_add(1);
        if (!s.IsAborted()) db_->Commit(txn);
        reads.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(not_found.load(), 0u) << "of " << reads.load() << " reads";
}

INSTANTIATE_TEST_SUITE_P(MultiVersion, ReadCommittedStressTest,
                         ::testing::Values(Scheme::kMultiVersionLocking,
                                           Scheme::kMultiVersionOptimistic),
                         SchemeName);

}  // namespace
}  // namespace mvstore
