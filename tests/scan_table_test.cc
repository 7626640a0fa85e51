// Full-table scans (paper Section 2.1: "To scan a table, one simply scans
// all buckets of any index on the table").
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/random.h"
#include "core/database.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  int64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class ScanTableTest : public ::testing::TestWithParam<Scheme> {
 protected:
  ScanTableTest() {
    DatabaseOptions opts;
    opts.scheme = GetParam();
    opts.log_mode = LogMode::kDisabled;
    db_ = std::make_unique<Database>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = db_->CreateTable(def);
  }

  void Put(uint64_t key, int64_t value) {
    ASSERT_TRUE(db_->RunTransaction(IsolationLevel::kReadCommitted,
                                    [&](Txn* t) {
                                      Row row{key, value};
                                      return db_->Insert(t, table_, &row);
                                    })
                    .ok());
  }

  std::unique_ptr<Database> db_;
  TableId table_ = 0;
};

TEST_P(ScanTableTest, SeesAllCommittedRows) {
  for (uint64_t k = 0; k < 100; ++k) Put(k, static_cast<int64_t>(k));
  std::set<uint64_t> seen;
  Status s = db_->RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
    seen.clear();
    return db_->ScanTable(t, table_, [&](const void* p) {
      seen.insert(static_cast<const Row*>(p)->key);
      return true;
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(seen.size(), 100u);
}

TEST_P(ScanTableTest, EarlyStopHonored) {
  for (uint64_t k = 0; k < 50; ++k) Put(k, 1);
  int visited = 0;
  ASSERT_TRUE(db_->RunTransaction(IsolationLevel::kReadCommitted,
                                  [&](Txn* t) {
                                    return db_->ScanTable(t, table_,
                                                          [&](const void*) {
                                                            return ++visited <
                                                                   10;
                                                          });
                                  })
                  .ok());
  EXPECT_EQ(visited, 10);
}

TEST_P(ScanTableTest, UncommittedAndDeletedRowsExcluded) {
  if (GetParam() == Scheme::kSingleVersion) {
    GTEST_SKIP() << "1V full scans block on uncommitted writers instead";
  }
  Put(1, 10);
  Put(2, 20);
  // Delete row 2 (committed); insert row 3 (uncommitted).
  ASSERT_TRUE(db_->RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
                  return db_->Delete(t, table_, 0, 2);
                }).ok());
  Txn* pending = db_->Begin(IsolationLevel::kReadCommitted);
  Row row{3, 30};
  ASSERT_TRUE(db_->Insert(pending, table_, &row).ok());

  std::set<uint64_t> seen;
  ASSERT_TRUE(db_->RunTransaction(IsolationLevel::kReadCommitted,
                                  [&](Txn* t) {
                                    seen.clear();
                                    return db_->ScanTable(
                                        t, table_, [&](const void* p) {
                                          seen.insert(
                                              static_cast<const Row*>(p)->key);
                                          return true;
                                        });
                                  })
                  .ok());
  EXPECT_EQ(seen, std::set<uint64_t>{1});
  db_->Abort(pending);
}

TEST_P(ScanTableTest, SnapshotScanIsConsistentUnderChurn) {
  if (GetParam() == Scheme::kSingleVersion) {
    GTEST_SKIP() << "1V has no snapshot scans";
  }
  constexpr uint64_t kRows = 32;
  constexpr int64_t kInitial = 100;
  for (uint64_t k = 0; k < kRows; ++k) Put(k, kInitial);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(5);
    while (!stop.load()) {
      db_->RunTransaction(
          IsolationLevel::kReadCommitted,
          [&](Txn* t) {
            uint64_t a = rng.Uniform(kRows);
            uint64_t b = (a + 1) % kRows;
            Status s = db_->Update(t, table_, 0, a, [](void* p) {
              static_cast<Row*>(p)->value -= 3;
            });
            if (!s.ok()) return s;
            return db_->Update(t, table_, 0, b, [](void* p) {
              static_cast<Row*>(p)->value += 3;
            });
          });
    }
  });

  for (int i = 0; i < 50; ++i) {
    int64_t total = 0;
    Status s = db_->RunTransaction(IsolationLevel::kSnapshot, [&](Txn* t) {
      total = 0;
      return db_->ScanTable(t, table_, [&](const void* p) {
        total += static_cast<const Row*>(p)->value;
        return true;
      });
    });
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(total, static_cast<int64_t>(kRows) * kInitial);
  }
  stop.store(true);
  writer.join();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScanTableTest,
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
