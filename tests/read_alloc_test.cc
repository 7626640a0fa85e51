// Point reads do not touch the heap: once warmed up, a Read Committed
// Database::Read allocates nothing, in every scheme; nor does a warmed-up
// MV Read Committed update-and-commit. The binary replaces
// the global operator new/delete with counting versions; only allocations
// the test thread makes while `t_counting` is set are counted, so the
// engine's background threads (GC sweep, deadlock detector) do not
// interfere.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/database.h"

namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t size, std::size_t alignment) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return Allocate(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return Allocate(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class ReadAllocTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ReadAllocTest, WarmReadCommittedReadsDoNotAllocate) {
  constexpr uint64_t kRows = 64;
  constexpr int kReads = 1000;
  DatabaseOptions opts;
  opts.scheme = GetParam();
  opts.log_mode = LogMode::kDisabled;
  Database db(opts);
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 128, true});
  TableId table = db.CreateTable(def);
  for (uint64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
                    Row row{k, k * 3};
                    return db.Insert(t, table, &row);
                  }).ok());
  }

  Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
  Row row{};
  // Warm-up: first-use per-thread slots and cells are claimed here.
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(db.Read(txn, table, 0, i % kRows, &row).ok());
  }
  t_allocations = 0;
  t_counting = true;
  uint64_t sum = 0;
  bool all_ok = true;
  for (int i = 0; i < kReads; ++i) {
    all_ok &= db.Read(txn, table, 0, i % kRows, &row).ok();
    sum += row.value;
  }
  t_counting = false;
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(t_allocations, 0u);
  uint64_t expected = 0;
  for (int i = 0; i < kReads; ++i) expected += (i % kRows) * 3;
  EXPECT_EQ(sum, expected);
  ASSERT_TRUE(db.Commit(txn).ok());
}

/// The MV commit path does not touch the heap either: once warmed up, a
/// Read Committed transaction that updates two rows and commits allocates
/// nothing on the committing thread -- Begin (pooled object, latch-free
/// transaction-table publish), the version slots, the GC queue and the
/// epoch retire queue all reuse what the warm-up left behind. The GC sweep
/// and deadlock-detector threads are off: each pass holds an EpochGuard,
/// and a pass that happens to be descheduled holds back epoch reclamation,
/// so the retire backlog, and with it the number of transaction objects
/// the pool needs, can reach a new high-water mark after any warm-up.
class CommitAllocTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(CommitAllocTest, WarmReadCommittedUpdateCommitsDoNotAllocate) {
  if (kSanitizerBuild) {
    // At a sanitizer's slowdown the GC's 200us watermark refresh fires
    // before its 128-commit one, so the reclamation pattern, and with it
    // the high-water marks of the pool and the queues, keeps shifting after
    // any warm-up. At full speed the commit count sets the pattern.
    GTEST_SKIP() << "allocation counts are checked in non-sanitizer builds";
  }
  constexpr uint64_t kRows = 64;
  constexpr int kCommits = 10000;
  DatabaseOptions opts;
  opts.scheme = GetParam();
  opts.log_mode = LogMode::kDisabled;
  // Only the committing thread enters epochs (see above).
  opts.gc_interval_us = 0;
  opts.deadlock_interval_us = 0;
  // Version slots come from the slabs even in sanitizer builds.
  opts.use_slab_allocator = true;
  Database db(opts);
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 128, true});
  TableId table = db.CreateTable(def);
  // One loading transaction: every pooled transaction object the loop meets
  // was sized by the loop's own two-write transactions.
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
                  for (uint64_t k = 0; k < kRows; ++k) {
                    Row row{k, 0};
                    Status s = db.Insert(t, table, &row);
                    if (!s.ok()) return s;
                  }
                  return Status::OK();
                }).ok());
  const Mutator bump = [](void* p) { ++static_cast<Row*>(p)->value; };
  auto update_two = [&](int i) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    const uint64_t key = static_cast<uint64_t>(2 * i) % kRows;
    bool ok = db.Update(txn, table, 0, key, bump).ok() &&
              db.Update(txn, table, 0, key + 1, bump).ok();
    return db.Commit(txn).ok() && ok;
  };

  // Warm-up: per-thread slots, pool caches, slab magazines, GC and epoch
  // queue blocks reach their steady state here.
  for (int i = 0; i < kCommits; ++i) ASSERT_TRUE(update_two(i));
  t_allocations = 0;
  t_counting = true;
  bool all_ok = true;
  for (int i = 0; i < kCommits; ++i) all_ok &= update_two(i);
  t_counting = false;
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(t_allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MultiVersion, CommitAllocTest,
    ::testing::Values(Scheme::kMultiVersionLocking,
                      Scheme::kMultiVersionOptimistic),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      return info.param == Scheme::kMultiVersionLocking ? "MVL" : "MVO";
    });

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ReadAllocTest,
    ::testing::Values(Scheme::kSingleVersion, Scheme::kMultiVersionLocking,
                      Scheme::kMultiVersionOptimistic),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      switch (info.param) {
        case Scheme::kSingleVersion:
          return "SV";
        case Scheme::kMultiVersionLocking:
          return "MVL";
        default:
          return "MVO";
      }
    });

}  // namespace
}  // namespace mvstore
