// Point reads do not touch the heap: once warmed up, a Read Committed
// Database::Read allocates nothing, in every scheme. The binary replaces
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
