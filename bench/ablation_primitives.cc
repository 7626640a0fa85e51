// Ablation E9: microbenchmarks of the concurrency-control primitives.
//
// The paper argues (Section 6) that "the only critical section in our method
// is acquiring timestamps ... a single instruction". These google-benchmark
// fixtures measure each building block in isolation: timestamp allocation,
// lock-word CAS, epoch enter/exit, hash-index probes, and the visibility
// check itself.
#include <benchmark/benchmark.h>

#include "cc/visibility.h"
#include "common/random.h"
#include "storage/table.h"
#include "txn/timestamp.h"
#include "util/epoch.h"

namespace mvstore {
namespace {

void BM_TimestampNext(benchmark::State& state) {
  static TimestampGenerator gen;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_TimestampNext)->ThreadRange(1, 16);

void BM_LockWordCas(benchmark::State& state) {
  static std::atomic<uint64_t> word{lockword::MakeTimestamp(kInfinity)};
  for (auto _ : state) {
    uint64_t expected = lockword::MakeTimestamp(kInfinity);
    word.compare_exchange_strong(expected, lockword::MakeLockWord(0, 1));
    word.store(lockword::MakeTimestamp(kInfinity),
               std::memory_order_release);
  }
}
BENCHMARK(BM_LockWordCas)->ThreadRange(1, 8);

void BM_EpochGuard(benchmark::State& state) {
  static EpochManager epoch;
  for (auto _ : state) {
    EpochGuard guard(epoch);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EpochGuard)->ThreadRange(1, 16);

struct Row {
  uint64_t key;
  uint64_t value;
  uint64_t pad;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class IndexFixture : public benchmark::Fixture {
 public:
  static constexpr uint64_t kRows = 100000;

  void SetUp(const benchmark::State&) override {
    if (table_ != nullptr) return;
    TableDef def;
    def.name = "bench";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, kRows, true});
    table_ = new Table(0, def);
    for (uint64_t k = 0; k < kRows; ++k) {
      Row row{k, k, 0};
      Version* v = table_->AllocateVersion(&row);
      v->begin.store(beginword::MakeTimestamp(1));
      table_->InsertIntoAllIndexes(v);
    }
  }

  static Table* table_;
};
Table* IndexFixture::table_ = nullptr;

BENCHMARK_DEFINE_F(IndexFixture, Probe)(benchmark::State& state) {
  Random rng(state.thread_index());
  HashIndex& index = table_->index(0);
  for (auto _ : state) {
    uint64_t key = rng.Uniform(kRows);
    Version* found = nullptr;
    index.ScanBucket(key, [&](Version* v) {
      if (index.KeyOf(v) == key) {
        found = v;
        return false;
      }
      return true;
    });
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK_REGISTER_F(IndexFixture, Probe)->ThreadRange(1, 8);

BENCHMARK_DEFINE_F(IndexFixture, VisibilityCheck)(benchmark::State& state) {
  TxnTable txn_table;
  StatsCollector stats;
  Transaction self(IsolationLevel::kReadCommitted, false, false);
  txn_table.Publish(&self);
  VisibilityContext ctx;
  ctx.self = &self;
  ctx.txn_table = &txn_table;
  ctx.stats = &stats;

  Random rng(state.thread_index());
  HashIndex& index = table_->index(0);
  for (auto _ : state) {
    uint64_t key = rng.Uniform(kRows);
    index.ScanBucket(key, [&](Version* v) {
      if (index.KeyOf(v) != key) return true;
      benchmark::DoNotOptimize(CheckVisibility(ctx, v, 100).visible);
      return false;
    });
  }
  txn_table.Unpublish(&self);
}
BENCHMARK_REGISTER_F(IndexFixture, VisibilityCheck);

/// Version allocation churn, slab vs heap (the alloc_bench axis, inside the
/// google-benchmark harness): each thread keeps a small FIFO ring of live
/// versions, the shape GC-driven recycling produces.
template <bool kUseSlab>
void BM_VersionAllocFree(benchmark::State& state) {
  static Table* table = [] {
    TableDef def;
    def.name = kUseSlab ? "alloc_slab" : "alloc_heap";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 64, true});
    return new Table(0, def, TableMemoryOptions{kUseSlab, nullptr});
  }();
  Row row{1, 2, 3};
  constexpr uint32_t kLive = 64;
  std::vector<Version*> ring(kLive, nullptr);
  uint32_t cursor = 0;
  for (auto _ : state) {
    if (ring[cursor] != nullptr) table->FreeUnpublishedVersion(ring[cursor]);
    Version* v = table->AllocateVersion(&row);
    benchmark::DoNotOptimize(v);
    ring[cursor] = v;
    cursor = (cursor + 1) % kLive;
  }
  for (Version* v : ring) {
    if (v != nullptr) table->FreeUnpublishedVersion(v);
  }
}
BENCHMARK(BM_VersionAllocFree<false>)->Name("BM_VersionAllocFree/heap")
    ->ThreadRange(1, 8);
BENCHMARK(BM_VersionAllocFree<true>)->Name("BM_VersionAllocFree/slab")
    ->ThreadRange(1, 8);

}  // namespace
}  // namespace mvstore

BENCHMARK_MAIN();
