#include "util/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cc/mv_engine.h"
#include "common/counters.h"
#include "mem/object_pool.h"
#include "mem/slab_allocator.h"
#include "obs/histogram.h"

namespace mvstore {
namespace {

struct Counted {
  explicit Counted(std::atomic<int>& counter) : counter(counter) {
    counter.fetch_add(1);
  }
  ~Counted() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

TEST(EpochTest, RetiredObjectFreedAfterAdvance) {
  EpochManager em;
  std::atomic<int> live{0};
  em.RetireObject(new Counted(live));
  EXPECT_EQ(live.load(), 1);
  em.TryAdvanceAndReclaim();
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.PendingCount(), 0u);
}

TEST(EpochTest, GuardBlocksReclamation) {
  EpochManager em;
  std::atomic<int> live{0};
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};

  std::thread reader([&] {
    EpochGuard guard(em);
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!entered.load()) std::this_thread::yield();

  em.RetireObject(new Counted(live));
  em.TryAdvanceAndReclaim();
  em.TryAdvanceAndReclaim();
  // The reader entered before retirement, so the object must survive.
  EXPECT_EQ(live.load(), 1);

  release.store(true);
  reader.join();
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedGuardsShareSlot) {
  EpochManager em;
  std::atomic<int> live{0};
  {
    EpochGuard outer(em);
    {
      EpochGuard inner(em);
      em.RetireObject(new Counted(live));
    }
    em.TryAdvanceAndReclaim();
    em.TryAdvanceAndReclaim();
    // Outer guard still active: object was retired while we might hold it.
    // (We entered before retirement, so it must survive.)
    EXPECT_EQ(live.load(), 1);
  }
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, DrainAllFreesEverything) {
  EpochManager em;
  std::atomic<int> live{0};
  for (int i = 0; i < 100; ++i) em.RetireObject(new Counted(live));
  em.DrainAll();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.PendingCount(), 0u);
}

TEST(EpochTest, EpochAdvances) {
  EpochManager em;
  uint64_t e0 = em.CurrentEpoch();
  em.TryAdvanceAndReclaim();
  EXPECT_GT(em.CurrentEpoch(), e0);
}

/// Thread churn: slots must be recycled through the thread-exit registry,
/// not burned one per thread -- kMaxThreads (512) short-lived threads used
/// to exhaust the slot table for the life of the manager, silently
/// degrading every later guard to the slotless fallback path.
// Every owner of per-thread slots (util/tls_slots.h), each touched once by
// each of many sequential short-lived threads. A thread's exit must hand its
// slot back -- the table stays a handful of slots, not one per thread -- and
// whatever the slot held must survive: counts, histogram tallies, retired
// objects, magazine slots, cached pool objects and queued GC versions.
constexpr uint32_t kChurn = 1000;

struct StatsOwner {
  static constexpr uint32_t kCapacity = StatsCollector::kMaxCells;
  StatsCollector stats;
  void Touch() { stats.Add(Stat::kTxnCommitted); }
  uint32_t Used() const { return stats.UsedCells(); }
  void Check() { EXPECT_EQ(stats.Get(Stat::kTxnCommitted), kChurn); }
};

struct HistogramOwner {
  static constexpr uint32_t kCapacity = obs::LatencyHistograms::kMaxCells;
  obs::LatencyHistograms hists;
  void Touch() { hists.Record(obs::Hist::kReadLatency, 7); }
  uint32_t Used() const { return hists.UsedCells(); }
  void Check() {
    obs::HistogramData snap = hists.Snapshot(obs::Hist::kReadLatency);
    EXPECT_EQ(snap.count, kChurn);
    EXPECT_EQ(snap.sum, 7u * kChurn);
    EXPECT_EQ(snap.max, 7u);
  }
};

struct EpochOwner {
  static constexpr uint32_t kCapacity = EpochManager::kMaxThreads;
  EpochManager em;
  std::atomic<int> live{0};
  void Touch() {
    EpochGuard guard(em);
    em.RetireObject(new Counted(live));
  }
  uint32_t Used() const { return em.UsedSlots(); }
  void Check() {
    em.DrainAll();
    EXPECT_EQ(live.load(), 0);
    EXPECT_EQ(em.PendingCount(), 0u);
  }
};

struct SlabOwner {
  static constexpr uint32_t kCapacity = SlabAllocator::kMaxMagazines;
  StatsCollector stats;
  SlabAllocator slab{200, &stats};
  void Touch() { slab.Free(slab.Allocate()); }
  uint32_t Used() const { return slab.UsedMagazines(); }
  void Check() {
    // An exiting thread's magazine goes back to the spine, so the next
    // thread refills from it instead of carving a new chunk.
    EXPECT_LE(slab.chunks_allocated(), 2u);
    EXPECT_EQ(stats.Get(Stat::kSlabSlotsRecycled), kChurn);
  }
};

struct Pooled {
  explicit Pooled(int v) : value(v) {}
  void Reset(int v) { value = v; }
  int value;
};

struct PoolOwner {
  static constexpr uint32_t kCapacity = ObjectPool<Pooled>::kMaxCaches;
  StatsCollector stats;
  ObjectPool<Pooled> pool{/*enabled=*/true, &stats};
  void Touch() { pool.Release(pool.Acquire(1)); }
  uint32_t Used() const { return pool.UsedCaches(); }
  void Check() {
    // An exiting thread's cache goes back to the freelist, so the next
    // thread reuses the object instead of constructing one.
    EXPECT_LE(stats.Get(Stat::kTxnPoolMisses), 4u);
    EXPECT_EQ(stats.Get(Stat::kTxnPoolHits) +
                  stats.Get(Stat::kTxnPoolMisses),
              kChurn);
  }
};

struct GcRow {
  uint64_t key;
  uint64_t value;
};

struct GcOwner {
  static constexpr uint32_t kCapacity = GarbageCollector::kMaxThreads;
  static DatabaseOptions SubstrateOptions() {
    DatabaseOptions opts;
    opts.log_mode = LogMode::kDisabled;
    return opts;
  }
  static MVEngineOptions Options() {
    MVEngineOptions opts;
    opts.gc_interval_us = 0;
    opts.deadlock_interval_us = 0;
    opts.cooperative_gc_budget = 0;  // every queue outlives its thread
    return opts;
  }
  static uint64_t Key(const void* p) { return static_cast<const GcRow*>(p)->key; }

  GcOwner() {
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(GcRow);
    def.indexes.push_back(IndexDef{&Key, 16, true});
    table = engine.CreateTable(def);
    Transaction* t = engine.Begin(IsolationLevel::kReadCommitted, false);
    GcRow row{1, 0};
    EXPECT_TRUE(engine.Insert(t, table, &row).ok());
    EXPECT_TRUE(engine.Commit(t).ok());
  }
  void Touch() {
    Transaction* t = engine.Begin(IsolationLevel::kReadCommitted, false);
    EXPECT_TRUE(engine.Update(t, table, 0, 1, [](void* p) {
                  static_cast<GcRow*>(p)->value += 1;
                }).ok());
    EXPECT_TRUE(engine.Commit(t).ok());
  }
  uint32_t Used() { return engine.gc().UsedSlots(); }
  void Check() {
    // Each exited thread's one superseded version moved to the orphan list.
    EXPECT_EQ(engine.gc().PendingCount(), kChurn);
    EXPECT_EQ(engine.gc().RunOnce(), kChurn);
    EXPECT_EQ(engine.gc().PendingCount(), 0u);
    EXPECT_EQ(substrate.stats().Get(Stat::kVersionsCollected), kChurn);
    Transaction* t = engine.Begin(IsolationLevel::kReadCommitted, false);
    GcRow row{};
    EXPECT_TRUE(engine.Read(t, table, 0, 1, &row).ok());
    EXPECT_TRUE(engine.Commit(t).ok());
    EXPECT_EQ(row.value, kChurn);
  }

  Substrate substrate{SubstrateOptions()};
  MVEngine engine{substrate, Options()};
  TableId table = 0;
};

template <typename Owner>
class SlotChurnTest : public ::testing::Test {};

using SlotOwners = ::testing::Types<StatsOwner, HistogramOwner, EpochOwner,
                                    SlabOwner, PoolOwner, GcOwner>;

class SlotOwnerNames {
 public:
  template <typename Owner>
  static std::string GetName(int) {
    if (std::is_same_v<Owner, StatsOwner>) return "Stats";
    if (std::is_same_v<Owner, HistogramOwner>) return "Histograms";
    if (std::is_same_v<Owner, EpochOwner>) return "Epoch";
    if (std::is_same_v<Owner, SlabOwner>) return "Slab";
    if (std::is_same_v<Owner, GcOwner>) return "Gc";
    return "Pool";
  }
};

TYPED_TEST_SUITE(SlotChurnTest, SlotOwners, SlotOwnerNames);

TYPED_TEST(SlotChurnTest, SlotReuseUnderThreadChurn) {
  static_assert(kChurn > TypeParam::kCapacity,
                "churn must exceed the slot table to prove reuse");
  TypeParam owner;
  for (uint32_t i = 0; i < kChurn; ++i) {
    std::thread t([&owner] { owner.Touch(); });
    t.join();
  }
  // Sequential churn: each thread released its slot on exit, so the next
  // one found it on the freelist. A handful of slots, not a thousand.
  EXPECT_LE(owner.Used(), 4u);
  owner.Check();
}

TEST(EpochTest, ConcurrentReadersAndRetirers) {
  EpochManager em;
  std::atomic<int> live{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        EpochGuard guard(em);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) em.RetireObject(new Counted(live));
    });
  }
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  for (int t = 0; t < 4; ++t) threads[t].join();

  em.TryAdvanceAndReclaim();
  em.DrainAll();
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace mvstore
