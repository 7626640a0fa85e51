// Transaction table: live transactions by ID.
//
// Visibility checks look up transaction IDs found in version Begin/End words
// (Sections 2.5-2.6: "checking another transaction's state and end
// timestamp"); "not found" means the transaction terminated and finalized
// its timestamps, which callers handle by re-reading the version word.
//
// Lookups return raw pointers; callers must hold an EpochGuard, because a
// terminated transaction's object is epoch-retired after removal.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/port.h"
#include "common/spin_latch.h"
#include "common/timing.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"
#include "util/bits.h"

namespace mvstore {

class TxnTable {
 public:
  static constexpr uint32_t kPartitions = 64;

  void Insert(Transaction* txn) {
    Partition& p = PartitionFor(txn->id);
    SpinLatchGuard guard(p.latch);
    p.map.emplace(txn->id, txn);
  }

  /// Remove after postprocessing. The caller epoch-retires the object.
  void Remove(TxnId id) {
    Partition& p = PartitionFor(id);
    SpinLatchGuard guard(p.latch);
    p.map.erase(id);
  }

  /// nullptr if terminated/not found. Caller must hold an EpochGuard.
  Transaction* Find(TxnId id) {
    Partition& p = PartitionFor(id);
    SpinLatchGuard guard(p.latch);
    auto it = p.map.find(id);
    return it == p.map.end() ? nullptr : it->second;
  }

  /// Visit every live transaction, allocation-free. `fn` runs under the
  /// partition latch: keep it tiny and never call back into this table.
  /// Pointers are valid under the caller's EpochGuard.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& p : partitions_) {
      SpinLatchGuard guard(p.latch);
      for (auto& [id, txn] : p.map) fn(txn);
    }
  }

  /// Snapshot all live transactions into `out` (cleared; capacity reused).
  /// Periodic scanners (deadlock detector) hold a scratch vector so the pass
  /// is allocation-free in steady state.
  void SnapshotInto(std::vector<Transaction*>& out) {
    out.clear();
    ForEach([&](Transaction* txn) { out.push_back(txn); });
  }

  /// Snapshot of all live transactions (allocating convenience form).
  std::vector<Transaction*> Snapshot() {
    std::vector<Transaction*> out;
    SnapshotInto(out);
    return out;
  }

  /// Minimum begin timestamp over live transactions, or `fallback` if none.
  /// Every version with end timestamp below this can never be seen again
  /// (GC watermark, Section 2.3). A transaction published with begin_ts
  /// still 0 (the Begin() window) pins the watermark at 0: nothing may be
  /// reclaimed until its timestamp is known. Allocation-free: this runs on
  /// every watermark refresh.
  Timestamp MinActiveBeginTs(Timestamp fallback) {
    Timestamp min_ts = fallback;
    ForEach([&](Transaction* txn) {
      Timestamp b = txn->begin_ts.load(std::memory_order_acquire);
      if (b < min_ts) min_ts = b;
    });
    return min_ts;
  }

  /// Rate-limited, *monotone* watermark: refreshed from MinActiveBeginTs at
  /// most every ~200us, and never allowed to regress. Regression would be
  /// safe (it only delays reclamation) but real: a transaction caught inside
  /// the Begin() window publishes begin_ts 0 and would yank a cached
  /// watermark of millions back to zero for the next 200us, stalling every
  /// cooperative GC pass. The max-guard is sound because a transaction that
  /// begins after a refresh observed watermark W gets begin_ts >= the clock
  /// at that refresh >= W, so versions dead before W stay invisible to it.
  /// `now()` (the no-active-transactions fallback) must be monotone; callers
  /// pass the commit clock. It is called only when a refresh is due, so the
  /// hot clock's cacheline is not read on every call.
  template <typename NowFn>
  Timestamp CachedMinActiveBeginTs(NowFn&& now) {
    uint64_t t = NowMicros();
    uint64_t last = watermark_refreshed_us_.load(std::memory_order_relaxed);
    if (t - last > kWatermarkRefreshUs &&
        watermark_refreshed_us_.compare_exchange_strong(
            last, t, std::memory_order_relaxed)) {
      Timestamp exact = MinActiveBeginTs(now());
      Timestamp cached = cached_min_begin_.load(std::memory_order_relaxed);
      while (cached < exact &&
             !cached_min_begin_.compare_exchange_weak(
                 cached, exact, std::memory_order_release)) {
      }
    }
    return cached_min_begin_.load(std::memory_order_acquire);
  }

  /// The cached watermark as last refreshed: no clock read, no refresh.
  Timestamp LastMinActiveBeginTs() const {
    return cached_min_begin_.load(std::memory_order_acquire);
  }

  uint64_t Size() const {
    uint64_t n = 0;
    for (auto& p : partitions_) {
      SpinLatchGuard guard(p.latch);
      n += p.map.size();
    }
    return n;
  }

 private:
  friend struct TsaNegativeProbe;  // scripts/tsa_fixtures/ (compile-only)

  struct alignas(kCacheLineSize) Partition {
    mutable SpinLatch latch;
    std::unordered_map<TxnId, Transaction*> map GUARDED_BY(latch);
  };

  /// Block-affine partitioning: transaction IDs are drawn in per-thread
  /// blocks of TxnIdGenerator::kBlockSize, so mapping each block to one
  /// partition keeps a thread's Insert/Remove traffic on a partition no
  /// other thread is currently hammering. Lookups of *other* transactions'
  /// IDs (visibility checks) still spread across partitions as blocks do.
  Partition& PartitionFor(TxnId id) {
    return partitions_[(id - 1) / TxnIdGenerator::kBlockSize % kPartitions];
  }

  static constexpr uint64_t kWatermarkRefreshUs = 200;

  mutable std::array<Partition, kPartitions> partitions_;
  std::atomic<uint64_t> watermark_refreshed_us_{0};
  std::atomic<Timestamp> cached_min_begin_{0};
};

}  // namespace mvstore
