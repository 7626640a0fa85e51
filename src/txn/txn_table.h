// Transaction table: live transactions by ID. Visibility checks resolve the
// transaction IDs in version Begin/End words (Sections 2.5-2.6); "not found"
// means the transaction terminated and finalized its timestamps, and
// callers reread the version word.
//
// The ID is the lookup: TxnId = (incarnation << kSlotBits) | slot. `slot`
// indexes a directory with one entry per transaction object ever
// registered; `incarnation` counts that object's publications there. Find
// loads the entry and compares the object's published_id: no latch, no
// hash, no allocation. Objects must outlive the table (MVEngine's pool
// keeps them) and are epoch-retired before reuse, so a pointer Find returns
// stays that transaction for the caller's EpochGuard.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "common/mutex.h"
#include "common/timing.h"
#include "storage/lock_word.h"
#include "txn/transaction.h"

namespace mvstore {

class TxnTable {
 public:
  static constexpr uint32_t kSlotBits = 20;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr TxnId kIncarnationStep = TxnId{1} << kSlotBits;
  /// Incarnations run 1..kMaxIncarnation: no ID is 0, kNoWriter or above
  /// kMaxTxnId.
  static constexpr uint64_t kMaxIncarnation =
      (lockword::kWriteLockMask >> kSlotBits) - 1;

  TxnTable() = default;
  ~TxnTable() {
    for (auto& chunk : chunks_) delete[] chunk.load();
  }
  TxnTable(const TxnTable&) = delete;
  TxnTable& operator=(const TxnTable&) = delete;

  /// The ID step: the next incarnation of `prev`'s slot, or, for a new
  /// object (`prev` 0) or an exhausted slot, the first of `fresh_slot()`.
  /// Slots are never reused, so no ID repeats in the table's lifetime.
  template <typename FreshSlot>
  static TxnId NextId(TxnId prev, FreshSlot&& fresh_slot) {
    if (prev != 0 && (prev >> kSlotBits) < kMaxIncarnation) {
      return prev + kIncarnationStep;
    }
    return kIncarnationStep | fresh_slot();
  }

  /// Give `txn` its next ID and make it findable, begin_ts still 0. The
  /// seq_cst store orders its re-armed fields before every Find that
  /// returns it, and orders it for MinActiveBeginTs.
  void Publish(Transaction* txn) {
    txn->id = NextId(txn->id, [&] { return Register(txn); });
    txn->published_id.store(txn->id, std::memory_order_seq_cst);
  }

  /// Make `txn` unfindable; the caller then epoch-retires the object.
  void Unpublish(Transaction* txn) {
    txn->published_id.store(0, std::memory_order_seq_cst);
  }

  /// nullptr if terminated/not found. Caller must hold an EpochGuard.
  Transaction* Find(TxnId id) const {
    const uint64_t slot = id & kSlotMask;
    const Entry* chunk =
        chunks_[slot >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;  // never-registered slot
    Transaction* txn =
        chunk[slot % kChunkSlots].load(std::memory_order_acquire);
    if (txn == nullptr ||
        txn->published_id.load(std::memory_order_acquire) != id) {
      return nullptr;
    }
    return txn;
  }

  /// Visit every published transaction, allocation-free and latch-free.
  /// Pointers are valid under the caller's EpochGuard. Seq_cst loads: see
  /// MinActiveBeginTs.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t c = 0; c < kMaxChunks; ++c) {
      Entry* chunk = chunks_[c].load(std::memory_order_seq_cst);
      if (chunk == nullptr) return;  // chunks are registered in order
      for (uint32_t i = 0; i < kChunkSlots; ++i) {
        Transaction* txn = chunk[i].load(std::memory_order_seq_cst);
        if (txn == nullptr) continue;
        const TxnId id = txn->published_id.load(std::memory_order_seq_cst);
        // The slot check skips a moved object's old entry.
        if (id != 0 && (id & kSlotMask) == (uint64_t{c} << kChunkBits | i)) {
          fn(txn);
        }
      }
    }
  }

  /// Minimum begin timestamp over live transactions, or `fallback` if none:
  /// the GC watermark (Section 2.3). An unset begin_ts (the Begin() window)
  /// pins it at 0. A transaction the scan misses published after the scan's
  /// seq_cst loads and then read its begin timestamp from the seq_cst
  /// clock, so it is at or above a `fallback` read from the clock first.
  Timestamp MinActiveBeginTs(Timestamp fallback) const {
    Timestamp min_ts = fallback;
    ForEach([&](Transaction* txn) {
      Timestamp b = txn->begin_ts.load(std::memory_order_acquire);
      if (b < min_ts) min_ts = b;
    });
    return min_ts;
  }

  /// Rate-limited, monotone watermark: refreshed every ~200us, or once
  /// `seen_ts` (the caller's newest commit timestamp) is
  /// kWatermarkRefreshSpan past the last refresh, so a fast committer's GC
  /// backlog is bounded in commits. Never regresses (a Begin() window's
  /// begin_ts 0 would stall every cooperative pass); that is sound because
  /// a later transaction's begin_ts is >= the clock at the refresh. `now()`
  /// (the monotone commit clock) is read only when a refresh is due.
  template <typename NowFn>
  Timestamp CachedMinActiveBeginTs(NowFn&& now, Timestamp seen_ts = 0) {
    uint64_t t = NowMicros();
    uint64_t last = watermark_refreshed_us_.load(std::memory_order_relaxed);
    const bool due =
        t - last > kWatermarkRefreshUs ||
        seen_ts > watermark_refreshed_clock_.load(std::memory_order_relaxed) +
                      kWatermarkRefreshSpan;
    if (due && watermark_refreshed_us_.compare_exchange_strong(
                   last, t, std::memory_order_relaxed)) {
      const Timestamp clock = now();
      watermark_refreshed_clock_.store(clock, std::memory_order_relaxed);
      Timestamp exact = MinActiveBeginTs(clock);
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

  /// Number of published transactions.
  uint64_t Size() const {
    uint64_t n = 0;
    ForEach([&](Transaction*) { ++n; });
    return n;
  }

 private:
  friend struct TsaNegativeProbe;  // scripts/tsa_fixtures/ (compile-only)

  using Entry = std::atomic<Transaction*>;
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr uint32_t kMaxChunks = 1u << (kSlotBits - kChunkBits);
  static constexpr uint64_t kWatermarkRefreshUs = 200;
  static constexpr Timestamp kWatermarkRefreshSpan = 128;

  /// Points the next never-used slot at `txn`; allocates chunks lazily.
  uint32_t Register(Transaction* txn) {
    MutexLock lock(register_mu_);
    if (next_slot_ == kMaxChunks * kChunkSlots) std::abort();  // 2^20 objects
    const uint32_t slot = next_slot_++;
    if (slot % kChunkSlots == 0) {
      chunks_[slot >> kChunkBits].store(new Entry[kChunkSlots]());
    }
    chunks_[slot >> kChunkBits].load()[slot % kChunkSlots].store(txn);
    return slot;
  }

  /// The directory, in lazily allocated chunks of kChunkSlots entries.
  std::atomic<Entry*> chunks_[kMaxChunks] = {};
  Mutex register_mu_;
  uint32_t next_slot_ GUARDED_BY(register_mu_) = 0;

  std::atomic<uint64_t> watermark_refreshed_us_{0};
  std::atomic<Timestamp> watermark_refreshed_clock_{0};
  std::atomic<Timestamp> cached_min_begin_{0};
};

}  // namespace mvstore
