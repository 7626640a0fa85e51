// Global timestamp and transaction-ID generation (paper Section 2.4:
// "Timestamps are drawn from a global, monotonically increasing counter").
//
// Acquiring a timestamp is "the only critical section shared by all
// transactions" in the MV schemes, a single atomic increment (Section 6).
// TimestampGenerator is that counter; both engines draw commit timestamps
// from it.
//
// Snapshot safety -- no end timestamp T <= B drawn after a reader took the
// begin timestamp B = Current() -- follows from the one seq_cst counter and
// MVEngine::Commit publishing Preparing before it draws (see there).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/port.h"
#include "common/types.h"
#include "storage/lock_word.h"

namespace mvstore {

class alignas(kCacheLineSize) TimestampGenerator {
 public:
  /// Unique end timestamp, strictly greater than every Current() value
  /// observed before the call.
  Timestamp Next() {
    return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Current logical time: the largest timestamp drawn so far. At or above
  /// every commit that finished before this call, strictly below every
  /// timestamp Next() returns after it. Used for begin timestamps and the
  /// Read Committed read time; writes nothing shared.
  Timestamp Current() const { return clock_.load(std::memory_order_seq_cst); }

  /// Raise the clock to at least `floor`: every later Next() returns a
  /// value > `floor` and every later Current() >= `floor`. Recovery calls
  /// this after replay so post-recovery commits sort after every record
  /// already in the log (a future recovery's replay order depends on it).
  void AdvanceTo(Timestamp floor) {
    uint64_t current = clock_.load(std::memory_order_seq_cst);
    while (current < floor &&
           !clock_.compare_exchange_weak(current, floor,
                                         std::memory_order_seq_cst)) {
    }
  }

 private:
  std::atomic<uint64_t> clock_{0};
};

/// Transaction IDs come from their own counter; they live in a disjoint
/// encoding space from timestamps (bit 63 of version words) and must fit
/// the 54-bit MV/L WriteLock field. Threads draw blocks of raw ids and mask
/// each one; on 54-bit wraparound (never reached in practice) the values 0
/// and kNoWriter are skipped. Abandoned block remainders are harmless: ids
/// need to be unique, not dense.
class TxnIdGenerator {
 public:
  static constexpr uint32_t kBlockSize = 64;

  TxnIdGenerator() : TxnIdGenerator(0) {}
  /// `start_raw` pre-positions the raw counter (tests exercise wraparound).
  explicit TxnIdGenerator(uint64_t start_raw)
      : counter_(start_raw), instance_id_(NextInstanceId()) {}

  TxnId Next() {
    // POD thread-locals: no teardown hazard, and a thread switching between
    // generators just abandons its remainder.
    static thread_local uint64_t cached_instance = 0;
    static thread_local uint64_t next_raw = 0;
    static thread_local uint32_t remaining = 0;
    if (cached_instance != instance_id_) {
      cached_instance = instance_id_;
      remaining = 0;
    }
    while (true) {
      if (remaining == 0) {
        next_raw = counter_.fetch_add(kBlockSize, std::memory_order_relaxed);
        remaining = kBlockSize;
      }
      TxnId id = (++next_raw) & lockword::kWriteLockMask;
      --remaining;
      if (id != 0 && id != lockword::kNoWriter) return id;
    }
  }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  alignas(kCacheLineSize) std::atomic<uint64_t> counter_;
  const uint64_t instance_id_;
};

}  // namespace mvstore
