// Global timestamp generation (paper Section 2.4:
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

}  // namespace mvstore
