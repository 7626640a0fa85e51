#include "obs/histogram.h"

#include "common/timing.h"

namespace mvstore {
namespace obs {

double NanosPerTick() {
  // Magic-static: the first caller (always a cold path — snapshot,
  // exposition, slow-txn threshold conversion) pays a ~2ms spin measuring
  // the tick clock against steady_clock; everyone else reads the cached
  // ratio.
  static const double ratio = [] {
    uint64_t ticks0 = NowTicks();
    uint64_t nanos0 = NowNanos();
    while (NowNanos() - nanos0 < 2'000'000) {
    }
    uint64_t nanos1 = NowNanos();
    uint64_t ticks1 = NowTicks();
    if (ticks1 <= ticks0) return 1.0;  // broken tick source: assume ns
    return static_cast<double>(nanos1 - nanos0) /
           static_cast<double>(ticks1 - ticks0);
  }();
  return ratio;
}

void LatencyHistograms::Retire(Cell& cell) {
  // retired_ takes fetch_add: several threads may be exiting at once.
  for (uint32_t h = 0; h < cell.slots.size(); ++h) {
    Slot& from = cell.slots[h];
    Slot& into = retired_.slots[h];
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      uint64_t n = from.buckets[i].load(std::memory_order_relaxed);
      if (n != 0) {
        into.buckets[i].fetch_add(n, std::memory_order_relaxed);
        from.buckets[i].store(0, std::memory_order_relaxed);
      }
    }
    uint64_t sum = from.sum.load(std::memory_order_relaxed);
    if (sum != 0) {
      into.sum.fetch_add(sum, std::memory_order_relaxed);
      from.sum.store(0, std::memory_order_relaxed);
    }
    uint64_t max = from.max.load(std::memory_order_relaxed);
    from.max.store(0, std::memory_order_relaxed);
    uint64_t seen = into.max.load(std::memory_order_relaxed);
    while (max > seen && !into.max.compare_exchange_weak(
                             seen, max, std::memory_order_relaxed)) {
    }
  }
}

}  // namespace obs
}  // namespace mvstore
