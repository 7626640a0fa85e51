#include "gc/garbage_collector.h"

#include <algorithm>
#include <chrono>

namespace mvstore {

GarbageCollector::GarbageCollector(TxnTable& txn_table, EpochManager& epoch,
                                   StatsCollector& stats,
                                   const TimestampGenerator& clock,
                                   obs::LatencyHistograms& hists,
                                   uint32_t interval_us)
    : txn_table_(txn_table),
      epoch_(epoch),
      stats_(stats),
      clock_(clock),
      hists_(hists),
      interval_us_(interval_us),
      slots_(kMaxThreads, [this](Slot& slot) { ReleaseSlot(slot); }) {}

void GarbageCollector::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      RunOnce();
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us_));
    }
  });
}

void GarbageCollector::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void GarbageCollector::Enqueue(Table* table, Version* version,
                               Timestamp retire_after) {
  const Item item{table, version, retire_after};
  if (Slot* slot = slots_.Mine()) {
    SpinLatchGuard guard(slot->latch);
    if (slot->queue.size() == 0) {
      slot->oldest.store(retire_after, std::memory_order_relaxed);
    }
    slot->queue.PushBack(item);
    slot->newest = std::max(slot->newest, retire_after);
    return;
  }
  SpinLatchGuard guard(orphans_latch_);
  orphans_.PushBack(item);
}

void GarbageCollector::EnqueueImmediate(Table* table, Version* version) {
  Enqueue(table, version, 0);
}

void GarbageCollector::ReleaseSlot(Slot& slot) {
  SpinLatchGuard guard(slot.latch);
  if (slot.queue.size() == 0) return;
  SpinLatchGuard orphans_guard(orphans_latch_);
  while (slot.queue.size() != 0) orphans_.PushBack(slot.queue.PopFront());
  slot.oldest.store(kInfinity, std::memory_order_relaxed);
}

uint32_t GarbageCollector::PopReady(Slot& slot, Timestamp watermark,
                                    Item* batch, uint32_t max) {
  BlockQueue<Item>& queue = slot.queue;
  uint32_t n = 0;
  while (n < max && queue.size() != 0 &&
         queue.front().retire_after < watermark) {
    batch[n++] = queue.PopFront();
  }
  if (n != 0) {
    slot.oldest.store(
        queue.size() != 0 ? queue.front().retire_after : kInfinity,
        std::memory_order_relaxed);
  }
  return n;
}

void GarbageCollector::Reclaim(const Item* batch, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    batch[i].table->UnlinkFromAllIndexes(batch[i].version);
    // The deleter routes the slot back to the owning table's slab (or the
    // heap in fallback mode) once no lock-free scan can still reach it.
    epoch_.Retire(batch[i].version, &Table::VersionDeleter, batch[i].table);
  }
  stats_.Add(Stat::kVersionsCollected, n);
}

uint32_t GarbageCollector::Cooperate(uint32_t budget) {
  Slot* slot = slots_.Peek();
  if (budget == 0 || slot == nullptr) return 0;
  const Timestamp front = slot->oldest.load(std::memory_order_relaxed);
  if (front == kInfinity) return 0;
  // The last cached watermark first: it needs neither the clock nor a
  // refresh check. Refresh only if the oldest item is not yet ready.
  Timestamp watermark = txn_table_.LastMinActiveBeginTs();
  if (front >= watermark) {
    watermark = CachedWatermark(slot->newest);
    if (front >= watermark) return 0;
  }
  uint32_t total = 0;
  while (total < budget) {
    Item batch[kBatch];  // only [0, n) is read: no need to zero it
    uint32_t n = 0;
    {
      SpinLatchGuard guard(slot->latch);
      n = PopReady(*slot, watermark, batch, std::min(budget - total, kBatch));
      if (n == 0) break;
      slot->draining.store(true, std::memory_order_relaxed);
    }
    Reclaim(batch, n);
    slot->draining.store(false, std::memory_order_release);
    total += n;
  }
  return total;
}

uint64_t GarbageCollector::DrainSlot(Slot& slot, Timestamp watermark) {
  uint64_t total = 0;
  for (;;) {
    Item batch[kBatch];
    uint32_t n = 0;
    {
      SpinLatchGuard guard(slot.latch);
      n = PopReady(slot, watermark, batch, kBatch);
    }
    if (n == 0) return total;
    Reclaim(batch, n);
    total += n;
  }
}

uint64_t GarbageCollector::DrainOrphans(Timestamp watermark) {
  // Unordered: visit each item present at the start once, popping the
  // ready ones into the batch and rotating the rest to the back.
  uint64_t total = 0;
  uint64_t unvisited = 0;
  {
    SpinLatchGuard guard(orphans_latch_);
    unvisited = orphans_.size();
  }
  while (unvisited != 0) {
    Item batch[kBatch];
    uint32_t n = 0;
    {
      SpinLatchGuard guard(orphans_latch_);
      for (; unvisited != 0 && n < kBatch; --unvisited) {
        Item item = orphans_.PopFront();
        if (item.retire_after < watermark) {
          batch[n++] = item;
        } else {
          orphans_.PushBack(item);
        }
      }
    }
    Reclaim(batch, n);
    total += n;
  }
  return total;
}

uint64_t GarbageCollector::RunOnce() {
  MutexLock lock(run_once_mutex_);
  const uint64_t t_start = hists_.enabled() ? obs::NowTicks() : 0;
  const Timestamp watermark = Watermark(Now());
  uint64_t total = 0;
  slots_.ForEach([&](Slot& slot) { total += DrainSlot(slot, watermark); });
  total += DrainOrphans(watermark);
  // Our own drains are done; wait out any owner still between its
  // Cooperate pop and the unlink, so our return implies "unlinked". Every
  // slot's latch was taken above, so a pop before it is visible here.
  slots_.ForEach([](const Slot& slot) {
    while (slot.draining.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  if (t_start != 0) hists_.RecordSince(obs::Hist::kGcPass, t_start);
  return total;
}

uint64_t GarbageCollector::PendingCount() const {
  uint64_t total = 0;
  {
    SpinLatchGuard guard(orphans_latch_);
    total = orphans_.size();
  }
  slots_.ForEach([&](const Slot& slot) {
    SpinLatchGuard guard(slot.latch);
    total += slot.queue.size();
  });
  return total;
}

}  // namespace mvstore
