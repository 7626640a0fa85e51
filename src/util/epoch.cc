#include "util/epoch.h"

#include <cassert>

namespace mvstore {

EpochManager::EpochManager()
    : slots_(kMaxThreads, [this](ThreadSlot& slot) { ReleaseSlot(slot); }) {}

EpochManager::~EpochManager() { DrainAll(); }

void EpochManager::ReleaseSlot(ThreadSlot& slot) {
  assert(slot.nesting.load(std::memory_order_relaxed) == 0 &&
         "thread exited inside an EpochGuard");
  // Move leftovers onto the orphan list so the slot starts empty for its
  // next owner; their epochs still gate their reclamation.
  {
    SpinLatchGuard guard(slot.latch);
    const uint64_t moved = slot.retired.size();
    if (moved != 0) {
      SpinLatchGuard orphans_guard(orphans_latch_);
      while (slot.retired.size() != 0) {
        orphans_.PushBack(slot.retired.PopFront());
      }
      orphan_pending_.fetch_add(moved, std::memory_order_relaxed);
      slot.pending.fetch_sub(moved, std::memory_order_relaxed);
    }
  }
  slot.retire_ticker = 0;
  slot.nesting.store(0, std::memory_order_relaxed);
  slot.epoch.store(kIdle, std::memory_order_seq_cst);
}

void EpochManager::Enter() {
  ThreadSlot* slot = slots_.Mine();
  if (slot == nullptr) {
    // Slotless guard (thread teardown or slot exhaustion): a shared count
    // plus a conservative epoch floor. The floor only ever moves down while
    // in use -- too conservative is safe, too fresh is not.
    slotless_guards_.fetch_add(1, std::memory_order_seq_cst);
    uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    uint64_t floor = slotless_floor_.load(std::memory_order_seq_cst);
    while ((floor == kIdle || epoch < floor) &&
           !slotless_floor_.compare_exchange_weak(floor, epoch,
                                                  std::memory_order_seq_cst)) {
    }
    return;
  }
  uint32_t nesting = slot->nesting.load(std::memory_order_relaxed);
  if (nesting == 0) {
    // seq_cst so the epoch publication is ordered before subsequent loads of
    // shared pointers; pairs with the fence in MinActiveEpoch readers.
    slot->epoch.store(global_epoch_.load(std::memory_order_acquire),
                      std::memory_order_seq_cst);
  }
  slot->nesting.store(nesting + 1, std::memory_order_relaxed);
}

void EpochManager::Exit() {
  // Peek, not Mine: a guard that entered slotless must leave slotless even
  // if a slot has freed up meanwhile.
  ThreadSlot* slot = slots_.Peek();
  if (slot == nullptr) {
    slotless_guards_.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  uint32_t nesting = slot->nesting.load(std::memory_order_relaxed);
  assert(nesting > 0);
  slot->nesting.store(nesting - 1, std::memory_order_relaxed);
  if (nesting == 1) {
    slot->epoch.store(kIdle, std::memory_order_release);
  }
}

uint64_t EpochManager::MinActiveEpoch(uint64_t global) const {
  uint64_t min_epoch = global;
  if (slotless_guards_.load(std::memory_order_seq_cst) > 0) {
    uint64_t floor = slotless_floor_.load(std::memory_order_seq_cst);
    if (floor != kIdle && floor < min_epoch) min_epoch = floor;
  }
  slots_.ForEach([&](const ThreadSlot& slot) {
    uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    if (e != kIdle && e < min_epoch) min_epoch = e;
  });
  return min_epoch;
}

void EpochManager::Retire(void* object, Deleter deleter, void* arg) {
  uint64_t tag = global_epoch_.load(std::memory_order_acquire);
  ThreadSlot* slot = slots_.Mine();
  if (slot != nullptr) {
    {
      SpinLatchGuard guard(slot->latch);
      slot->retired.PushBack(Retired{object, deleter, arg, tag});
    }
    slot->pending.fetch_add(1, std::memory_order_release);
    if (++slot->retire_ticker % kAdvanceInterval == 0) {
      TryAdvanceAndReclaim();
    }
    return;
  }
  {
    SpinLatchGuard guard(orphans_latch_);
    orphans_.PushBack(Retired{object, deleter, arg, tag});
  }
  orphan_pending_.fetch_add(1, std::memory_order_release);
  TryAdvanceAndReclaim();
}

void EpochManager::TryAdvanceAndReclaim() {
  uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  uint64_t min_active = MinActiveEpoch(epoch);
  // Advance only when every active reader has caught up to the current
  // epoch: the shared line is written once per epoch, not once per attempt,
  // and a straggling reader simply leaves the epoch in place.
  if (min_active >= epoch &&
      global_epoch_.compare_exchange_strong(epoch, epoch + 1,
                                            std::memory_order_seq_cst)) {
    min_active = MinActiveEpoch(epoch + 1);
  }
  // One reclaimer at a time; others piggyback on its work and return.
  if (!reclaim_gate_.TryLock()) return;
  ReclaimUpTo(min_active);
  reclaim_gate_.Unlock();
}

void EpochManager::DrainAll() {
  reclaim_gate_.Lock();
  ReclaimUpTo(kIdle);  // every epoch tag is below kIdle
  reclaim_gate_.Unlock();
}

void EpochManager::ReclaimUpTo(uint64_t min_active) {
  // Deleters run outside the queue latches: they may re-enter Retire (slab
  // recycling bumps stats, pools retire containers), whose reclamation
  // attempt then finds reclaim_gate_ taken and returns.
  auto free_batch = [](const Retired* batch, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      batch[i].deleter(batch[i].object, batch[i].arg);
    }
  };
  Retired batch[kBatch];  // only [0, n) is read: no need to zero it
  slots_.ForEach([&](ThreadSlot& slot) {
    if (slot.pending.load(std::memory_order_acquire) == 0) return;
    for (;;) {
      uint32_t n = 0;
      {
        SpinLatchGuard guard(slot.latch);
        // Epoch tags are nondecreasing per queue: pop eligible entries off
        // the front, O(freed), and never touch the backlog.
        while (n < kBatch && slot.retired.size() != 0 &&
               slot.retired.front().epoch < min_active) {
          batch[n++] = slot.retired.PopFront();
        }
      }
      if (n == 0) break;
      slot.pending.fetch_sub(n, std::memory_order_relaxed);
      free_batch(batch, n);
    }
  });
  if (orphan_pending_.load(std::memory_order_acquire) == 0) return;
  // Orphan entries interleave from many dead threads, so tags are not
  // ordered: visit each entry present now once, rotating the ones still
  // protected to the back. Only gate holders pop, so the queue cannot
  // shrink under the count.
  uint64_t unvisited = 0;
  {
    SpinLatchGuard guard(orphans_latch_);
    unvisited = orphans_.size();
  }
  while (unvisited != 0) {
    uint32_t n = 0;
    {
      SpinLatchGuard guard(orphans_latch_);
      for (; unvisited != 0 && n < kBatch; --unvisited) {
        const Retired r = orphans_.PopFront();
        if (r.epoch < min_active) {
          batch[n++] = r;
        } else {
          orphans_.PushBack(r);
        }
      }
    }
    if (n != 0) orphan_pending_.fetch_sub(n, std::memory_order_relaxed);
    free_batch(batch, n);
  }
}

uint64_t EpochManager::PendingCount() const {
  uint64_t total = orphan_pending_.load(std::memory_order_relaxed);
  slots_.ForEach([&](const ThreadSlot& slot) {
    total += slot.pending.load(std::memory_order_relaxed);
  });
  return total;
}

}  // namespace mvstore
