// Object pool for transaction objects. It recycles *constructed* objects:
// a released transaction keeps its vectors' capacity, so a recycled Begin
// is a handful of stores instead of a heap round trip plus fresh sets.
//
// Requirements on T: `T(Args...)` constructs a fresh object and
// `void Reset(Args...)` restores every field of a recycled one to its
// just-constructed state -- the pool hands out recycled objects with no
// other cleanup.
//
// Recycled objects circulate like slab slots (mem/slab_allocator.h): a
// latch-free per-thread cache (a util/tls_slots.h slot) over a spin-latched
// global freelist. A thread's cache goes back to the freelist when the
// thread exits; a thread with no cache (all taken, or the thread is exiting)
// uses the freelist directly. With `enabled = false` the pool degrades to
// plain new/delete, the heap-debug configuration (ASan sees every
// transaction boundary again); MVEngine always enables its pool, because
// its transaction table needs every object to live as long as the pool.
//
// Safety: Release() makes the object immediately reusable by any thread.
// For epoch-protected objects (MV transactions are dereferenced by
// concurrent visibility checks), route Release through
// EpochManager::Retire so no reader can still hold the pointer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/port.h"
#include "common/spin_latch.h"
#include "util/tls_slots.h"

namespace mvstore {

template <typename T>
class ObjectPool {
 public:
  static constexpr uint32_t kCacheCapacity = 16;
  static constexpr uint32_t kTransferBatch = kCacheCapacity / 2;
  /// Upper bound on concurrent threads with a cache.
  static constexpr uint32_t kMaxCaches = 128;

  explicit ObjectPool(bool enabled, StatsCollector* stats = nullptr)
      : enabled_(enabled),
        stats_(stats),
        caches_(kMaxCaches, [this](Cache& c) { ReturnCache(c); }) {}

  /// Destroys every object the pool ever created, including ones still
  /// acquired -- callers must have quiesced.
  ~ObjectPool() {
    for (T* obj : all_) delete obj;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Hand out an object: recycled (Reset with `args`) when available,
  /// freshly constructed otherwise.
  template <typename... Args>
  T* Acquire(Args&&... args) {
    if (!enabled_) return new T(std::forward<Args>(args)...);
    Cache* c = caches_.Mine();
    if (c != nullptr && c->count > 0) {
      Count(Stat::kTxnPoolHits);
      T* obj = c->items[--c->count];
      obj->Reset(std::forward<Args>(args)...);
      return obj;
    }
    return AcquireSlow(c, std::forward<Args>(args)...);
  }

  /// Return an object for reuse. The object stays constructed (vector
  /// capacities survive); the next Acquire re-arms it via Reset.
  void Release(T* obj) {
    if (!enabled_) {
      delete obj;
      return;
    }
    Cache* c = caches_.Mine();
    if (c == nullptr) {
      SpinLatchGuard guard(latch_);
      free_.push_back(obj);
      return;
    }
    if (c->count == kCacheCapacity) {
      SpinLatchGuard guard(latch_);
      free_.insert(free_.end(), c->items, c->items + kTransferBatch);
      std::copy(c->items + kTransferBatch, c->items + c->count, c->items);
      c->count -= kTransferBatch;
    }
    c->items[c->count++] = obj;
  }

  bool enabled() const { return enabled_; }

  /// High-water mark of caches ever in use (tests).
  uint32_t UsedCaches() const { return caches_.Used(); }

 private:
  struct alignas(kCacheLineSize) Cache {
    uint32_t count = 0;
    T* items[kCacheCapacity];
  };

  void Count(Stat stat) {
    if (stats_ != nullptr) stats_->Add(stat);
  }

  /// `c` is nullptr for a thread without a cache.
  template <typename... Args>
  T* AcquireSlow(Cache* c, Args&&... args) {
    T* recycled = nullptr;
    {
      SpinLatchGuard guard(latch_);
      if (!free_.empty()) {
        recycled = free_.back();
        free_.pop_back();
        uint32_t take = c != nullptr ? kTransferBatch - 1 : 0;
        while (take > 0 && !free_.empty()) {
          c->items[c->count++] = free_.back();
          free_.pop_back();
          --take;
        }
      }
    }
    if (recycled != nullptr) {
      Count(Stat::kTxnPoolHits);
      recycled->Reset(std::forward<Args>(args)...);
      return recycled;
    }
    Count(Stat::kTxnPoolMisses);
    T* obj = new T(std::forward<Args>(args)...);
    {
      SpinLatchGuard guard(latch_);
      all_.push_back(obj);
    }
    return obj;
  }

  /// Release hook: an exiting thread's cached objects go back to free_.
  void ReturnCache(Cache& c) {
    SpinLatchGuard guard(latch_);
    free_.insert(free_.end(), c.items, c.items + c.count);
    c.count = 0;
  }

  const bool enabled_;
  StatsCollector* const stats_;

  SpinLatch latch_;
  std::vector<T*> free_ GUARDED_BY(latch_);
  /// Latched for writes; the destructor's unlatched sweep is a quiesced-
  /// caller contract (ctors/dtors are exempt from the analysis anyway).
  std::vector<T*> all_ GUARDED_BY(latch_);

  TlsSlots<Cache> caches_;  // last: see util/tls_slots.h
};

}  // namespace mvstore
