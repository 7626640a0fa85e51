// Per-thread slots: the one place a thread gets private state from a shared
// owner. Stat cells, histogram cells, epoch slots, slab magazines, pool
// caches and version-GC queues all come from here.
//
// An owner holds a TlsSlots<Slot>: a fixed-capacity table of slots, each
// allocated on first claim and kept until the table dies, plus a freelist
// and a high-water mark. Mine() returns the calling thread's slot, claiming
// one on first use. The lookup is a single thread_local dense array indexed
// by the table's process-unique owner id -- a bounds check and a load, no
// hashing -- so a thread that alternates between owners (the four TATP
// tables' slabs) never misses.
//
// The hard part is the release side. A slot must come back when its thread
// exits: otherwise short-lived threads (tests, session churn) grow the table
// without bound and strand whatever the slot caches. But a thread-local
// destructor must never call into an owner that has already been destroyed.
// The registry brokers that handshake:
//
//   * Each table registers at construction and unregisters first thing in
//     its destructor. Owner ids are never reused, so a table allocated where
//     a dead one lived does not inherit its threads' entries.
//   * A thread's exit walks its array and, under the registry mutex, runs
//     the release hook of every table still registered. Unregistering takes
//     the same mutex, so no hook runs once a table's destructor has begun.
//
// Declare the TlsSlots as the owner's last member: it is then destroyed
// first, so a hook never meets a destroyed member. A hook can still run
// while the owner's destructor body runs; hooks therefore touch only the
// slot and the owner's members, never memory the body frees.
//
// The registry object is leaked on purpose so it outlives thread-local
// destructors that run at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/port.h"
#include "common/spin_latch.h"

namespace mvstore {
namespace tls_slots {

/// Runs when a thread holding slot `index` of `owner` exits, under the
/// registry mutex: keep it short and never re-enter the registry.
using ReleaseFn = void (*)(void* owner, uint32_t index);

/// Returns a process-unique, never-recycled owner id.
uint64_t RegisterOwner(void* owner, ReleaseFn release);

/// After this returns, `release` is never called for `id` again.
void UnregisterOwner(uint64_t id);

/// One owner's entry in a thread's array.
struct Entry {
  void* slot;
  uint32_t index;
};

/// The calling thread's array, indexed by owner id. Plain values, so they
/// stay readable through thread teardown: the exit release empties them
/// before it runs any hook.
inline thread_local Entry* tl_entries = nullptr;
inline thread_local uint64_t tl_size = 0;

/// The calling thread's slot for owner `id`, or nullptr.
inline void* Lookup(uint64_t id) {
  return id < tl_size ? tl_entries[id].slot : nullptr;
}

/// Records `slot` as the calling thread's for owner `id`. Returns false once
/// the thread has started to exit: nothing would release the slot.
bool Store(uint64_t id, void* slot, uint32_t index);

}  // namespace tls_slots

/// A fixed-capacity table of per-thread slots. `Slot` must be default-
/// constructible; a claimed slot is the calling thread's alone until the
/// thread exits, when the release hook hands it back.
template <typename Slot>
class TlsSlots {
 public:
  /// `release` runs on the exiting thread with the slot it held, under the
  /// registry mutex. It must leave the slot ready for its next thread and
  /// must not call into another TlsSlots.
  TlsSlots(uint32_t capacity, std::function<void(Slot&)> release)
      : release_(std::move(release)),
        slots_(capacity),
        id_(tls_slots::RegisterOwner(this, &ReleaseThunk)) {}

  ~TlsSlots() {
    tls_slots::UnregisterOwner(id_);
    for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
  }

  TlsSlots(const TlsSlots&) = delete;
  TlsSlots& operator=(const TlsSlots&) = delete;

  /// The calling thread's slot, claimed on first use. nullptr when every
  /// slot is taken or the thread is exiting: callers take a shared fallback.
  Slot* Mine() {
    void* slot = tls_slots::Lookup(id_);
    if (MVSTORE_LIKELY(slot != nullptr)) return static_cast<Slot*>(slot);
    return Claim();
  }

  /// The calling thread's slot if it already holds one; never claims.
  Slot* Peek() const { return static_cast<Slot*>(tls_slots::Lookup(id_)); }

  /// Calls `fn(slot)` for every slot ever claimed, held or free (a free slot
  /// is in its released state). Other threads may be writing their slots.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    uint32_t used = Used();
    for (uint32_t i = 0; i < used; ++i) {
      Slot* slot = slots_[i].load(std::memory_order_acquire);
      if (slot != nullptr) fn(*slot);
    }
  }

  /// High-water mark of slots ever claimed: bounded by the peak number of
  /// concurrent threads, not the total.
  uint32_t Used() const { return used_.load(std::memory_order_acquire); }

 private:
  Slot* Claim() {
    uint32_t index;
    {
      SpinLatchGuard guard(latch_);
      if (!free_.empty()) {
        index = free_.back();
        free_.pop_back();
      } else {
        index = used_.load(std::memory_order_relaxed);
        if (index == slots_.size()) return nullptr;
        used_.store(index + 1, std::memory_order_release);
      }
    }
    // This thread owns `index` until it exits, so allocating outside the
    // latch cannot race.
    Slot* slot = slots_[index].load(std::memory_order_acquire);
    if (slot == nullptr) {
      slot = new Slot();
      slots_[index].store(slot, std::memory_order_release);
    }
    if (!tls_slots::Store(id_, slot, index)) {
      PushFree(index);
      return nullptr;
    }
    return slot;
  }

  static void ReleaseThunk(void* owner, uint32_t index) {
    auto* self = static_cast<TlsSlots*>(owner);
    self->release_(*self->slots_[index].load(std::memory_order_acquire));
    self->PushFree(index);
  }

  void PushFree(uint32_t index) {
    SpinLatchGuard guard(latch_);
    free_.push_back(index);
  }

  const std::function<void(Slot&)> release_;
  std::vector<std::atomic<Slot*>> slots_;
  std::atomic<uint32_t> used_{0};
  SpinLatch latch_;
  std::vector<uint32_t> free_ GUARDED_BY(latch_);
  /// Last: the table registers only once everything above exists.
  const uint64_t id_;
};

}  // namespace mvstore
