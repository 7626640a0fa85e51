// Thread-slot registry: the shared machinery behind every per-thread-sharded
// structure in the engine (epoch slots, stat cells, histogram cells).
//
// Each sharded structure ("owner") hands out per-thread slots from its own
// freelist. The hard part is the *release* side: a slot must return to the
// owner's freelist when the thread exits -- otherwise short-lived threads
// (tests, session churn) grow the slot array without bound -- but a C++
// thread-local destructor must never call into an owner that has already
// been destroyed. This registry brokers that handshake:
//
//   * Owners register a release callback at construction and unregister at
//     the *top* of their destructor, before any member is torn down.
//   * Each owner class instantiates TlsSlotCache<Tag>, a per-thread map from
//     owner id to slot index. Its destructor releases every cached slot
//     through the registry, which invokes the callback only for owners that
//     are still alive (under the registry mutex, so an owner can never be
//     mid-destruction during a callback).
//
// The registry is touched only on thread exit and owner construction or
// destruction; slot *acquisition* and all hot-path work stay entirely inside
// the owner. The registry object itself is intentionally leaked so it
// outlives thread-local destructors that run at process exit.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace mvstore {
namespace tls_slots {

/// Called when a thread that cached `slot` for this owner exits. Runs under
/// the registry mutex: keep it tiny and never re-enter the registry.
using ReleaseFn = void (*)(void* owner, uint32_t slot);

/// Returns a process-unique, never-recycled id for this owner. Ids key the
/// per-thread caches (not the owner's address: a new owner can be allocated
/// where a destroyed one lived, and must not inherit its cached slots).
uint64_t RegisterOwner(void* owner, ReleaseFn release);

/// Owners call this first thing in their destructor.
void UnregisterOwner(uint64_t id);

/// Invoked by thread-exit cleanup. A no-op for ids whose owner is gone.
void ReleaseSlot(uint64_t id, uint32_t slot);

}  // namespace tls_slots

/// Per-thread slot cache for one owner class. `Tag` is any unique type; each
/// instantiation gets independent thread-local storage. Lookups go through a
/// one-entry fast cache (the common case: a thread talks to one Database).
///
/// After this thread's cache has been destroyed (thread teardown), Store()
/// returns false and Lookup() returns kNone: callers must fall back to a
/// slot-free path rather than resurrect the cache, because a re-acquired
/// slot would have no destructor left to release it.
template <typename Tag>
class TlsSlotCache {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  static uint32_t Lookup(uint64_t id) {
    if (last_id_ == id) return last_slot_;
    State* s = state_;
    if (s == nullptr) return kNone;
    auto it = s->slots.find(id);
    if (it == s->slots.end()) return kNone;
    last_id_ = id;
    last_slot_ = it->second;
    return it->second;
  }

  static bool Store(uint64_t id, uint32_t slot) {
    State* s = Ensure();
    if (s == nullptr) return false;
    s->slots[id] = slot;
    last_id_ = id;
    last_slot_ = slot;
    return true;
  }

 private:
  struct State {
    std::unordered_map<uint64_t, uint32_t> slots;
  };
  struct Holder {
    Holder() { state_ = &state; }
    ~Holder() {
      for (const auto& [id, slot] : state.slots) {
        tls_slots::ReleaseSlot(id, slot);
      }
      state_ = nullptr;
      dead_ = true;
      last_id_ = 0;
      last_slot_ = kNone;
    }
    State state;
  };

  static State* Ensure() {
    if (state_ != nullptr) return state_;
    if (dead_) return nullptr;
    thread_local Holder holder;
    return state_;
  }

  // POD thread-locals survive TLS destructor ordering; `dead_` is what keeps
  // a post-teardown call (e.g. a stat bump from another TLS destructor) from
  // rebuilding the cache.
  static inline thread_local State* state_ = nullptr;
  static inline thread_local bool dead_ = false;
  static inline thread_local uint64_t last_id_ = 0;  // owner ids start at 1
  static inline thread_local uint32_t last_slot_ = kNone;
};

}  // namespace mvstore
