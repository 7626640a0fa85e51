#include "util/tls_slots.h"

#include <algorithm>
#include <unordered_map>

#include "common/mutex.h"

namespace mvstore {
namespace tls_slots {
namespace {

struct Owner {
  void* owner;
  ReleaseFn release;
};

struct Registry {
  Mutex mu;
  std::unordered_map<uint64_t, Owner> owners GUARDED_BY(mu);
  uint64_t next_id GUARDED_BY(mu) = 0;
};

Registry& GetRegistry() {
  // Leaked on purpose: thread-local destructors at process exit must still
  // find a live registry.
  static Registry* registry = new Registry();
  return *registry;
}

/// Set when the thread's table is destroyed; Store refuses from then on.
thread_local bool tl_exited = false;

/// Owns the storage behind tl_entries; its destructor is the thread-exit
/// release.
struct ThreadTable {
  std::vector<Entry> entries;

  ~ThreadTable() {
    // Empty the lookup before any hook runs: a hook, or a later thread-local
    // destructor, that reaches Mine() finds no slot and takes its owner's
    // fallback path instead of a slot being released.
    tl_entries = nullptr;
    tl_size = 0;
    tl_exited = true;
    Registry& r = GetRegistry();
    // Hooks run under the mutex: UnregisterOwner (first line of every
    // table's destructor) cannot complete while a release is in flight.
    MutexLock lock(r.mu);
    for (uint64_t id = 0; id < entries.size(); ++id) {
      if (entries[id].slot == nullptr) continue;
      auto it = r.owners.find(id);
      if (it == r.owners.end()) continue;  // owner already destroyed
      it->second.release(it->second.owner, entries[id].index);
    }
  }
};

}  // namespace

uint64_t RegisterOwner(void* owner, ReleaseFn release) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  uint64_t id = r.next_id++;
  r.owners.emplace(id, Owner{owner, release});
  return id;
}

void UnregisterOwner(uint64_t id) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.owners.erase(id);
}

bool Store(uint64_t id, void* slot, uint32_t index) {
  if (tl_exited) return false;
  thread_local ThreadTable table;
  if (id >= table.entries.size()) {
    table.entries.resize(std::max<uint64_t>(id + 1, 2 * table.entries.size()),
                         Entry{nullptr, 0});
    tl_entries = table.entries.data();
    tl_size = table.entries.size();
  }
  table.entries[id] = Entry{slot, index};
  return true;
}

}  // namespace tls_slots
}  // namespace mvstore
