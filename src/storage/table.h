// Table: schema + version allocation + the set of indexes.
//
// The engine is schema-light by design: a row is a fixed-size payload (the
// benchmarks and examples define POD row structs), and each index supplies a
// capture-free extractor mapping payload -> 64-bit key. Records are only
// reachable through indexes (Section 2.1); index 0 is the primary (unique)
// hash index. Secondary indexes are either hash (equality probes, the
// paper's only access path) or ordered (skip list, range scans —
// storage/ordered_index.h); both chain versions through the version's
// per-index next pointers, so a version's allocation size depends only on
// the index count.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/types.h"
#include "mem/slab_allocator.h"
#include "storage/hash_index.h"
#include "storage/ordered_index.h"
#include "storage/version.h"

namespace mvstore {

/// Definition of one index on a table.
struct IndexDef {
  HashIndex::KeyExtractor extractor = nullptr;
  /// Buckets to allocate. The paper sizes tables "appropriately so there are
  /// no collisions"; pass ~row count. (Also sizes the 1V engine's per-index
  /// key-lock table; ordered indexes use it for that purpose only.)
  uint64_t bucket_count = 1024;
  /// Unique indexes reject inserts whose key is already visible.
  bool unique = false;
  /// Ordered (skip-list) index supporting range scans. Secondary only: the
  /// primary index (position 0) must be a hash index.
  bool ordered = false;
};

/// Definition of a table.
struct TableDef {
  std::string name;
  uint32_t payload_size = 0;
  std::vector<IndexDef> indexes;
};

/// How a table's versions are allocated. With `use_slab` a per-table
/// SlabAllocator recycles fixed-size version slots (every version of a
/// table has the same size: header + chain pointers + payload); otherwise
/// each version is a global-heap allocation (the debug-friendly fallback:
/// ASan sees every version's lifetime).
struct TableMemoryOptions {
  bool use_slab = false;
  StatsCollector* stats = nullptr;
  /// Ordered indexes retire drained skip-list nodes through this manager;
  /// null restricts node retirement to single-threaded use (unit tests).
  EpochManager* epoch = nullptr;
};

class Table {
 public:
  using MemoryOptions = TableMemoryOptions;

  Table(TableId id, TableDef def, MemoryOptions mem = {})
      : id_(id), def_(std::move(def)) {
    indexes_.reserve(def_.indexes.size());
    for (uint32_t i = 0; i < def_.indexes.size(); ++i) {
      IndexSlot slot;
      if (def_.indexes[i].ordered) {
        if (i == 0) {
          // Not assert-only: in a Release build a null primary hash slot
          // would surface as a crash on the first table scan or teardown,
          // far from the misdeclared TableDef.
          std::fprintf(stderr,
                       "mvstore: table '%s': the primary index (position 0) "
                       "must be a hash index, not ordered\n",
                       def_.name.c_str());
          std::abort();
        }
        slot.ordered = std::make_unique<OrderedIndex>(
            i, def_.indexes[i].extractor, mem.use_slab, mem.stats, mem.epoch);
      } else {
        slot.hash = std::make_unique<HashIndex>(
            i, def_.indexes[i].bucket_count, def_.indexes[i].extractor);
      }
      indexes_.push_back(std::move(slot));
    }
    static_assert(alignof(Version) <= SlabAllocator::kSlotAlign);
    if (mem.use_slab) {
      slab_ = std::make_unique<SlabAllocator>(
          Version::AllocSize(num_indexes(), payload_size()), mem.stats);
    }
  }

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  ~Table() = default;

  TableId id() const { return id_; }
  const std::string& name() const { return def_.name; }
  uint32_t payload_size() const { return def_.payload_size; }
  uint32_t num_indexes() const { return static_cast<uint32_t>(indexes_.size()); }
  /// The hash index at position `i`; only valid for hash slots (check
  /// ordered_index(i) == nullptr first when `i` may be ordered).
  HashIndex& index(IndexId i) { return *indexes_[i].hash; }
  /// The ordered index at position `i`, or nullptr if `i` is a hash index.
  OrderedIndex* ordered_index(IndexId i) { return indexes_[i].ordered.get(); }
  const IndexDef& index_def(IndexId i) const { return def_.indexes[i]; }

  /// Index key of `v` under index `i`, regardless of index kind.
  uint64_t IndexKeyOf(IndexId i, const Version* v) const {
    return def_.indexes[i].extractor(v->Payload());
  }
  uint64_t IndexKeyOfPayload(IndexId i, const void* payload) const {
    return def_.indexes[i].extractor(payload);
  }

  /// Probe index `i` for `key`, invoking `fn(Version*)` on every version
  /// chained under it (hash: the key's bucket, which may include
  /// colliding keys; ordered: the key's node). `fn` returns true to
  /// continue. Caller must hold an EpochGuard.
  template <typename Fn>
  void ScanIndexKey(IndexId i, uint64_t key, Fn&& fn) {
    if (OrderedIndex* ordered = ordered_index(i)) {
      ordered->ScanKey(key, static_cast<Fn&&>(fn));
    } else {
      index(i).ScanBucket(key, static_cast<Fn&&>(fn));
    }
  }

  /// Allocate a fresh, not-yet-visible version holding a copy of `payload`
  /// (may be nullptr to leave the payload uninitialized). Slot memory may be
  /// recycled; Version::Create placement-initializes every header field.
  Version* AllocateVersion(const void* payload) {
    void* storage =
        slab_ != nullptr
            ? slab_->Allocate()
            : ::operator new(Version::AllocSize(num_indexes(), payload_size()));
    return Version::Create(storage, num_indexes(), payload_size(), payload);
  }

  /// Immediately free a version that was never published to any index.
  /// Published versions must instead be unlinked and epoch-retired.
  void FreeUnpublishedVersion(Version* v) {
    if (slab_ != nullptr) {
      slab_->Free(v);
    } else {
      ::operator delete(v);
    }
  }

  /// Deleter for EpochManager::Retire; `table_arg` is the owning Table*, so
  /// the slot returns to that table's slab (or the heap in fallback mode).
  static void VersionDeleter(void* v, void* table_arg) {
    static_cast<Table*>(table_arg)->FreeUnpublishedVersion(
        static_cast<Version*>(v));
  }

  /// The table's slab, or nullptr in heap mode (tests/benchmarks).
  SlabAllocator* slab() { return slab_.get(); }

  /// Insert `v` into every index of the table.
  void InsertIntoAllIndexes(Version* v) {
    for (auto& slot : indexes_) {
      if (slot.hash != nullptr) {
        slot.hash->Insert(v);
      } else {
        slot.ordered->Insert(v);
      }
    }
  }

  /// Unlink `v` from every index (garbage collection).
  void UnlinkFromAllIndexes(Version* v) {
    for (auto& slot : indexes_) {
      if (slot.hash != nullptr) {
        slot.hash->Unlink(v);
      } else {
        slot.ordered->Unlink(v);
      }
    }
  }

 private:
  /// Exactly one of the two pointers is set per position.
  struct IndexSlot {
    std::unique_ptr<HashIndex> hash;
    std::unique_ptr<OrderedIndex> ordered;
  };

  const TableId id_;
  const TableDef def_;
  std::vector<IndexSlot> indexes_;
  std::unique_ptr<SlabAllocator> slab_;
};

/// Catalog: id -> table. Tables are created before workers start and live
/// for the database lifetime, so lookups are unsynchronized.
class Catalog {
 public:
  /// `mem`: the version-allocation policy of every table.
  explicit Catalog(Table::MemoryOptions mem = {}) : mem_(mem) {}

  TableId CreateTable(TableDef def) {
    TableId id = static_cast<TableId>(tables_.size());
    tables_.push_back(std::make_unique<Table>(id, std::move(def), mem_));
    return id;
  }

  Table& table(TableId id) { return *tables_[id]; }
  const Table& table(TableId id) const { return *tables_[id]; }
  uint32_t num_tables() const { return static_cast<uint32_t>(tables_.size()); }

  Table* FindByName(const std::string& name) {
    for (auto& t : tables_) {
      if (t->name() == name) return t.get();
    }
    return nullptr;
  }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  const Table::MemoryOptions mem_;
};

}  // namespace mvstore
