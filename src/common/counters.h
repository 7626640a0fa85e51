// Engine-wide statistics counters.
//
// Hot paths bump counters on every commit, abort, version install and slab
// operation, so the cells they write must be core-private: each thread owns
// a cacheline-aligned cell (a util/tls_slots.h slot, handed back on thread
// exit) and bumps it with a plain load+store — no RMW, no sharing.
// Aggregation walks the cells at CounterSnapshot()/Get() time.
//
// A thread without a cell (all taken, or bumps from thread-local destructors
// that run after its slots were released) falls back to a shared overflow
// cell with fetch_add; cells released on thread exit fold their tallies
// into a retired cell so history survives recycling.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/port.h"
#include "util/tls_slots.h"

namespace mvstore {

/// Which event a counter tracks. Keep in sync with StatNames().
enum class Stat : uint32_t {
  kTxnCommitted = 0,
  kTxnAborted,
  kAbortWriteConflict,
  kAbortValidation,
  kAbortPhantom,
  kAbortCascading,
  kAbortDeadlock,
  kAbortLockFailed,
  kCommitDepsTaken,
  kCommitDepWaits,
  kSpeculativeReads,
  kSpeculativeIgnores,
  kWaitForDepsTaken,
  kPrecommitWaits,
  kRcPreparingWaits,
  kVersionsCreated,
  kVersionsCollected,
  kDeadlocksDetected,
  kLockWaits,
  kSlabChunksAllocated,
  kSlabMagazineHits,
  kSlabMagazineMisses,
  kSlabSlotsRecycled,
  kTxnPoolHits,
  kTxnPoolMisses,
  kLogSegmentsRotated,
  kLogSegmentsDeleted,
  kLogWriteErrors,
  kLogGroupCommits,
  kLogGroupSizeSum,
  kCheckpointsTaken,
  kRecoveryTornTails,
  kRecoveryTornBytesDropped,
  kRecoveryRecordsReplayed,
  kRecoveryRecordsSkipped,
  kRecoveryIdempotentApplies,
  kReadOnlyTransitions,
  kWritesRefusedReadOnly,
  kSlowTxnLogged,
  kSlowTxnSuppressed,
  kNumStats,
};

inline const char* StatName(Stat stat) {
  static const char* kNames[] = {
      "txn_committed",      "txn_aborted",        "abort_write_conflict",
      "abort_validation",   "abort_phantom",      "abort_cascading",
      "abort_deadlock",     "abort_lock_failed",  "commit_deps_taken",
      "commit_dep_waits",   "speculative_reads",  "speculative_ignores",
      "waitfor_deps_taken", "precommit_waits",    "rc_preparing_waits",
      "versions_created",   "versions_collected", "deadlocks_detected",
      "lock_waits",
      "slab_chunks_allocated", "slab_magazine_hits", "slab_magazine_misses",
      "slab_slots_recycled", "txn_pool_hits",     "txn_pool_misses",
      "log_segments_rotated", "log_segments_deleted", "log_write_errors",
      "log_group_commits",  "log_group_size_sum",
      "checkpoints_taken",  "recovery_torn_tails",
      "recovery_torn_bytes_dropped", "recovery_records_replayed",
      "recovery_records_skipped", "recovery_idempotent_applies",
      "read_only_transitions", "writes_refused_read_only",
      "slow_txn_logged",    "slow_txn_suppressed",
  };
  return kNames[static_cast<uint32_t>(stat)];
}

/// Per-thread-cell counter set. Add() is a single-writer relaxed load+store
/// on the calling thread's own cacheline; Get() aggregates on demand.
class StatsCollector {
 public:
  /// Upper bound on concurrently registered threads; cells are recycled on
  /// thread exit, overflow shares the fetch_add cell.
  static constexpr uint32_t kMaxCells = 128;

  StatsCollector() : cells_(kMaxCells, [this](Cell& cell) { Retire(cell); }) {}

  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  void Add(Stat stat, uint64_t delta = 1) {
    Cell* cell = cells_.Mine();
    uint32_t i = static_cast<uint32_t>(stat);
    if (cell != nullptr) {
      // Single writer: the cell belongs to this thread until thread exit.
      cell->values[i].store(
          cell->values[i].load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
      return;
    }
    overflow_.values[i].fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Get(Stat stat) const {
    uint32_t i = static_cast<uint32_t>(stat);
    uint64_t total =
        retired_.values[i].load(std::memory_order_relaxed) +
        overflow_.values[i].load(std::memory_order_relaxed);
    cells_.ForEach([&](const Cell& cell) {
      total += cell.values[i].load(std::memory_order_relaxed);
    });
    return total;
  }

  void Reset() {
    cells_.ForEach([](Cell& cell) { Zero(cell); });
    Zero(retired_);
    Zero(overflow_);
  }

  /// Multi-line human-readable dump of all non-zero counters.
  std::string ToString() const {
    std::string out;
    for (uint32_t i = 0; i < static_cast<uint32_t>(Stat::kNumStats); ++i) {
      uint64_t v = Get(static_cast<Stat>(i));
      if (v == 0) continue;
      out += StatName(static_cast<Stat>(i));
      out += "=";
      out += std::to_string(v);
      out += "\n";
    }
    return out;
  }

  /// High-water mark of cell indexes ever used (tests).
  uint32_t UsedCells() const { return cells_.Used(); }

 private:
  struct alignas(kCacheLineSize) Cell {
    std::array<std::atomic<uint64_t>, static_cast<uint32_t>(Stat::kNumStats)>
        values{};
  };

  static void Zero(Cell& cell) {
    for (auto& value : cell.values) value.store(0, std::memory_order_relaxed);
  }

  /// Release hook: fold an exiting thread's tallies into the retired cell
  /// and zero the cell for its next thread.
  void Retire(Cell& cell) {
    for (uint32_t i = 0; i < cell.values.size(); ++i) {
      uint64_t v = cell.values[i].load(std::memory_order_relaxed);
      if (v != 0) {
        retired_.values[i].fetch_add(v, std::memory_order_relaxed);
        cell.values[i].store(0, std::memory_order_relaxed);
      }
    }
  }

  Cell retired_{};
  Cell overflow_{};
  TlsSlots<Cell> cells_;  // last: see util/tls_slots.h
};

}  // namespace mvstore
