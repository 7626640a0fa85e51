// Cooperative garbage collection of obsolete versions (paper Section 2.3).
//
// A version can be discarded once it is visible to no transaction:
//  * versions created by aborted transactions (Begin = infinity) -- garbage
//    immediately;
//  * old versions superseded by a committed update/delete at end timestamp E
//    -- garbage once every live transaction's begin timestamp exceeds E
//    (the watermark; every read time is >= the reader's begin timestamp).
//
// Reclamation = unlink from every index, then epoch-retire the memory (a
// concurrent scan may still hold the pointer).
//
// "Collection is handled cooperatively by all threads" without becoming a
// critical section: every thread queues the versions its own transactions
// made obsolete on its own slot (util/tls_slots.h). A thread terminates its
// transactions in commit order, so a slot's queue is sorted by end
// timestamp and a drain pops ready items off the front and stops at the
// first one that is not ready. At each transaction boundary a worker drains
// a small budget of its own queue, against a watermark cached in the
// transaction table; it reads the commit clock only when that cache is due
// for a refresh. The background thread (RunOnce) sweeps every slot plus an
// orphan list that holds the queues of exited threads and the versions of
// threads that found no slot.
//
// A drain pops a bounded batch into a fixed array under the slot latch and
// unlinks outside it, so a sweep never stalls the owner's next Enqueue for
// longer than a batch pop. The commit path touches only the caller's slot:
// no shared cursor, counter or latch, and no allocation while the thread's
// backlog stays within the blocks its queue already holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/port.h"
#include "common/spin_latch.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "storage/lock_word.h"
#include "storage/table.h"
#include "txn/timestamp.h"
#include "txn/txn_table.h"
#include "util/block_queue.h"
#include "util/epoch.h"
#include "util/tls_slots.h"

namespace mvstore {

class GarbageCollector {
 public:
  /// Upper bound on concurrently registered threads; slots are recycled on
  /// thread exit, overflow goes to the orphan list.
  static constexpr uint32_t kMaxThreads = 512;

  /// `clock` supplies the watermark when no transaction is active;
  /// `hists` takes each full pass's duration (gc_pass).
  GarbageCollector(TxnTable& txn_table, EpochManager& epoch,
                   StatsCollector& stats, const TimestampGenerator& clock,
                   obs::LatencyHistograms& hists, uint32_t interval_us);

  ~GarbageCollector() { Stop(); }

  GarbageCollector(const GarbageCollector&) = delete;
  GarbageCollector& operator=(const GarbageCollector&) = delete;

  void Start();
  void Stop();

  /// Defer `version` until the watermark passes `retire_after` (the end
  /// timestamp that superseded it). Called by the thread that terminated
  /// the transaction, in commit order.
  void Enqueue(Table* table, Version* version, Timestamp retire_after);

  /// `version` is garbage now (aborted creator). Still goes through
  /// unlink + epoch retirement.
  void EnqueueImmediate(Table* table, Version* version);

  /// Worker-thread cooperation: reclaim up to `budget` ready versions from
  /// the calling thread's own queue. Returns the number reclaimed.
  uint32_t Cooperate(uint32_t budget);

  /// Reclaim everything currently ready in every slot and the orphan list.
  /// For the background thread, tests and shutdown. When RunOnce returns,
  /// every item that a concurrent Cooperate had already popped has been
  /// unlinked too: drains unlink outside the slot latch, so without the
  /// wait on each slot's in-flight flag a caller could observe popped-but-
  /// still-linked versions.
  uint64_t RunOnce();

  /// Versions queued but not yet popped for reclamation.
  uint64_t PendingCount() const;

  /// High-water mark of per-thread queues ever claimed: bounded by the peak
  /// number of concurrent threads, not the total.
  uint32_t UsedSlots() const { return slots_.Used(); }

  /// Current GC watermark: versions that died before this timestamp are
  /// unreachable by every present and future reader.
  Timestamp Watermark(Timestamp now) { return txn_table_.MinActiveBeginTs(now); }

  /// Watermark cached by the table (TxnTable::CachedMinActiveBeginTs), so
  /// per-commit cooperative GC never pays for the exact table scan and
  /// every consumer sees one never-regressing value.
  Timestamp CachedWatermark(Timestamp seen_ts) {
    return txn_table_.CachedMinActiveBeginTs([this] { return Now(); },
                                             seen_ts);
  }

 private:
  struct Item {
    Table* table;
    Version* version;
    Timestamp retire_after;  // 0 = immediate
  };

  /// Most items one drain pops per latch hold.
  static constexpr uint32_t kBatch = 64;

  /// One thread's queue. The owner pushes under the latch; drainers pop
  /// under it. `oldest` mirrors the front item's retire_after (kInfinity
  /// when empty) so the owner's Cooperate can skip the latch when nothing
  /// is ready; a stale value only costs a latch round trip.
  struct alignas(kCacheLineSize) Slot {
    mutable SpinLatch latch;
    BlockQueue<Item> queue GUARDED_BY(latch);
    std::atomic<Timestamp> oldest{kInfinity};
    /// Largest retire_after the owner queued (owner-only): Cooperate's
    /// commit-count refresh trigger.
    Timestamp newest = 0;
    /// Set by the owner's Cooperate from its pop until its unlinks are done
    /// (at most one per slot: Cooperate drains only the caller's slot).
    std::atomic<bool> draining{false};
  };

  /// Above every end timestamp drawn so far.
  Timestamp Now() const { return clock_.Current() + 1; }

  /// Pops up to `max` items ready under `watermark` off the front of the
  /// slot's commit-ordered queue into `batch`, stopping at the first item
  /// that is not ready. Caller holds the slot latch.
  static uint32_t PopReady(Slot& slot, Timestamp watermark, Item* batch,
                           uint32_t max) REQUIRES(slot.latch);

  /// Unlinks and epoch-retires `n` popped items.
  void Reclaim(const Item* batch, uint32_t n);

  uint64_t DrainSlot(Slot& slot, Timestamp watermark);
  uint64_t DrainOrphans(Timestamp watermark);

  /// Release hook: move an exiting thread's queue onto the orphan list.
  void ReleaseSlot(Slot& slot);

  TxnTable& txn_table_;
  EpochManager& epoch_;
  StatsCollector& stats_;
  const TimestampGenerator& clock_;
  obs::LatencyHistograms& hists_;
  const uint32_t interval_us_;

  Mutex run_once_mutex_;  // serializes full RunOnce passes

  /// Queues of exited threads and items of slotless threads. Not in commit
  /// order (many threads interleave), so RunOnce visits every item.
  mutable SpinLatch orphans_latch_;
  BlockQueue<Item> orphans_ GUARDED_BY(orphans_latch_);

  std::atomic<bool> running_{false};
  std::thread thread_;

  TlsSlots<Slot> slots_;  // last: see util/tls_slots.h
};

}  // namespace mvstore
