// Multiversion storage engine with optimistic (MV/O) and pessimistic (MV/L)
// concurrency control (paper Sections 2-4).
//
// One engine hosts both transaction kinds concurrently ("peaceful
// coexistence", Section 4.5): every version uses the MV/L End-word encoding,
// and optimistic transactions honor read locks and bucket locks when the
// engine's honor_locks option is on (the default; turn it off to benchmark a
// pure-optimistic configuration).
//
// Threading model: any thread may run transactions. A transaction object is
// used by its owning thread; other threads touch only its atomic fields and
// latched sets, exactly as the paper's dependency machinery prescribes.
#pragma once

#include <functional>
#include <memory>

#include "cc/bucket_lock.h"
#include "cc/deadlock.h"
#include "cc/visibility.h"
#include "common/status.h"
#include "common/types.h"
#include "core/substrate.h"
#include "gc/garbage_collector.h"
#include "mem/object_pool.h"
#include "storage/table.h"
#include "txn/transaction.h"
#include "txn/txn_table.h"

namespace mvstore {

/// The MV-only knobs; the shared ones (logging, memory, observability)
/// live in the Substrate's DatabaseOptions.
struct MVEngineOptions {
  /// Optimistic transactions honor MV/L read/bucket locks (Section 4.5).
  /// Irrelevant when no pessimistic transactions run, except for the small
  /// cost of the precommit wait-for barrier.
  bool honor_locks = true;

  /// Background garbage collection sweep interval; 0 disables the thread
  /// (cooperative GC still runs).
  uint32_t gc_interval_us = 2000;
  /// Versions reclaimed inline by each committing worker.
  uint32_t cooperative_gc_budget = 16;

  /// Deadlock-detector pass interval; 0 disables the thread.
  uint32_t deadlock_interval_us = 1000;
};

/// Callback deciding whether a payload matches a residual predicate.
using Predicate = std::function<bool(const void* payload)>;
/// Scan consumer; return false to stop the scan.
using ScanConsumer = std::function<bool(const void* payload)>;
/// In-place payload editor used by Update (applied to a private copy).
using Mutator = std::function<void(void* payload)>;

class MVEngine {
 public:
  /// `substrate` (core/substrate.h) must outlive the engine. Version slots
  /// come from its catalog's slabs when use_slab_allocator is on;
  /// transaction objects are always pooled: the transaction table needs
  /// them for the engine's life.
  explicit MVEngine(Substrate& substrate, MVEngineOptions options = {});
  ~MVEngine();

  MVEngine(const MVEngine&) = delete;
  MVEngine& operator=(const MVEngine&) = delete;

  /// --- schema ---------------------------------------------------------------

  TableId CreateTable(TableDef def) {
    return substrate_.catalog().CreateTable(std::move(def));
  }

  /// --- transaction lifecycle -------------------------------------------------

  /// Start a transaction. `pessimistic` selects MV/L (locking); otherwise
  /// MV/O (validation).
  Transaction* Begin(IsolationLevel isolation, bool pessimistic,
                     bool read_only = false);

  /// Commit; on any failure the transaction is aborted internally and the
  /// returned status carries the abort reason. The handle is invalid after
  /// this call either way.
  Status Commit(Transaction* txn);

  /// User-requested abort. The handle is invalid after this call.
  void Abort(Transaction* txn);

  /// --- data operations --------------------------------------------------------
  ///
  /// All operations return kAborted statuses when the transaction must die;
  /// the engine has already aborted it in that case and the handle is
  /// invalid. kNotFound / kAlreadyExists leave the transaction running.

  /// Read the first visible version matching `key` on `index_id`; copies the
  /// payload into `out` (payload_size bytes).
  Status Read(Transaction* txn, TableId table_id, IndexId index_id,
              uint64_t key, void* out);

  /// Scan all visible versions matching `key` (plus optional residual
  /// predicate). Serializable transactions register the scan for phantom
  /// protection (MV/O: ScanSet; MV/L: bucket lock). On an ordered index
  /// this is ScanRange(key, key).
  Status Scan(Transaction* txn, TableId table_id, IndexId index_id,
              uint64_t key, const Predicate& residual,
              const ScanConsumer& consumer);

  /// Visit every visible version whose `index_id` key lies in [lo, hi], in
  /// ascending key order, applying the paper's visibility rules per version
  /// at the transaction's read time. `index_id` must name an ordered
  /// (skip-list) index. Serializable transactions (both MV/O and MV/L)
  /// record the range in their RangeScanSet; it is rescanned at precommit
  /// and a version that became visible during the transaction's lifetime
  /// aborts it (phantom).
  Status ScanRange(Transaction* txn, TableId table_id, IndexId index_id,
                   uint64_t lo, uint64_t hi, const Predicate& residual,
                   const ScanConsumer& consumer);

  /// Visit every visible row of the table as of the transaction's read time
  /// by scanning all buckets of the primary index (Section 2.1: "To scan a
  /// table, one simply scans all buckets of any index on the table").
  /// No phantom protection is registered -- full scans are intended for
  /// snapshot / read-committed readers (reporting); serializable callers
  /// needing full-table stability should use per-key Scans.
  Status ScanTable(Transaction* txn, TableId table_id,
                   const ScanConsumer& consumer);

  /// Insert a new record. Fails with kAlreadyExists if the primary (unique)
  /// index already holds a visible or in-flight record with the same key.
  Status Insert(Transaction* txn, TableId table_id, const void* payload);

  /// Update the first visible version matching `key`: copies it, applies
  /// `mutator`, installs the new version.
  Status Update(Transaction* txn, TableId table_id, IndexId index_id,
                uint64_t key, const Mutator& mutator);

  /// Delete the first visible version matching `key`.
  Status Delete(Transaction* txn, TableId table_id, IndexId index_id,
                uint64_t key);

  /// --- infrastructure access ---------------------------------------------------

  TxnTable& txn_table() { return txn_table_; }
  GarbageCollector& gc() { return *gc_; }

 private:
  /// Logical read time for a transaction's reads (Sections 3.1, 4.3.1).
  Timestamp ReadTime(Transaction* txn) const;

  VisibilityContext VisCtx(Transaction* txn, VisibilityMode mode);

  /// Find the first visible version for key on any index kind; nullptr if
  /// none. On conflict requiring abort, sets `status`.
  Version* FindVisible(Transaction* txn, Table& table, IndexId index_id,
                       uint64_t key, Timestamp read_time,
                       const Predicate& residual, Status* status);

  /// MV/L: acquire a read lock on a latest version (Section 4.2.1).
  /// Returns OK and sets *locked, or an abort status.
  Status AcquireReadLock(Transaction* txn, Version* v, bool* locked);
  /// Release one read lock; wakes the writer when the last lock goes away.
  void ReleaseReadLock(Transaction* txn, Version* v);

  /// Release our own read lock on `v` if we hold one (before write-locking
  /// it, so we never wait on ourselves at precommit).
  void ReleaseOwnReadLock(Transaction* txn, Version* v);

  /// Install a write lock on `v` (Section 2.6 / 4.3.1 "Update version").
  Status InstallWriteLock(Transaction* txn, Version* v);

  /// Serializable MV/L scanner: impose a wait-for dependency on the active
  /// creator of an invisible version (potential phantom, Section 4.2.2).
  Status ImposePhantomDependency(Transaction* txn, Version* v);

  /// Inserter side of bucket locks: wait-for dependencies on lock holders.
  Status TakeBucketLockDependencies(Transaction* txn, HashIndex::Bucket* bucket);

  /// True when this transaction participates in the wait-for machinery.
  bool UsesWaitFors(const Transaction* txn) const {
    return txn->pessimistic || options_.honor_locks;
  }

  /// End-of-normal-processing (Section 4.3.1): release read/bucket locks,
  /// then wait out wait-for dependencies. Returns false if the transaction
  /// must abort (AbortNow).
  bool FinishNormalProcessing(Transaction* txn);

  /// Optimistic validation: read stability + phantom checks (Section 3.2).
  ///
  /// NO_THREAD_SAFETY_ANALYSIS: iterates txn->read_set without
  /// read_set_latch. Safe by protocol — the owner thread is past its last
  /// AddRead when validation runs, so the latch-free iteration races only
  /// with the deadlock detector's const walk (both readers); taking the
  /// latch here would hold it across every visibility check of the commit.
  Status Validate(Transaction* txn) NO_THREAD_SAFETY_ANALYSIS;

  /// Rescan every registered range scan at the end timestamp: a version
  /// visible now but not at begin time is a phantom. Runs inside Validate
  /// for MV/O; pessimistic serializable transactions with range scans run
  /// it directly at precommit (bucket locks cover hash scans only).
  Status ValidateRangeScans(Transaction* txn);

  /// Write the commit record (Section 3.2 logging step); true when one was
  /// appended.
  bool WriteLog(Transaction* txn);

  /// Propagate end timestamp / reset fields (Section 3.3).
  void Postprocess(Transaction* txn, bool committed);

  /// Common abort path; resolves dependents, postprocesses, terminates.
  Status DoAbort(Transaction* txn, AbortReason reason);

  /// Unpublish from the txn table, hand versions to GC, retire the object.
  void Terminate(Transaction* txn, bool committed);

  void ReleaseHeldLocks(Transaction* txn);
  void DrainWaitingList(Transaction* txn);

  /// Always enabled: owns what txn_table_ points at for the engine's life.
  ObjectPool<Transaction> txn_pool_;
  TxnTable txn_table_;
  BucketLockTable bucket_locks_;
  std::unique_ptr<GarbageCollector> gc_;
  std::unique_ptr<DeadlockDetector> deadlock_;
  /// Read by every transaction, so kept after the latch-bearing members:
  /// placed ahead of txn_pool_ they cost the two-thread empty-commit loop
  /// ~10% of its throughput.
  Substrate& substrate_;
  MVEngineOptions options_;
};

}  // namespace mvstore
