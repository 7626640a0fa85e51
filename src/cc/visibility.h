// Version visibility and updatability (paper Sections 2.5 and 2.6).
//
// Implements the full case analysis of Table 1 (Begin field holds a
// transaction ID) and Table 2 (End field holds a transaction ID), including
// speculative reads and speculative ignores that register commit
// dependencies instead of blocking (Section 2.7).
//
// Two modes:
//  * kNormalProcessing  - speculation allowed, exactly as in the paper --
//    with one deliberate deviation: Read Committed readers never speculate.
//    A Preparing transaction whose end timestamp is above the read time is
//    handled as the tables say (its new version invisible, the version it
//    replaces visible, no dependency). One whose end timestamp is at or
//    below the read time is waited out, so the reader sees its outcome;
//    a commit dependency per hot row cost MV/O and MV/L their 4-thread
//    scaling on the fig5 hotspot. Skipping such a version instead -- treating
//    the transaction as Active -- loses the record when it commits between
//    the new version's check and the old one's. Snapshot-based levels
//    speculate as written and never block during normal processing.
//  * kValidation        - used while re-checking reads/scans at the end of
//    an optimistic transaction. Speculative *reads* are not allowed
//    (Section 3.2: commit dependencies may be acquired during validation
//    "but only if it speculatively ignores a version"); encountering a
//    Preparing creator whose result would matter fails conservatively.
#pragma once

#include "common/counters.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/version.h"
#include "txn/commit_dep.h"
#include "txn/transaction.h"
#include "txn/txn_table.h"

namespace mvstore {

enum class VisibilityMode {
  kNormalProcessing,
  kValidation,
};

/// Outcome of a visibility test.
struct VisibilityResult {
  /// Version is visible at the probe's read time (possibly speculatively).
  bool visible = false;
  /// The probing transaction must abort (cascading abort discovered, or a
  /// validation-mode conflict with a Preparing transaction).
  bool must_abort = false;
  AbortReason abort_reason = AbortReason::kNone;
};

/// Shared context for visibility probes.
struct VisibilityContext {
  Transaction* self = nullptr;
  TxnTable* txn_table = nullptr;
  StatsCollector* stats = nullptr;
  VisibilityMode mode = VisibilityMode::kNormalProcessing;
};

/// Test whether `v` is visible to `ctx.self` as of `read_time`.
/// May register commit dependencies on `ctx.self` (speculative read /
/// speculative ignore). The caller must hold an EpochGuard.
VisibilityResult CheckVisibility(const VisibilityContext& ctx, Version* v,
                                 Timestamp read_time);

/// Classification of a version for update attempts (Section 2.6).
enum class Updatability {
  /// Latest version: End == infinity, or write-locked by an aborted txn.
  kUpdatable,
  /// A committed newer version exists, or an active/preparing transaction
  /// holds the write lock: write-write conflict, first-writer-wins.
  kWriteConflict,
};

/// Check whether `v` is updatable *right now*. Advisory: the authoritative
/// check is the CAS that installs the write lock.
Updatability CheckUpdatability(const VisibilityContext& ctx, Version* v);

}  // namespace mvstore
