// Commit dependencies: register-and-report (paper Section 2.7).
//
// T1 acquires a commit dependency on T2 by incrementing its own
// CommitDepCounter and adding its ID to T2's CommitDepSet. When T2 commits
// it decrements each dependent's counter; if T2 aborts it sets their
// AbortNow flags (cascading abort).
#pragma once

#include "txn/transaction.h"
#include "txn/txn_table.h"

namespace mvstore {

/// Outcome of a commit-dependency registration attempt.
enum class CommitDepOutcome {
  kRegistered,          ///< dependency taken; provider will report
  kProviderCommitted,   ///< provider already committed; proceed without one
  kProviderAborted,     ///< provider already aborted; its versions are garbage
  kProviderTerminated,  ///< provider gone; reread the version word for truth
};

/// Register a commit dependency of `dependent` on `provider`.
///
/// Handles the races against provider resolution: if the provider already
/// committed there is nothing to wait for; if it already aborted its
/// versions are garbage. A provider observed Terminated is ambiguous — the
/// caller read the transaction ID out of a version word *before* the
/// provider finalized it, so commit and abort are both possible. By the
/// time the state reads Terminated the provider has finalized that word
/// (Postprocess happens-before the Terminated store), so the caller must
/// reread the version word, which now holds the truth. Treating Terminated
/// as committed here is wrong: an aborted-then-terminated provider would
/// make a speculative reader consume a garbage version with no dependency
/// recorded (a torn read no one ever reports).
inline CommitDepOutcome RegisterCommitDependency(Transaction* dependent,
                                                 Transaction* provider) {
  // Count first so the provider's drain can never miss a registered-but-
  // uncounted dependency.
  dependent->commit_dep_counter.fetch_add(1, std::memory_order_acq_rel);
  {
    SpinLatchGuard guard(provider->dep_latch);
    TxnState s = provider->state.load(std::memory_order_acquire);
    if ((s == TxnState::kPreparing || s == TxnState::kActive) &&
        !provider->deps_drained) {
      provider->commit_dep_set.push_back(dependent->id);
      return CommitDepOutcome::kRegistered;
    }
    // Provider already resolved; undo the provisional count.
    dependent->commit_dep_counter.fetch_sub(1, std::memory_order_acq_rel);
    if (s == TxnState::kCommitted) return CommitDepOutcome::kProviderCommitted;
    if (s == TxnState::kAborted) return CommitDepOutcome::kProviderAborted;
    return CommitDepOutcome::kProviderTerminated;
  }
}

/// Resolve (drain) the dependents of `provider` after it reached
/// Committed or Aborted state. `committed` selects report flavor.
inline void ResolveCommitDependencies(Transaction* provider, bool committed,
                                      TxnTable& txn_table) {
  std::vector<TxnId> dependents;
  {
    SpinLatchGuard guard(provider->dep_latch);
    provider->deps_drained = true;
    dependents.swap(provider->commit_dep_set);
  }
  for (TxnId dep_id : dependents) {
    // "If a dependent transaction is not found, this means that it has
    // already aborted" -- nothing to do.
    Transaction* dep = txn_table.Find(dep_id);
    if (dep == nullptr) continue;
    if (committed) {
      dep->commit_dep_counter.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      dep->abort_now.store(true, std::memory_order_release);
    }
    dep->NotifyEvent();
  }
}

}  // namespace mvstore
