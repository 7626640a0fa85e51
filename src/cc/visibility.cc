#include "cc/visibility.h"

#include <thread>

#include "common/port.h"

namespace mvstore {

namespace {

/// Spin until `txn` leaves the Preparing state. Used during validation,
/// where waiting is permitted (the paper forbids blocking only during
/// *normal processing*), and by Read Committed readers (see below). Cannot
/// deadlock: a validating transaction waits only on transactions that
/// precommitted earlier and therefore hold smaller end timestamps; those
/// never wait on larger ones through this path. A Read Committed reader
/// holds no read locks, and no transaction waits on an Active one, so
/// nothing the Preparing transaction waits for can be waiting on it.
TxnState AwaitResolution(Transaction* txn) {
  uint32_t spins = 0;
  TxnState s = txn->state.load(std::memory_order_acquire);
  while (s == TxnState::kPreparing) {
    if (++spins % 64 == 0) {
      std::this_thread::yield();
    } else {
      CpuRelax();
    }
    s = txn->state.load(std::memory_order_acquire);
  }
  return s;
}

/// A Read Committed reader is about to wait out a Preparing writer instead
/// of speculating: count it, so the cost of not speculating shows.
void CountReadCommittedWait(const VisibilityContext& ctx) {
  if (ctx.stats != nullptr) ctx.stats->Add(Stat::kRcPreparingWaits);
}

}  // namespace

VisibilityResult CheckVisibility(const VisibilityContext& ctx, Version* v,
                                 Timestamp read_time) {
  Transaction* self = ctx.self;
  TxnTable* table = ctx.txn_table;
  VisibilityResult result;

  // ---- Step 1: Begin field (paper Table 1) --------------------------------
  //
  // Establish the version's begin time, or conclude invisible. Loops only on
  // "terminated or not found -> reread" cases, which resolve quickly.
  while (true) {
    uint64_t begin_word = v->begin.load(std::memory_order_acquire);

    if (!beginword::IsTxnId(begin_word)) {
      Timestamp begin_ts = beginword::TimestampOf(begin_word);
      if (begin_ts == kInfinity) return result;     // aborted-creator garbage
      if (read_time < begin_ts) return result;      // too new
      break;                                        // begin established
    }

    TxnId tb_id = beginword::TxnIdOf(begin_word);

    if (tb_id == self->id) {
      // Row 1 of Table 1, own-version subcase: visible only if this is our
      // latest write of the record (no newer own version supersedes it).
      uint64_t end_word = v->end.load(std::memory_order_acquire);
      if (lockword::IsLockWord(end_word) &&
          lockword::WriterOf(end_word) == self->id) {
        return result;  // we replaced or deleted it ourselves
      }
      result.visible = true;
      return result;
    }

    Transaction* tb = table->Find(tb_id);
    if (tb == nullptr) {
      // Terminated or not found: TB finalized the Begin field; reread.
      CpuRelax();
      continue;
    }

    TxnState tb_state = tb->state.load(std::memory_order_acquire);
    if (tb_state == TxnState::kActive) {
      return result;  // uncommitted, not ours: invisible
    }
    if (tb_state == TxnState::kAborted) {
      return result;  // garbage version
    }
    if (tb_state == TxnState::kTerminated) {
      CpuRelax();
      continue;  // begin field is finalized; reread
    }

    // State is Preparing or Committed. Preparing is published before the
    // end timestamp is drawn (see MVEngine::Commit), so spin out the
    // two-store window if we caught it; by Committed the value is long set.
    Timestamp ts = AwaitEndTimestamp(tb);

    if (tb_state == TxnState::kCommitted) {
      if (read_time < ts) return result;
      break;  // committed with begin time ts <= read_time
    }

    // tb_state == kPreparing: V's begin will be ts if TB commits.
    if (read_time < ts) return result;  // invisible either way

    if (ctx.mode == VisibilityMode::kValidation ||
        self->isolation == IsolationLevel::kReadCommitted) {
      // Speculative reads are not allowed during validation. Read Committed
      // does not speculate either: a commit dependency per hot row costs
      // more than waiting out the rest of TB's precommit, and skipping V
      // instead would lose the record if TB commits before the older
      // version's End field (also ts) is checked. Wait for TB to resolve;
      // if it commits the version is (potentially) visible, if it aborts
      // the version is garbage.
      if (self->isolation == IsolationLevel::kReadCommitted) {
        CountReadCommittedWait(ctx);
      }
      TxnState final_state = AwaitResolution(tb);
      if (final_state == TxnState::kAborted) return result;
      continue;  // re-run with finalized/committed begin
    }

    // Speculative read (Table 1, Preparing row): test passes using ts as the
    // begin time, so take a commit dependency on TB and proceed.
    CommitDepOutcome dep = RegisterCommitDependency(self, tb);
    if (dep == CommitDepOutcome::kProviderAborted) {
      return result;  // TB aborted meanwhile: garbage version
    }
    if (dep == CommitDepOutcome::kProviderTerminated) {
      // TB resolved and finalized the Begin field between our state reads;
      // the word now holds the truth (timestamp or infinity). Reread.
      CpuRelax();
      continue;
    }
    if (dep == CommitDepOutcome::kRegistered && ctx.stats != nullptr) {
      ctx.stats->Add(Stat::kSpeculativeReads);
      ctx.stats->Add(Stat::kCommitDepsTaken);
    }
    break;  // begin time established (speculatively, or TB committed)
  }

  // ---- Step 2: End field (paper Table 2) ----------------------------------
  //
  // We now know V's begin time is (or will be) <= read_time.
  while (true) {
    uint64_t end_word = v->end.load(std::memory_order_acquire);

    if (!lockword::IsLockWord(end_word)) {
      result.visible = read_time < lockword::TimestampOf(end_word);
      return result;
    }

    TxnId te_id = lockword::WriterOf(end_word);
    if (te_id == lockword::kNoWriter) {
      // Read-locked but not write-locked: still the latest version, logical
      // end time is infinity.
      result.visible = true;
      return result;
    }

    if (te_id == self->id) {
      // We updated or deleted this version ourselves; our own new version
      // (or the deletion) wins.
      return result;
    }

    Transaction* te = table->Find(te_id);
    if (te == nullptr) {
      CpuRelax();
      continue;  // TE terminated: end word finalized or writer cleared
    }

    TxnState te_state = te->state.load(std::memory_order_acquire);
    switch (te_state) {
      case TxnState::kActive:
        // TE's update is uncommitted: V is still the latest committed
        // version and is visible to everyone but TE.
        result.visible = true;
        return result;
      case TxnState::kAborted:
        // Table 2: V is visible. (Even if another updater sneaked in, its
        // end timestamp must postdate our read time.)
        result.visible = true;
        return result;
      case TxnState::kTerminated:
        CpuRelax();
        continue;
      case TxnState::kCommitted: {
        Timestamp ts = AwaitEndTimestamp(te);
        result.visible = read_time < ts;
        return result;
      }
      case TxnState::kPreparing: {
        // Spin out the Preparing-before-timestamp window (see
        // MVEngine::Commit precommit ordering).
        Timestamp ts = AwaitEndTimestamp(te);
        if (read_time < ts) {
          // V will be visible whether TE commits (end = ts > read time) or
          // aborts (end stays infinity).
          result.visible = true;
          return result;
        }
        if (ctx.mode == VisibilityMode::kNormalProcessing &&
            self->isolation == IsolationLevel::kReadCommitted) {
          // Mirror of the Begin-field case: wait for TE, then reread.
          CountReadCommittedWait(ctx);
          AwaitResolution(te);
          continue;
        }
        // ts < read_time: if TE commits V is invisible; if TE aborts it is
        // visible. Speculatively ignore V and depend on TE committing.
        CommitDepOutcome dep = RegisterCommitDependency(self, te);
        if (dep == CommitDepOutcome::kProviderAborted) {
          // TE aborted meanwhile: V remains visible.
          result.visible = true;
          return result;
        }
        if (dep == CommitDepOutcome::kProviderTerminated) {
          // TE resolved and finalized the End field between our state
          // reads; the word now holds the truth. Reread.
          CpuRelax();
          continue;
        }
        if (dep == CommitDepOutcome::kRegistered && ctx.stats != nullptr) {
          ctx.stats->Add(Stat::kSpeculativeIgnores);
          ctx.stats->Add(Stat::kCommitDepsTaken);
        }
        return result;  // invisible (speculatively, or TE committed)
      }
    }
  }
}

Updatability CheckUpdatability(const VisibilityContext& ctx, Version* v) {
  while (true) {
    uint64_t end_word = v->end.load(std::memory_order_acquire);
    if (!lockword::IsLockWord(end_word)) {
      return lockword::TimestampOf(end_word) == kInfinity
                 ? Updatability::kUpdatable
                 : Updatability::kWriteConflict;
    }
    TxnId te_id = lockword::WriterOf(end_word);
    if (te_id == lockword::kNoWriter) return Updatability::kUpdatable;
    if (te_id == ctx.self->id) return Updatability::kWriteConflict;

    Transaction* te = ctx.txn_table->Find(te_id);
    if (te == nullptr) {
      CpuRelax();
      continue;  // finalized; reread
    }
    TxnState s = te->state.load(std::memory_order_acquire);
    if (s == TxnState::kAborted) return Updatability::kUpdatable;
    if (s == TxnState::kTerminated) {
      CpuRelax();
      continue;
    }
    // Active or Preparing: uncommitted later version exists.
    return Updatability::kWriteConflict;
  }
}

}  // namespace mvstore
