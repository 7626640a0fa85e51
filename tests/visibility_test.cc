// Row-by-row tests of the paper's visibility case analysis:
//   Table 1 -- version Begin field contains a transaction ID;
//   Table 2 -- version End field contains a transaction ID;
// including speculative reads / speculative ignores and the commit
// dependencies they register (Sections 2.5-2.7), plus updatability
// (Section 2.6).
#include "cc/visibility.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "storage/table.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class VisibilityTest : public ::testing::Test {
 protected:
  VisibilityTest() : table_(0, MakeDef()) {}

  static TableDef MakeDef() {
    TableDef def;
    def.name = "t";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 64, true});
    return def;
  }

  ~VisibilityTest() override {
    for (Version* v : versions_) table_.FreeUnpublishedVersion(v);
    for (Transaction* t : txns_) delete t;
  }

  Version* NewVersion(uint64_t begin_word, uint64_t end_word) {
    Row row{1};
    Version* v = table_.AllocateVersion(&row);
    v->begin.store(begin_word);
    v->end.store(end_word);
    versions_.push_back(v);
    return v;
  }

  /// `name` is the test's label for the transaction (100, 200); the table
  /// assigns the real ID, which Id(name) returns.
  Transaction* NewTxn(TxnId name, TxnState state, Timestamp end_ts = 0,
                      bool in_table = true) {
    auto* t = new Transaction(IsolationLevel::kSerializable,
                              /*pessimistic=*/false, /*read_only=*/false);
    t->begin_ts.store(1);
    t->end_ts.store(end_ts);
    t->state.store(state);
    txns_.push_back(t);
    if (in_table) txn_table_.Publish(t);
    ids_[name] = t->id;
    return t;
  }

  TxnId Id(TxnId name) { return ids_.at(name); }

  VisibilityContext Ctx(Transaction* self,
                        VisibilityMode mode = VisibilityMode::kNormalProcessing) {
    VisibilityContext ctx;
    ctx.self = self;
    ctx.txn_table = &txn_table_;
    ctx.stats = &stats_;
    ctx.mode = mode;
    return ctx;
  }

  Table table_;
  TxnTable txn_table_;
  StatsCollector stats_;
  std::vector<Version*> versions_;
  std::vector<Transaction*> txns_;
  std::map<TxnId, TxnId> ids_;
};

/// --- both fields are timestamps ---------------------------------------------

TEST_F(VisibilityTest, TimestampsReadTimeInsideWindow) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeTimestamp(20));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 15).visible);
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 10).visible);   // begin inclusive
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 20).visible);  // end exclusive
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 5).visible);
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 25).visible);
}

TEST_F(VisibilityTest, LatestVersionVisibleToAnyLaterReadTime) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 1000000).visible);
}

TEST_F(VisibilityTest, GarbageVersionInvisible) {
  // Aborted creator set Begin to infinity.
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(kInfinity),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 50).visible);
}

/// --- Table 1: Begin contains a transaction ID -------------------------------

TEST_F(VisibilityTest, Table1ActiveOwnVersionLatestVisible) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTxnId(Id(100)),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 1).visible);
}

TEST_F(VisibilityTest, Table1ActiveOwnVersionSupersededInvisible) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  // We created it, then replaced it ourselves (our write lock on it).
  Version* v = NewVersion(beginword::MakeTxnId(Id(100)),
                          lockword::MakeLockWord(0, Id(100)));
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 1).visible);
}

TEST_F(VisibilityTest, Table1ActiveForeignVersionInvisible) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table1PreparingSpeculativeRead) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  // RT=40 > TS=30: speculative read; visible + commit dependency on TB.
  VisibilityResult r = CheckVisibility(Ctx(self), v, 40);
  EXPECT_TRUE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 1u);
  {
    SpinLatchGuard g(tb->dep_latch);
    ASSERT_EQ(tb->commit_dep_set.size(), 1u);
    EXPECT_EQ(tb->commit_dep_set[0], self->id);
  }
  EXPECT_EQ(stats_.Get(Stat::kSpeculativeReads), 1u);
}

TEST_F(VisibilityTest, Table1PreparingReadCommittedWaitsForCreator) {
  // Same situation as Table1PreparingSpeculativeRead, at Read Committed:
  // no speculation and no skip. Skipping V would lose the record if TB
  // commits before the older version's End field (also TS=30 <= RT) is
  // checked, so the reader waits for TB and sees the committed outcome.
  Transaction* self = NewTxn(100, TxnState::kActive);
  self->isolation = IsolationLevel::kReadCommitted;
  Transaction* tb = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tb->state.store(TxnState::kCommitted);
  });
  VisibilityResult r = CheckVisibility(Ctx(self), v, 40);
  committer.join();
  EXPECT_TRUE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
  EXPECT_EQ(stats_.Get(Stat::kSpeculativeReads), 0u);
  EXPECT_EQ(stats_.Get(Stat::kRcPreparingWaits), 1u);
}

TEST_F(VisibilityTest, Table1PreparingTooNewInvisibleNoDep) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  // RT=20 < TS=30: invisible whether TB commits or aborts; no dependency.
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 20).visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
}

TEST_F(VisibilityTest, Table1CommittedUsesEndTsAsBeginTime) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kCommitted, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 40).visible);
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 20).visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);  // committed: no dep
}

TEST_F(VisibilityTest, Table1AbortedCreatorGarbage) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kAborted);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table1TerminatedRereadsBeginField) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  // Creator not in the table at all: visibility re-reads the Begin word
  // until it is finalized. Finalize it from another thread.
  Version* v = NewVersion(beginword::MakeTxnId(999),
                          lockword::MakeTimestamp(kInfinity));
  std::thread finalizer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    v->begin.store(beginword::MakeTimestamp(10));
  });
  VisibilityResult r = CheckVisibility(Ctx(self), v, 50);
  finalizer.join();
  EXPECT_TRUE(r.visible);
}

/// --- Table 2: End contains a transaction ID (lock word) ---------------------

TEST_F(VisibilityTest, Table2ActiveForeignWriterStillVisible) {
  // TE updated V but has not committed: V is the latest committed version.
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table2OwnWriteLockInvisible) {
  // We updated/deleted V ourselves: our new version (or nothing) wins.
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(100)));
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table2PreparingEndAfterReadTimeVisible) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kPreparing, /*end_ts=*/80);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  // TS=80 > RT=50: visible whether TE commits or aborts; no dependency.
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 50).visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
}

TEST_F(VisibilityTest, Table2PreparingSpeculativeIgnore) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* te = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  // TS=30 < RT=50: speculatively ignore; invisible + commit dep on TE.
  VisibilityResult r = CheckVisibility(Ctx(self), v, 50);
  EXPECT_FALSE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 1u);
  {
    SpinLatchGuard g(te->dep_latch);
    EXPECT_EQ(te->commit_dep_set.size(), 1u);
  }
  EXPECT_EQ(stats_.Get(Stat::kSpeculativeIgnores), 1u);
}

TEST_F(VisibilityTest, Table2PreparingReadCommittedWaitsForWriter) {
  // Mirror of Table1PreparingReadCommittedWaitsForCreator on the End field:
  // TS=30 <= RT=50, so the reader waits for TE instead of speculatively
  // ignoring V; TE commits, and V ends before the read time.
  Transaction* self = NewTxn(100, TxnState::kActive);
  self->isolation = IsolationLevel::kReadCommitted;
  Transaction* te = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    te->state.store(TxnState::kCommitted);
  });
  VisibilityResult r = CheckVisibility(Ctx(self), v, 50);
  committer.join();
  EXPECT_FALSE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
  EXPECT_EQ(stats_.Get(Stat::kSpeculativeIgnores), 0u);
  EXPECT_EQ(stats_.Get(Stat::kRcPreparingWaits), 1u);
}

TEST_F(VisibilityTest, Table2CommittedWriterEndTs) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kCommitted, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 20).visible);   // RT < TS
  EXPECT_FALSE(CheckVisibility(Ctx(self), v, 40).visible);  // RT > TS
}

TEST_F(VisibilityTest, Table2AbortedWriterVisible) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kAborted);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table2ReadLockedOnlyVisible) {
  // Read locks without a writer: logical end time is still infinity.
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(3, lockword::kNoWriter));
  EXPECT_TRUE(CheckVisibility(Ctx(self), v, 50).visible);
}

TEST_F(VisibilityTest, Table2TerminatedWriterRereadsEndField) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, 999));
  std::thread finalizer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    v->end.store(lockword::MakeTimestamp(70));
  });
  VisibilityResult r = CheckVisibility(Ctx(self), v, 50);
  finalizer.join();
  EXPECT_TRUE(r.visible);  // RT=50 < finalized end=70
}

/// --- validation mode ---------------------------------------------------------

TEST_F(VisibilityTest, ValidationWaitsForPreparingCreator) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tb->state.store(TxnState::kCommitted);
  });
  // RT=40 > TS=30 would be a speculative read in normal mode; validation
  // mode instead waits for TB to resolve and then sees it committed.
  VisibilityResult r =
      CheckVisibility(Ctx(self, VisibilityMode::kValidation), v, 40);
  committer.join();
  EXPECT_TRUE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);  // no speculative read dep
}

TEST_F(VisibilityTest, ValidationAbortedCreatorMeansGarbage) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tb->state.store(TxnState::kAborted);
  });
  VisibilityResult r =
      CheckVisibility(Ctx(self, VisibilityMode::kValidation), v, 40);
  aborter.join();
  EXPECT_FALSE(r.visible);
}

TEST_F(VisibilityTest, ValidationSpeculativeIgnoreStillRegistersDep) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* te = NewTxn(200, TxnState::kPreparing, /*end_ts=*/30);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  // Section 3.2: dependencies during validation only via speculative ignore.
  VisibilityResult r =
      CheckVisibility(Ctx(self, VisibilityMode::kValidation), v, 50);
  EXPECT_FALSE(r.visible);
  EXPECT_EQ(self->commit_dep_counter.load(), 1u);
  {
    SpinLatchGuard g(te->dep_latch);
    EXPECT_EQ(te->commit_dep_set.size(), 1u);
  }
}

/// --- updatability (Section 2.6) ---------------------------------------------

TEST_F(VisibilityTest, UpdatableWhenEndInfinity) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeTimestamp(kInfinity));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kUpdatable);
}

TEST_F(VisibilityTest, NotUpdatableWhenSuperseded) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeTimestamp(50));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kWriteConflict);
}

TEST_F(VisibilityTest, NotUpdatableWhenWriteLockedByActive) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kWriteConflict);
}

TEST_F(VisibilityTest, NotUpdatableWhenWriteLockedByPreparing) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kPreparing, 30);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kWriteConflict);
}

TEST_F(VisibilityTest, UpdatableWhenWriterAborted) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  NewTxn(200, TxnState::kAborted);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(0, Id(200)));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kUpdatable);
}

TEST_F(VisibilityTest, UpdatableWhenOnlyReadLocked) {
  // Eager updates: read locks do not block writers (Section 4.2).
  Transaction* self = NewTxn(100, TxnState::kActive);
  Version* v = NewVersion(beginword::MakeTimestamp(10),
                          lockword::MakeLockWord(5, lockword::kNoWriter));
  EXPECT_EQ(CheckUpdatability(Ctx(self), v), Updatability::kUpdatable);
}

/// --- commit dependency resolution (Section 2.7) -----------------------------

TEST_F(VisibilityTest, ProviderCommitResolvesDependency) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kPreparing, 30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  ASSERT_TRUE(CheckVisibility(Ctx(self), v, 40).visible);
  ASSERT_EQ(self->commit_dep_counter.load(), 1u);

  tb->state.store(TxnState::kCommitted);
  ResolveCommitDependencies(tb, /*committed=*/true, txn_table_);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
  EXPECT_FALSE(self->abort_now.load());
}

TEST_F(VisibilityTest, ProviderAbortCascades) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kPreparing, 30);
  Version* v = NewVersion(beginword::MakeTxnId(Id(200)),
                          lockword::MakeTimestamp(kInfinity));
  ASSERT_TRUE(CheckVisibility(Ctx(self), v, 40).visible);

  tb->state.store(TxnState::kAborted);
  ResolveCommitDependencies(tb, /*committed=*/false, txn_table_);
  EXPECT_TRUE(self->abort_now.load());
}

TEST_F(VisibilityTest, RegisterOnAlreadyCommittedProviderIsNoWait) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kCommitted, 30);
  EXPECT_EQ(RegisterCommitDependency(self, tb),
            CommitDepOutcome::kProviderCommitted);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
}

TEST_F(VisibilityTest, RegisterOnAbortedProviderFails) {
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kAborted);
  EXPECT_EQ(RegisterCommitDependency(self, tb),
            CommitDepOutcome::kProviderAborted);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
}

TEST_F(VisibilityTest, RegisterOnTerminatedProviderIsAmbiguous) {
  // A Terminated provider may have committed OR aborted; the version word
  // it finalized is the only truth. Registration must not report
  // "committed" (a speculative reader would consume an aborted provider's
  // garbage version with no dependency recorded).
  Transaction* self = NewTxn(100, TxnState::kActive);
  Transaction* tb = NewTxn(200, TxnState::kTerminated, 30);
  EXPECT_EQ(RegisterCommitDependency(self, tb),
            CommitDepOutcome::kProviderTerminated);
  EXPECT_EQ(self->commit_dep_counter.load(), 0u);
}

}  // namespace
}  // namespace mvstore
